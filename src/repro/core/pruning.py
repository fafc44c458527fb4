"""Top-K state and pruning thresholds (paper §3.1, §4.3, Algorithm 1).

Pruning rests on the monotonicity of partial squared-L2 sums: once a
candidate's cumulative partial distance ``S_k²`` exceeds the current
top-K threshold ``τ²``, later dimension blocks can only increase it, so
the candidate is discarded without touching the remaining machines. The
test is strict (``>``), which makes pruning *exactness-preserving* with
respect to the probed clusters.
"""
from __future__ import annotations

import numpy as np


class TopK:
    """Per-query running top-K sets (the paper's max-heaps).

    ``ids`` and ``dists`` are ``(Q, k)`` arrays: row ``q`` holds the ``k``
    smallest distances seen so far for query ``q`` with their vector ids,
    distance-ascending and padded with ``(-1, inf)``; duplicates by id are
    collapsed. ``dists[:, -1]`` is each query's pruning threshold ``τ²``,
    +inf until its row is full.
    """

    def __init__(self, n_queries: int, k: int):
        self.k = k
        self.ids = np.full((n_queries, k), -1, dtype=np.int64)
        self.dists = np.full((n_queries, k), np.inf)

    def update(self, q: int, ids: np.ndarray, dists: np.ndarray) -> None:
        """Merge candidates ``(ids, dists)`` into query ``q``'s heap.

        When the heap is full, candidates farther than its k-th best
        distance are dropped first. Ties are kept (``<=``): a tied
        candidate with a smaller id still enters, so the result is exact.
        """
        ids = np.asarray(ids, np.int64)
        dists = np.asarray(dists, np.float64)
        tau2 = self.dists[q, -1]
        if tau2 < np.inf:
            near = dists <= tau2
            ids, dists = ids[near], dists[near]
        if len(ids) == 0:
            return
        all_ids = np.concatenate([self.ids[q], ids])
        all_d = np.concatenate([self.dists[q], dists])
        # Collapse duplicate ids, keeping the smallest distance (the
        # padding collapses to one (-1, inf) entry).
        order = np.lexsort((all_d, all_ids))
        all_ids, all_d = all_ids[order], all_d[order]
        first = np.ones(len(all_ids), dtype=bool)
        first[1:] = all_ids[1:] != all_ids[:-1]
        all_ids, all_d = all_ids[first], all_d[first]
        # Keep the k best by (distance, id): ties are cut by id, so the
        # kept ids do not depend on the order candidates arrived in. Rows
        # past the kept ones are padding already.
        keep = np.lexsort((all_ids, all_d))[: self.k]
        self.ids[q, : len(keep)] = all_ids[keep]
        self.dists[q, : len(keep)] = all_d[keep]


def prune_mask(partial_sums: np.ndarray, tau2: float) -> np.ndarray:
    """Boolean survivors mask: True where ``S² ≤ τ²`` (strict-``>``
    pruning keeps exactness; candidates tied with τ² survive)."""
    return partial_sums <= tau2
