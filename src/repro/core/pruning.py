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
    in ``(distance, id)`` order and padded with ``(-1, inf)``.
    ``dists[:, -1]`` is each query's pruning threshold ``τ²``, +inf until
    its row is full.

    ``update`` does not look for repeated ids: a search hands each vector
    id to a query's heap at most once, since probe 0's scan starts after
    the prewarmed prefix, the clusters partition the ids, and each
    (round, wave, query) task finishes exactly once.
    """

    def __init__(self, n_queries: int, k: int):
        self.k = k
        self.ids = np.full((n_queries, k), -1, dtype=np.int64)
        self.dists = np.full((n_queries, k), np.inf)

    def update(self, q: int, ids: np.ndarray, dists: np.ndarray) -> None:
        """Merge candidates ``(ids, dists)``, none of them already in query
        ``q``'s heap, into it.

        Candidates farther than the k-th best distance ``τ²`` are dropped
        first. Ties are kept (``<=``): a tied candidate with a smaller id
        still enters, so the result is exact. The row then keeps the ``k``
        best by ``(distance, id)``, so the kept ids do not depend on the
        order candidates arrived in.
        """
        ids = np.asarray(ids, np.int64)
        dists = np.asarray(dists, np.float64)
        near = dists <= self.dists[q, -1]
        if not near.any():
            return
        all_ids = np.concatenate([self.ids[q], ids[near]])
        all_d = np.concatenate([self.dists[q], dists[near]])
        keep = np.lexsort((all_ids, all_d))[: self.k]
        self.ids[q] = all_ids[keep]
        self.dists[q] = all_d[keep]


def prune_mask(partial_sums: np.ndarray, tau2: float) -> np.ndarray:
    """Boolean survivors mask: True where ``S² ≤ τ²`` (strict-``>``
    pruning keeps exactness; candidates tied with τ² survive)."""
    return partial_sums <= tau2
