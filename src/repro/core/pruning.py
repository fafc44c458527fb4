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

    Maintains, for each of ``n_queries`` queries, the ``k`` smallest
    distances seen so far with their vector ids; duplicates by id are
    collapsed (prewarm candidates are rescanned-safe).
    """

    def __init__(self, n_queries: int, k: int):
        self.k = k
        self._ids = [np.empty(0, dtype=np.int64) for _ in range(n_queries)]
        self._dists = [
            np.empty(0, dtype=np.float64) for _ in range(n_queries)
        ]

    def update(self, q: int, ids: np.ndarray, dists: np.ndarray) -> None:
        """Merge candidates ``(ids, dists)`` into query ``q``'s heap.

        When the heap is full, candidates farther than its k-th best
        distance are dropped first. Ties are kept (``<=``): a tied
        candidate with a smaller id still enters, so the result is exact.
        """
        ids = np.asarray(ids, np.int64)
        dists = np.asarray(dists, np.float64)
        if len(self._dists[q]) == self.k:
            near = dists <= self._dists[q][-1]
            ids, dists = ids[near], dists[near]
        if len(ids) == 0:
            return
        all_ids = np.concatenate([self._ids[q], ids])
        all_d = np.concatenate([self._dists[q], dists])
        # Collapse duplicate ids, keeping the smallest distance.
        order = np.lexsort((all_d, all_ids))
        all_ids, all_d = all_ids[order], all_d[order]
        first = np.ones(len(all_ids), dtype=bool)
        first[1:] = all_ids[1:] != all_ids[:-1]
        all_ids, all_d = all_ids[first], all_d[first]
        # Keep the k best by (distance, id): ties are cut by id, so the
        # kept ids do not depend on the order candidates arrived in.
        keep = np.lexsort((all_ids, all_d))[: self.k]
        self._ids[q] = all_ids[keep]
        self._dists[q] = all_d[keep]

    def threshold(self, q: int) -> float:
        """Current pruning threshold ``τ²`` for query ``q``: the k-th best
        distance, or +inf while the heap is not yet full."""
        if len(self._dists[q]) < self.k:
            return np.inf
        return float(self._dists[q][-1])

    def result(self) -> tuple[np.ndarray, np.ndarray]:
        """Final ``(ids, dists)`` arrays of shape ``(Q, k)``, distance-
        sorted, padded with ``(-1, inf)`` when fewer than k candidates."""
        nq = len(self._ids)
        ids = np.full((nq, self.k), -1, dtype=np.int64)
        dists = np.full((nq, self.k), np.inf)
        for q in range(nq):
            m = len(self._ids[q])
            ids[q, :m] = self._ids[q]
            dists[q, :m] = self._dists[q]
        return ids, dists


def prune_mask(partial_sums: np.ndarray, tau2: float) -> np.ndarray:
    """Boolean survivors mask: True where ``S² ≤ τ²`` (strict-``>``
    pruning keeps exactness; candidates tied with τ² survive)."""
    return partial_sums <= tau2
