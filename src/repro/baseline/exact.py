"""Exhaustive exact KNN — ground truth for recall measurements."""
from __future__ import annotations

import numpy as np

from repro.ivf.index import k_best
from repro.ivf.kmeans import pairwise_sq_l2


def exact_knn(
    base: np.ndarray, queries: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Brute-force top-``k``: ``(ids, dists)`` shape ``(Q, k)``, the ``k``
    best by ``(distance, id)``, in that order."""
    d2 = pairwise_sq_l2(
        np.asarray(queries, np.float32), np.asarray(base, np.float32)
    ).astype(np.float64)
    k, pos = min(k, base.shape[0]), np.arange(base.shape[0])
    ids = np.array([k_best(d, pos, k) for d in d2], np.int64).reshape(-1, k)
    return ids, np.take_along_axis(d2, ids, axis=1)


def recall_at_k(found_ids: np.ndarray, true_ids: np.ndarray) -> float:
    """Mean fraction of the true top-k recovered (Recall@k)."""
    hits = 0
    for f, t in zip(found_ids, true_ids):
        hits += len(set(f[f >= 0]) & set(t))
    return hits / float(true_ids.size)
