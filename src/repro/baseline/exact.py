"""Exhaustive exact KNN — ground truth for recall measurements."""
from __future__ import annotations

import numpy as np

from repro.ivf.index import k_best
from repro.ivf.kmeans import sq_l2


def exact_knn(
    base: np.ndarray, queries: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Brute-force top-``k``: ``(ids, dists)`` shape ``(Q, k)``, the ``k``
    best by ``(distance, id)``, in that order. Distances are summed from
    the differences one query at a time, as ``faiss_lite`` sums them."""
    base = np.asarray(base, np.float32)
    k, pos = min(k, base.shape[0]), np.arange(base.shape[0])
    ids = np.empty((len(queries), k), np.int64)
    dists = np.empty((len(queries), k))
    for i, q in enumerate(np.asarray(queries, np.float32)):
        d = sq_l2(base, q).astype(np.float64)
        ids[i] = k_best(d, pos, k)
        dists[i] = d[ids[i]]
    return ids, dists


def recall_at_k(found_ids: np.ndarray, true_ids: np.ndarray) -> float:
    """Mean fraction of the true top-k recovered (Recall@k)."""
    hits = 0
    for f, t in zip(found_ids, true_ids):
        hits += len(set(f[f >= 0]) & set(t))
    return hits / float(true_ids.size)
