"""Single-node IVF-Flat baseline — the paper's "Faiss" comparator (§6.1).

A from-scratch reimplementation of Faiss's ``IndexIVFFlat`` search path:
probe the ``nprobe`` nearest centroids, scan the probed inverted lists at
full dimensionality, keep the top-``k``. Shares the clustering with every
Harmony mode (same ``kmeans`` seed/algorithm), as the paper mandates for
fairness. Also the paper's model of Auncel (§6.5.4), which "uses a fixed
partitioning strategy similar to Harmony-vector" — i.e. this scan
sharded, without adaptivity.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.machine import MachineModel
from repro.ivf.index import (IVFIndex, check_search_args, k_best,
                             probe_clusters)
from repro.ivf.kmeans import sq_l2


@dataclass
class BaselineResult:
    """Top-K result plus the metered scalar-op count of the scan."""

    ids: np.ndarray
    dists: np.ndarray
    ops: float

    def simulated_seconds(self, model: MachineModel) -> float:
        """Single-node elapsed time: pure compute, no network."""
        return model.comp_time(self.ops)


def search_ivf_flat(
    index: IVFIndex, queries: np.ndarray, k: int, nprobe: int
) -> BaselineResult:
    """Exact top-``k`` over each query's ``nprobe`` nearest clusters, the
    ``k`` best by ``(distance, id)``.

    A bad ``queries``, ``k`` or ``nprobe`` raises ``ValueError``.
    """
    queries = check_search_args(queries, index.dim, k, nprobe)
    n_q = len(queries)
    probes = probe_clusters(index.centroids, queries, nprobe)
    ops = float(n_q * index.nlist * index.dim)  # centroid assignment
    out_ids = np.full((n_q, k), -1, dtype=np.int64)
    out_d = np.full((n_q, k), np.inf)
    for q in range(n_q):
        cand_ids, cand_d = [], []
        for c in probes[q]:
            mat = index.cluster_vectors[c]
            if not len(mat):
                continue
            cand_d.append(sq_l2(mat, queries[q]).astype(np.float64))
            cand_ids.append(index.cluster_ids[c])
            ops += mat.shape[0] * index.dim
        if not cand_ids:
            continue
        d = np.concatenate(cand_d)
        ids = np.concatenate(cand_ids)
        sel = k_best(d, ids, k)
        out_ids[q, :len(sel)] = ids[sel]
        out_d[q, :len(sel)] = d[sel]
    return BaselineResult(out_ids, out_d, ops)
