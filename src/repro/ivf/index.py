"""IVF (inverted-file) index substrate — cluster-based ANNS as in Faiss.

The paper's Harmony and its baselines are all cluster-based engines: train
``nlist`` centroids, assign every base vector to its nearest centroid
("Add" stage), then search by probing the ``nprobe`` nearest clusters per
query. This module implements that substrate on the driver (numpy); the
distributed layout in :mod:`repro.cluster.layout` shards a built
``IVFIndex`` across simulated nodes.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.ivf.kmeans import kmeans, pairwise_sq_l2

#: Centroids are trained on the vectors with ``id < TRAIN_SAMPLE_CAP``: an
#: id prefix, so the numpy and the Spark builds train on the same sample.
TRAIN_SAMPLE_CAP = 65_536


@dataclass
class IVFIndex:
    """A trained, populated IVF-Flat index.

    * ``centroids`` — ``(nlist, dim)`` float32.
    * ``cluster_ids[c]`` — int64 base-vector ids in cluster ``c``.
    * ``cluster_vectors[c]`` — ``(len(cluster_ids[c]), dim)`` float32 rows,
      aligned with ``cluster_ids[c]``.
    """

    centroids: np.ndarray
    cluster_ids: list[np.ndarray] = field(repr=False)
    cluster_vectors: list[np.ndarray] = field(repr=False)

    @property
    def nlist(self) -> int:
        """Number of inverted lists (clusters)."""
        return len(self.centroids)

    @property
    def dim(self) -> int:
        """Vector dimensionality."""
        return self.centroids.shape[1]

    @property
    def n(self) -> int:
        """Total number of indexed base vectors."""
        return int(sum(len(ids) for ids in self.cluster_ids))

    def cluster_sizes(self) -> np.ndarray:
        """Per-cluster vector counts, shape ``(nlist,)``."""
        return np.array([len(ids) for ids in self.cluster_ids])

    def memory_bytes(self) -> int:
        """Bytes held by the index: centroids + ids + raw vectors.

        This is the single-node ("Faiss") memory figure of paper Table 4.
        """
        total = self.centroids.nbytes
        for ids, vecs in zip(self.cluster_ids, self.cluster_vectors):
            total += ids.nbytes + vecs.nbytes
        return total


def build_ivf(x: np.ndarray, nlist: int, seed: int = 0) -> IVFIndex:
    """Train centroids on the first ``TRAIN_SAMPLE_CAP`` rows of ``x``
    (row ``i`` is vector id ``i``) and populate the inverted lists."""
    x = np.ascontiguousarray(x, dtype=np.float32)
    centroids = kmeans(x[:TRAIN_SAMPLE_CAP], nlist, seed=seed)
    assign = assign_clusters(centroids, x)
    ids = np.arange(len(x), dtype=np.int64)
    cluster_ids, cluster_vectors = [], []
    for c in range(len(centroids)):
        m = assign == c
        cluster_ids.append(ids[m])
        cluster_vectors.append(np.ascontiguousarray(x[m]))
    return IVFIndex(centroids, cluster_ids, cluster_vectors)


def assign_clusters(centroids: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Nearest-centroid id for each row of ``x`` (the "Add" stage)."""
    out = np.empty(len(x), dtype=np.int64)
    # Chunked so billion-lite scales don't materialize a huge d2 matrix.
    step = max(1, int(2e7) // max(1, len(centroids)))
    for s in range(0, len(x), step):
        out[s : s + step] = pairwise_sq_l2(x[s : s + step], centroids).argmin(
            axis=1
        )
    return out


def check_count(name: str, n, least: int = 1) -> None:
    """Raise ``ValueError`` naming ``name`` unless ``n`` is a Python or
    numpy integer (not a bool) of at least ``least``."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {n!r}")
    if n < least:
        raise ValueError(f"{name} must be at least {least}, got {n}")


def check_search_args(
    queries: np.ndarray, dim: int, k: int, nprobe: int
) -> np.ndarray:
    """``queries`` as a C-contiguous float32 ``(Q, dim)`` array, after
    checking every search argument (``k`` and ``nprobe`` with
    :func:`check_count`); a bad one raises ``ValueError`` naming it."""
    check_count("k", k)
    check_count("nprobe", nprobe)
    queries = np.ascontiguousarray(queries, dtype=np.float32)
    if queries.ndim != 2:
        raise ValueError(
            f"queries must be a 2-D (n_queries, {dim}) array, got shape "
            f"{queries.shape}"
        )
    if queries.shape[1] != dim:
        raise ValueError(
            f"queries have dimension {queries.shape[1]}; the index has "
            f"{dim}"
        )
    if not np.isfinite(queries).all():
        raise ValueError("queries contain NaN or inf values")
    return queries


def k_best(dists: np.ndarray, ids: np.ndarray, k: int) -> np.ndarray:
    """Positions of the ``k`` smallest ``(dists, ids)`` pairs, best first:
    distance ties are cut by id, as :class:`~repro.core.pruning.TopK`
    cuts them."""
    k = min(k, len(dists))
    near = np.flatnonzero(dists <= np.partition(dists, k - 1)[k - 1])
    return near[np.lexsort((ids[near], dists[near]))[:k]]


def probe_clusters(
    centroids: np.ndarray, queries: np.ndarray, nprobe: int
) -> np.ndarray:
    """Per-query ids of the ``nprobe`` nearest clusters, shape ``(Q, nprobe)``.

    This is the client-side "centroid assignment" step of §4.2.2 — common
    to Faiss and every Harmony mode.
    """
    nprobe = min(nprobe, len(centroids))
    d2 = pairwise_sq_l2(queries, centroids)
    part = np.argpartition(d2, nprobe - 1, axis=1)[:, :nprobe]
    # Order probed clusters nearest-first (matters for prewarm quality).
    rows = np.arange(len(queries))[:, None]
    order = np.argsort(d2[rows, part], axis=1)
    return part[rows, order].astype(np.int64)
