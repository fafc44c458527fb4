"""Seeded k-means for IVF training (the paper's "Train" stage, Fig. 10).

All methods in the paper's evaluation share one clustering ("all methods
adopt the same clustering algorithm and number of clusters as Faiss",
§6.1), so this module is the single source of centroids for faiss_lite and
every Harmony mode. Deterministic in ``seed``; trains on a capped sample
like Faiss does.
"""
from __future__ import annotations

import ctypes
import functools

import numpy as np

#: Max training points — Faiss-style sampling cap (per-centroid budget).
_TRAIN_CAP_PER_CENTROID = 256


def _kpp_init(x: np.ndarray, k: int, g: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: spread initial centroids by D² sampling."""
    n = x.shape[0]
    centroids = np.empty((k, x.shape[1]), dtype=np.float32)
    centroids[0] = x[g.integers(n)]
    d2 = ((x - centroids[0]) ** 2).sum(axis=1)
    for i in range(1, k):
        tot = d2.sum()
        if tot <= 0:  # all points identical to chosen centroids
            centroids[i] = x[g.integers(n)]
            continue
        centroids[i] = x[g.choice(n, p=d2 / tot)]
        d2 = np.minimum(d2, ((x - centroids[i]) ** 2).sum(axis=1))
    return centroids


#: OpenBLAS's thread-count setter, by build: numpy 1.x wheels, numpy 2.x
#: wheels (scipy-openblas), and a plain system library.
_OPENBLAS_SETTERS = (
    "openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads64_",
    "openblas_set_num_threads",
)


def loaded_openblas() -> list[tuple[ctypes.CDLL, str]]:
    """``(library, setter name)`` for each OpenBLAS mapped into this
    process (read from ``/proc/self/maps``); empty where none is loaded
    or the platform has no ``/proc``."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split(maxsplit=5)[5].rstrip("\n")
                     for line in maps if "openblas" in line}
    except OSError:
        return []
    found = []
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        name = next((n for n in _OPENBLAS_SETTERS if hasattr(lib, n)), None)
        if name is not None:
            found.append((lib, name))
    return found


@functools.cache
def _one_blas_thread() -> None:
    """Set every loaded OpenBLAS to one thread, once per process."""
    for lib, name in loaded_openblas():
        setter = getattr(lib, name)
        setter.argtypes, setter.restype = [ctypes.c_int], None
        setter(1)


def pairwise_sq_l2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared L2 distances, shape ``(len(a), len(b))`` (BLAS-backed).

    This is the one BLAS product in ``src/``. Before it, numpy's OpenBLAS
    is set to one thread, once: a multi-threaded product leaves its helper
    threads spinning on cores the Spark tasks need, and rounds differently
    with the thread count, so centroids and probes would depend on the
    host's CPU count. The setting is process-wide: from the first call on,
    every BLAS call in the process, in the driver or a Spark worker, runs
    on one thread."""
    _one_blas_thread()
    a = np.ascontiguousarray(a, dtype=np.float32)
    b = np.ascontiguousarray(b, dtype=np.float32)
    d2 = (
        (a * a).sum(axis=1)[:, None]
        + (b * b).sum(axis=1)[None, :]
        - 2.0 * (a @ b.T)
    )
    np.maximum(d2, 0.0, out=d2)
    return d2


def sq_l2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared L2 distances of the rows of ``a`` to ``b`` (one row, or one
    row per row of ``a``), float32, summed from the differences.

    Every search and its ground truth use this one rule. The BLAS form of
    :func:`pairwise_sq_l2`, ``|a|² + |b|² - 2a·b``, rounds differently (it
    cancels when rows are close), so it would change the distances, the
    engine's pruning decisions and metering, and the exact comparisons
    with the baselines. Squaring in place saves the scan's chunk loop an
    allocation (the same products, so the same sums)."""
    diff = a - b
    diff *= diff
    return diff.sum(axis=1)


def kmeans(
    x: np.ndarray, k: int, seed: int = 0, n_iter: int = 15
) -> np.ndarray:
    """Lloyd's algorithm with k-means++ init; returns ``(k, dim)`` float32.

    ``k`` is clamped to ``len(x)``. Empty clusters are re-seeded from the
    farthest points so exactly ``k`` non-degenerate centroids come back.
    """
    x = np.ascontiguousarray(x, dtype=np.float32)
    k = min(k, len(x))
    g = np.random.default_rng(seed)
    train = x
    cap = _TRAIN_CAP_PER_CENTROID * k
    if len(x) > cap:
        train = x[g.choice(len(x), size=cap, replace=False)]
    c = _kpp_init(train, k, g)
    for _ in range(n_iter):
        d2 = pairwise_sq_l2(train, c)
        assign = d2.argmin(axis=1)
        new_c = c.copy()
        for j in range(k):
            members = train[assign == j]
            if len(members):
                new_c[j] = members.mean(axis=0)
            else:  # re-seed empty cluster at the current farthest point
                new_c[j] = train[d2.min(axis=1).argmax()]
        if np.allclose(new_c, c, atol=1e-6):
            c = new_c
            break
        c = new_c
    return c.astype(np.float32)
