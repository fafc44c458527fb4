"""IVF index substrate: build, assign, probe, memory accounting."""
import numpy as np
import pytest

from repro.ivf.index import (
    IVFIndex,
    assign_clusters,
    build_ivf,
    check_search_args,
    probe_clusters,
)
from repro.vectors.generate import base_numpy, queries_numpy
from repro.vectors.specs import get_spec

SPEC = get_spec("sift1m")


@pytest.fixture(scope="module")
def data():
    return base_numpy(SPEC, 0.0005), queries_numpy(SPEC, 0.0005)[:8]


@pytest.fixture(scope="module")
def index(data):
    return build_ivf(data[0], 8)


def test_build_partitions_all_vectors(index, data):
    assert index.n == len(data[0])
    all_ids = np.concatenate(index.cluster_ids)
    assert sorted(all_ids) == list(range(len(data[0])))


def test_ids_and_vectors_aligned(index, data):
    x = data[0]
    for ids, vecs in zip(index.cluster_ids, index.cluster_vectors):
        np.testing.assert_array_equal(vecs, x[ids])


def test_assignment_is_nearest_centroid(index, data):
    x = data[0]
    assign = assign_clusters(index.centroids, x)
    for c, ids in enumerate(index.cluster_ids):
        assert np.all(assign[ids] == c)


def test_properties(index):
    assert index.nlist == 8
    assert index.dim == SPEC.dim
    assert index.cluster_sizes().sum() == index.n


def test_memory_bytes_counts_everything(index):
    want = index.centroids.nbytes + sum(
        i.nbytes + v.nbytes
        for i, v in zip(index.cluster_ids, index.cluster_vectors)
    )
    assert index.memory_bytes() == want
    # dominated by raw vectors: n*dim*4 bytes
    assert index.memory_bytes() >= index.n * index.dim * 4


def test_probe_clusters_shape(index, data):
    p = probe_clusters(index.centroids, data[1], 3)
    assert p.shape == (len(data[1]), 3)
    assert p.dtype == np.int64


def test_probe_clusters_nearest_first(index, data):
    from repro.ivf.kmeans import pairwise_sq_l2

    q = data[1]
    p = probe_clusters(index.centroids, q, 4)
    d = pairwise_sq_l2(q, index.centroids)
    for i in range(len(q)):
        row = d[i, p[i]]
        assert np.all(np.diff(row) >= -1e-5)  # ascending
        assert p[i, 0] == d[i].argmin()


def test_probe_clusters_clamps_nprobe(index, data):
    p = probe_clusters(index.centroids, data[1], 99)
    assert p.shape[1] == index.nlist
    for row in p:
        assert sorted(row) == list(range(index.nlist))


def test_probe_rows_distinct(index, data):
    p = probe_clusters(index.centroids, data[1], 5)
    for row in p:
        assert len(set(row)) == 5


def test_build_deterministic(data):
    a = build_ivf(data[0], 8, seed=1)
    b = build_ivf(data[0], 8, seed=1)
    np.testing.assert_array_equal(a.centroids, b.centroids)


def test_empty_cluster_tolerated():
    # Fewer points than requested lists — index still valid.
    x = np.random.default_rng(0).standard_normal((5, 4)).astype(np.float32)
    idx = build_ivf(x, 8)
    assert idx.n == 5
    assert idx.nlist <= 8


def test_ivfindex_dataclass_roundtrip(index):
    clone = IVFIndex(index.centroids, index.cluster_ids,
                     index.cluster_vectors)
    assert clone.memory_bytes() == index.memory_bytes()


def test_search_args_take_numpy_ints_not_bools(data):
    q = data[1]
    out = check_search_args(q, SPEC.dim, np.int64(3), np.int32(2))
    np.testing.assert_array_equal(out, q)
    for name in ("k", "nprobe"):
        args = {"k": 3, "nprobe": 2, name: True}
        with pytest.raises(ValueError, match=rf"\b{name}\b"):
            check_search_args(q, SPEC.dim, **args)
