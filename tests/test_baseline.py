"""Single-node baselines: faiss_lite IVF-Flat and exact KNN."""
import numpy as np
import pytest

from repro.baseline.exact import exact_knn, recall_at_k
from repro.baseline.faiss_lite import search_ivf_flat
from repro.cluster.machine import MachineModel
from repro.ivf.index import build_ivf
from repro.vectors.generate import base_numpy, queries_numpy
from repro.vectors.specs import get_spec
from tests.conftest import BAD_SEARCH_CASES, bad_search_kwargs

SPEC = get_spec("sift1m")


@pytest.fixture(scope="module")
def setup():
    x = base_numpy(SPEC, 0.0005)
    q = queries_numpy(SPEC, 0.0005)[:10]
    return x, q, build_ivf(x, 8)


def test_exact_knn_matches_naive(setup):
    x, q, _ = setup
    ids, dists = exact_knn(x, q, 3)
    for i in range(len(q)):
        d = ((x - q[i]) ** 2).sum(1)
        want = np.sort(d)[:3]
        np.testing.assert_allclose(dists[i], want, rtol=1e-3)


def test_exact_knn_sorted(setup):
    x, q, _ = setup
    _, dists = exact_knn(x, q, 5)
    assert np.all(np.diff(dists, axis=1) >= -1e-9)


def test_exact_knn_k_clamped():
    x = np.random.default_rng(0).standard_normal((3, 4)).astype(np.float32)
    ids, dists = exact_knn(x, x[:1], 10)
    assert ids.shape == (1, 3)


def test_recall_at_k_bounds():
    a = np.array([[1, 2, 3]])
    assert recall_at_k(a, np.array([[1, 2, 3]])) == 1.0
    assert recall_at_k(a, np.array([[4, 5, 6]])) == 0.0
    assert recall_at_k(a, np.array([[1, 5, 6]])) == pytest.approx(1 / 3)


def test_recall_ignores_padding():
    found = np.array([[1, -1, -1]])
    assert recall_at_k(found, np.array([[1, 2, 3]])) == pytest.approx(1 / 3)


def test_full_probe_equals_exact(setup):
    x, q, ivf = setup
    res = search_ivf_flat(ivf, q, k=5, nprobe=ivf.nlist)
    tids, tdists = exact_knn(x, q, 5)
    np.testing.assert_array_equal(res.ids, tids)
    np.testing.assert_array_equal(res.dists, tdists)


def test_partial_probe_distances_sorted(setup):
    _, q, ivf = setup
    res = search_ivf_flat(ivf, q, k=5, nprobe=2)
    assert np.all(np.diff(res.dists, axis=1) >= -1e-9)


def test_recall_improves_with_nprobe(setup):
    x, q, ivf = setup
    tids, _ = exact_knn(x, q, 5)
    r = [recall_at_k(search_ivf_flat(ivf, q, 5, np_).ids, tids)
         for np_ in (1, 4, ivf.nlist)]
    assert r[0] <= r[1] <= r[2]
    assert r[-1] > 0.99


def test_ops_metering(setup):
    _, q, ivf = setup
    res = search_ivf_flat(ivf, q, k=5, nprobe=ivf.nlist)
    # full probe scans every vector once + centroid assignment
    want = len(q) * (ivf.n * ivf.dim + ivf.nlist * ivf.dim)
    assert res.ops == pytest.approx(want)


def test_ops_grow_with_nprobe(setup):
    _, q, ivf = setup
    o1 = search_ivf_flat(ivf, q, 5, 1).ops
    o4 = search_ivf_flat(ivf, q, 5, 4).ops
    assert o4 > o1


def test_simulated_seconds(setup):
    _, q, ivf = setup
    res = search_ivf_flat(ivf, q, 5, 2)
    m = MachineModel(ops_per_sec=1e9)
    assert res.simulated_seconds(m) == pytest.approx(res.ops / 1e9)


def test_result_ids_within_probed_clusters(setup):
    _, q, ivf = setup
    from repro.ivf.index import probe_clusters

    res = search_ivf_flat(ivf, q, 5, 2)
    probes = probe_clusters(ivf.centroids, q, 2)
    for i in range(len(q)):
        allowed = set(
            np.concatenate([ivf.cluster_ids[c] for c in probes[i]])
        )
        assert set(res.ids[i][res.ids[i] >= 0]) <= allowed


@pytest.mark.parametrize("case", BAD_SEARCH_CASES)
def test_search_ivf_flat_rejects_bad_input(setup, case):
    _, q, ivf = setup
    kwargs, name = bad_search_kwargs(q, case)
    args = {"queries": q, "k": 3, "nprobe": 2, **kwargs}
    with pytest.raises(ValueError, match=rf"\b{name}\b"):
        search_ivf_flat(ivf, **args)


def test_ties_cut_by_id():
    # Duplicated small-integer rows tie exactly in every summation order;
    # both baselines keep the k best by (distance, id), as TopK does.
    rng = np.random.default_rng(0)
    x = np.repeat(rng.integers(0, 3, (40, 8)), 4, axis=0)
    x = x[rng.permutation(len(x))].astype(np.float32)
    q = rng.integers(0, 3, (20, 8)).astype(np.float32)
    d = ((q[:, None] - x[None]) ** 2).sum(-1)
    want = np.argsort(d, axis=1, kind="stable")[:, :10]
    np.testing.assert_array_equal(exact_knn(x, q, 10)[0], want)
    res = search_ivf_flat(build_ivf(x, 4), q, k=10, nprobe=4)
    np.testing.assert_array_equal(res.ids, want)
