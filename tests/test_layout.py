"""Distributed layout: custom partitioner placement, storage accounting."""
from dataclasses import replace

import numpy as np
import pytest

from repro.cluster.layout import (ACCUM_BYTES_PER_VECTOR, DistributedIndex,
                                  distribute, shard_rows, train_centroids)
from repro.core.engine import HarmonyEngine
from repro.core.partition import make_plan
from repro.ivf import index
from repro.ivf.kmeans import kmeans
from tests.conftest import (TEST_K, TEST_NLIST, TEST_NPROBE,
                            assert_same_distances)


def _cells(di):
    """``[(partition index, matrix)]`` for every matrix of the index RDD."""
    return di.rdd.mapPartitionsWithIndex(
        lambda i, it: [(i, mat) for mat in it]
    ).collect()


#: The three built modes and the 2x2 ``hybrid`` fixture's grid.
LAYOUTS = ["harmony", "vector", "dimension", "hybrid"]


def _index(built, hybrid, mode):
    return hybrid if mode == "hybrid" else built[mode].di


@pytest.mark.parametrize("mode", LAYOUTS)
def test_cells_on_prescribed_nodes(built, hybrid, ds, mode):
    # The custom partitioner must place cell (v, b) exactly on partition
    # plan.cell_node(v, b) — partition n IS simulated node n, and holds
    # the rows of shard v restricted to block b, in shard_rows order.
    di = _index(built, hybrid, mode)
    _, base, ids = di.shard_rows()
    ends = np.append(base[1:], len(ids))
    for n, mat in _cells(di):
        v, b = di.plan.node_cell(n)
        lo, hi = di.plan.dim_bounds[b]
        shard = ids[base[v]:ends[v]]
        np.testing.assert_array_equal(mat, ds["x"][shard, lo:hi])


@pytest.mark.parametrize("mode", LAYOUTS)
def test_one_cell_per_node(built, hybrid, mode):
    di = _index(built, hybrid, mode)
    assert [n for n, _ in _cells(di)] == list(range(di.plan.n_nodes))


@pytest.mark.parametrize("mode", LAYOUTS)
def test_index_bytes_are_cell_bytes(built, hybrid, mode):
    # node_index_bytes is derived from the routing table; it must be the
    # bytes partition n actually holds.
    di = _index(built, hybrid, mode)
    held = np.zeros(di.plan.n_nodes)
    for n, mat in _cells(di):
        held[n] = mat.nbytes
    np.testing.assert_array_equal(di.node_index_bytes, held)


def test_empty_shard_holds_empty_cells(ds, baseline_ref):
    # Shard 1 of this 2x2 grid holds no cluster: the nodes of its cells
    # still hold one (0, width) matrix each, and searches pass over them.
    ivf = ds["ivf"]
    plan = replace(make_plan(4, 2, 2, ivf.dim, ivf.cluster_sizes()),
                   cluster_to_vblock=(0,) * ivf.nlist)
    di = distribute(ds["df"], plan, ivf.centroids, ivf.cluster_ids, 8)
    try:
        shapes = {n: mat.shape for n, mat in _cells(di)}
        res = HarmonyEngine(di).search(ds["q"], k=TEST_K, nprobe=TEST_NPROBE)
    finally:
        di.unpersist()
    for b in range(plan.b_dim):
        assert shapes[plan.cell_node(1, b)] == (0, plan.widths[b])
    assert_same_distances(res.dists, baseline_ref.dists)


def test_no_replication_total_bytes(built, ds):
    # §4.3 space complexity: the distributed cells together hold exactly
    # NB x D floats — no duplication.
    for mode in ("harmony", "vector", "dimension"):
        s = built[mode]
        total = float(s.di.node_index_bytes.sum())
        assert total == pytest.approx(len(ds["x"]) * ds["spec"].dim * 4)


def test_cell_rows_are_id_sorted_slices(built, ds):
    # Worker rows must align with the driver routing table: in a cell of
    # shard v, cluster c is rows row0[c]:row0[c] + size_c in id order
    # (shard_rows), for every mode.
    x = ds["x"]
    for mode in ("harmony", "vector", "dimension"):
        di = built[mode].di
        row0, _, _ = shard_rows(di.plan, di.cluster_ids)
        for n, mat in _cells(di):
            v, b = di.plan.node_cell(n)
            lo, hi = di.plan.dim_bounds[b]
            for c in di.plan.clusters_of_vblock(v):
                rows = mat[row0[c]:row0[c] + len(di.cluster_ids[c])]
                np.testing.assert_array_equal(rows,
                                              x[di.cluster_ids[c], lo:hi])


def test_cluster_ids_cover_dataset(built, ds):
    s = built["harmony"]
    all_ids = np.concatenate(s.di.cluster_ids)
    assert sorted(all_ids) == list(range(len(ds["x"])))


def test_cluster_assignment_matches_driver_ivf(built, ds):
    # Spark-side "Add" stage must agree with the driver-side IVF build
    # (same centroids → same assignment).
    s = built["harmony"]
    ivf = ds["ivf"]
    np.testing.assert_array_equal(s.di.centroids, ivf.centroids)
    for c in range(TEST_NLIST):
        np.testing.assert_array_equal(
            s.di.cluster_ids[c], ivf.cluster_ids[c]
        )


def test_prewarm_rows_are_cluster_prefixes(built, ds):
    # Every non-empty cluster has its first min(8, size) rows at full
    # dimensionality (8 = prewarm_per_cluster in conftest); a short
    # cluster's head must not run into the next cluster's rows.
    x = ds["x"]
    for mode in ("harmony", "vector", "dimension"):
        di = built[mode].di
        heads = {c: ids[:8] for c, ids in enumerate(di.cluster_ids)
                 if len(ids)}
        assert min(len(ids) for ids in di.cluster_ids) < 8
        assert di.prewarm_rows.keys() == heads.keys()
        for c, ids in heads.items():
            np.testing.assert_array_equal(di.prewarm_rows[c], x[ids])


def test_train_sample_cap_is_one_rule(ds, monkeypatch):
    # With a cap below the 800-row corpus, the Spark and the numpy builds
    # train on the same id prefix, and the cap changes the clustering.
    monkeypatch.setattr(index, "TRAIN_SAMPLE_CAP", 500)
    want = index.build_ivf(ds["x"], TEST_NLIST).centroids
    np.testing.assert_array_equal(train_centroids(ds["df"], TEST_NLIST),
                                  want)
    assert not np.array_equal(want, kmeans(ds["x"], TEST_NLIST))


def test_accumulator_bytes_only_for_dim_partitioned(built):
    assert built["vector"].di.node_accumulator_bytes().sum() == 0
    dim_acc = built["dimension"].di.node_accumulator_bytes()
    assert np.all(dim_acc > 0)


def test_accumulator_bytes_count_shard_vectors():
    # A 2x2 grid: every node of shard v pre-allocates one accumulator
    # slot per vector of v (the per-cluster loop is the reference).
    sizes = np.array([5, 0, 7, 3, 2])
    plan = make_plan(4, 2, 2, 8, sizes)
    di = DistributedIndex(plan, np.zeros((5, 8)),
                          [np.arange(n) for n in sizes], {}, None)
    want = np.zeros(4)
    for c, v in enumerate(plan.cluster_to_vblock):
        for b in range(plan.b_dim):
            want[plan.cell_node(v, b)] += ACCUM_BYTES_PER_VECTOR * sizes[c]
    np.testing.assert_array_equal(di.node_accumulator_bytes(), want)


def test_node_memory_is_index_plus_accumulators(built):
    s = built["dimension"]
    np.testing.assert_allclose(
        s.di.node_memory_bytes(),
        s.di.node_index_bytes + s.di.node_accumulator_bytes(),
    )


def test_dimension_split_balances_bytes(built):
    # Pure dimension partitioning stores the same rows everywhere, so
    # per-node bytes differ only via uneven dim-block widths.
    s = built["dimension"]
    b = s.di.node_index_bytes
    assert b.max() / b.min() < 1.2


def test_build_seconds_recorded(built):
    for mode in ("harmony", "vector", "dimension"):
        bs = built[mode].di.build_seconds
        assert set(bs) == {"train", "add", "preassign"}
        assert all(v >= 0 for v in bs.values())
        assert bs["preassign"] > 0
