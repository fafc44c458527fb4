"""Distributed layout: custom partitioner placement, storage accounting."""
import numpy as np
import pytest

from repro.cluster.layout import (ACCUM_BYTES_PER_VECTOR, DistributedIndex,
                                  shard_rows, train_centroids)
from repro.core.partition import make_plan
from repro.ivf import index
from repro.ivf.kmeans import kmeans
from tests.conftest import TEST_NLIST


def _cells(searcher):
    """Collect (partition_index, CellStore) pairs from the index RDD."""
    return searcher.di.rdd.mapPartitionsWithIndex(
        lambda i, it: [(i, c) for c in it]
    ).collect()


@pytest.mark.parametrize("mode", ["harmony", "vector", "dimension"])
def test_cells_on_prescribed_nodes(built, mode):
    # The custom partitioner must place cell (v, b) exactly on partition
    # plan.cell_node(v, b) — partition i IS simulated node i.
    s = built[mode]
    plan = s.di.plan
    for part_idx, cell in _cells(s):
        assert part_idx == plan.cell_node(cell.vblock, cell.dimblock)


@pytest.mark.parametrize("mode", ["harmony", "vector", "dimension"])
def test_one_cell_per_node(built, mode):
    s = built[mode]
    cells = _cells(s)
    assert len(cells) == s.di.plan.n_nodes
    assert len({(c.vblock, c.dimblock) for _, c in cells}) == len(cells)


def test_no_replication_total_bytes(built, ds):
    # §4.3 space complexity: the distributed cells together hold exactly
    # NB x D floats — no duplication.
    for mode in ("harmony", "vector", "dimension"):
        s = built[mode]
        total = float(s.di.node_index_bytes.sum())
        assert total == pytest.approx(len(ds["x"]) * ds["spec"].dim * 4)


def test_cell_rows_are_id_sorted_slices(built, ds):
    # Worker rows must align with the driver routing table: a cell of
    # shard v holds the vectors ids[base[v]:base[v] + n_v] restricted to
    # its dimension block, cluster c at rows row0[c]:row0[c] + size_c in
    # id order (shard_rows), for every mode.
    x = ds["x"]
    for mode in ("harmony", "vector", "dimension"):
        di = built[mode].di
        row0, base, ids = shard_rows(di.plan, di.cluster_ids)
        for _, cell in _cells(built[mode]):
            lo, hi = di.plan.dim_bounds[cell.dimblock]
            clusters = di.plan.clusters_of_vblock(cell.vblock)
            n_v = sum(len(di.cluster_ids[c]) for c in clusters)
            shard = ids[base[cell.vblock]:base[cell.vblock] + n_v]
            np.testing.assert_array_equal(cell.mat, x[shard, lo:hi])
            for c in clusters:
                rows = cell.mat[row0[c]:row0[c] + len(di.cluster_ids[c])]
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
                          [np.arange(n) for n in sizes], {}, None,
                          np.zeros(4))
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
