"""Partition plans (§4.2): grids, dim splits, cluster packing."""
import numpy as np
import pytest

from repro.core.partition import (
    PartitionPlan,
    grid_options,
    make_plan,
    pack_clusters,
    split_dims,
)


def test_split_dims_covers_range():
    b = split_dims(128, 4)
    assert b == ((0, 32), (32, 64), (64, 96), (96, 128))


def test_split_dims_uneven():
    b = split_dims(10, 3)
    assert b[0][0] == 0 and b[-1][1] == 10
    widths = [hi - lo for lo, hi in b]
    assert sum(widths) == 10
    assert max(widths) - min(widths) <= 1


@pytest.mark.parametrize("dim,bd", [(1, 1), (7, 7), (100, 1), (2709, 4)])
def test_split_dims_valid(dim, bd):
    b = split_dims(dim, bd)
    assert len(b) == bd
    prev = 0
    for lo, hi in b:
        assert lo == prev and hi > lo
        prev = hi
    assert prev == dim


@pytest.mark.parametrize("dim,bd", [(4, 5), (4, 0), (1, 2)])
def test_split_dims_rejects_bad(dim, bd):
    with pytest.raises(ValueError):
        split_dims(dim, bd)


def test_pack_clusters_balanced_lpt():
    w = np.array([10, 10, 10, 10, 1, 1, 1, 1], dtype=float)
    a = pack_clusters(w, 4)
    loads = np.zeros(4)
    for c, v in enumerate(a):
        loads[v] += w[c]
    # perfect LPT packing: each shard gets one heavy + one light
    np.testing.assert_allclose(loads, 11.0)


def test_pack_clusters_handles_skewed_weights():
    w = np.array([100, 1, 1, 1, 1, 1, 1, 1], dtype=float)
    a = pack_clusters(w, 4)
    loads = np.zeros(4)
    for c, v in enumerate(a):
        loads[v] += w[c]
    # the heavy cluster gets a shard nearly to itself
    assert loads.max() == 100


def test_pack_clusters_round_robin_when_unbalanced():
    a = pack_clusters(np.arange(8, dtype=float), 4, balanced=False)
    assert a == (0, 1, 2, 3, 0, 1, 2, 3)


def test_pack_clusters_deterministic():
    w = np.random.default_rng(0).random(20)
    assert pack_clusters(w, 3) == pack_clusters(w, 3)


def _plan(n=4, bv=2, bd=2, dim=16, nlist=8):
    return make_plan(n, bv, bd, dim, np.ones(nlist))


def test_make_plan_valid():
    p = _plan()
    assert (p.b_vec, p.b_dim) == (2, 2)
    assert p.dim_bounds[-1][1] == 16
    assert len(p.cluster_to_vblock) == 8


def test_plan_grid_mismatch_raises():
    with pytest.raises(ValueError, match="grid"):
        PartitionPlan(4, 3, 2, split_dims(8, 2), (0,))


@pytest.mark.parametrize("b_vec,b_dim", [(0, 1), (1, 0), (-1, -1)])
def test_plan_rejects_empty_grid_axis(b_vec, b_dim):
    with pytest.raises(ValueError, match="b_vec, b_dim >= 1"):
        PartitionPlan(b_vec * b_dim, b_vec, b_dim, ((0, 8),) * b_dim, (0,))


def test_plan_dim_bounds_mismatch_raises():
    with pytest.raises(ValueError, match="dim_bounds"):
        PartitionPlan(4, 2, 2, split_dims(8, 3), (0,))


def test_cell_node_bijection():
    p = _plan(6, 2, 3)
    seen = set()
    for v in range(2):
        for b in range(3):
            n = p.cell_node(v, b)
            assert 0 <= n < 6
            assert p.node_cell(n) == (v, b)
            seen.add(n)
    assert seen == set(range(6))


def test_widths_sum_to_dim():
    p = _plan(4, 1, 4, dim=10)
    assert p.widths.tolist() == [hi - lo for lo, hi in p.dim_bounds]
    assert p.widths.sum() == 10


def test_clusters_of_vblock_partition():
    p = _plan(4, 2, 2, nlist=10)
    all_c = np.concatenate([p.clusters_of_vblock(v) for v in range(2)])
    assert sorted(all_c) == list(range(10))


@pytest.mark.parametrize("n", [1, 2, 4, 6, 8, 16])
def test_grid_options_cover_divisors(n):
    opts = grid_options(n, dim=1024)
    assert (n, 1) in opts
    assert (1, n) in opts
    for bv, bd in opts:
        assert bv * bd == n


def test_grid_options_respect_dim():
    opts = grid_options(8, dim=2)
    assert all(bd <= 2 for _, bd in opts)


def test_plan_frozen():
    p = _plan()
    with pytest.raises(Exception):
        p.b_vec = 3
