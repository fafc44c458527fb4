"""Query routing + dimension-order scheduling (§4.2.2, §4.3)."""
import numpy as np
import pytest

from repro.core.partition import make_plan
from repro.core.router import (
    POLICIES,
    assign_query_groups,
    dim_order,
    queries_per_vblock,
)


def _plan(bv=2, bd=2, nlist=6):
    return make_plan(bv * bd, bv, bd, 16, np.ones(nlist))


def test_queries_per_vblock_maps_all_probes():
    plan = _plan()
    probes = np.array([[0, 1, 2], [3, 4, 5]])
    shard = queries_per_vblock(plan, probes)
    assert shard.shape == probes.shape
    assert set(shard.ravel()) <= set(range(plan.b_vec))


def test_queries_per_vblock_respects_mapping():
    plan = _plan()
    c2v = np.asarray(plan.cluster_to_vblock)
    probes = np.array([[0, 1, 2, 3, 4, 5], [5, 3, 1, 0, 2, 4]])
    np.testing.assert_array_equal(queries_per_vblock(plan, probes),
                                  c2v[probes])


def test_queries_per_vblock_absent_query_omitted():
    # A query whose probes all lie in shard 0 has no probe in shard 1.
    plan = _plan(bv=2, bd=1, nlist=4)
    c2v = np.asarray(plan.cluster_to_vblock)
    only_v0 = np.nonzero(c2v == 0)[0][:1]
    shard = queries_per_vblock(plan, np.array([only_v0]))
    assert (shard[0] == 0).all()


def test_assign_query_groups_round_robin():
    g = assign_query_groups(6, 3)
    np.testing.assert_array_equal(g, [0, 1, 2, 0, 1, 2])


def test_assign_query_groups_single_shard():
    np.testing.assert_array_equal(assign_query_groups(4, 1), [0, 0, 0, 0])


def test_dim_order_static():
    assert dim_order("static", 5, 4).tolist() == [0, 1, 2, 3]


@pytest.mark.parametrize("q", range(6))
def test_dim_order_rotate_is_rotation(q):
    o = dim_order("rotate", q, 4).tolist()
    assert sorted(o) == [0, 1, 2, 3]
    assert o[0] == q % 4
    # consecutive blocks follow cyclically
    for i in range(3):
        assert o[i + 1] == (o[i] + 1) % 4


def test_dim_order_rotate_staggers_queries():
    firsts = {dim_order("rotate", q, 4)[0] for q in range(4)}
    assert firsts == {0, 1, 2, 3}  # all nodes busy in stage 0


def test_dim_order_load_aware_defers_hot_node():
    loads = np.array([100.0, 0.0, 0.0, 0.0])  # block 0's node overloaded
    o = dim_order("load_aware", 0, 4, loads).tolist()
    assert o[-1] == 0  # most-loaded node's block goes last (§4.3)


def test_dim_order_load_aware_is_permutation():
    loads = np.array([3.0, 1.0, 2.0])
    for q in range(5):
        assert sorted(dim_order("load_aware", q, 3, loads)) == [0, 1, 2]


def test_dim_order_load_aware_ties_stagger():
    firsts = {dim_order("load_aware", q, 4, np.zeros(4))[0]
              for q in range(4)}
    assert len(firsts) > 1


def test_dim_order_single_block():
    for pol in POLICIES:
        assert dim_order(pol, 3, 1).tolist() == [0]


def test_dim_order_unknown_policy():
    with pytest.raises(ValueError, match="unknown schedule"):
        dim_order("chaotic", 0, 4)
