"""Cost model (§4.2.1): C(π,Q), Load, I(π), plan selection."""
import numpy as np
import pytest

from repro.cluster.machine import MachineModel
from repro.core.cost_model import (
    CostParams,
    QueryProfile,
    choose_plan,
    expected_keep_fraction,
    plan_cost,
)
from repro.core.partition import make_plan
from repro.ivf.index import build_ivf
from repro.vectors.generate import base_numpy, queries_numpy
from repro.vectors.specs import get_spec

NLIST, DIM, NQ, NPROBE, K = 8, 16, 20, 3, 5


def _uniform_profile(sizes=None):
    sizes = np.full(NLIST, 100.0) if sizes is None else sizes
    return QueryProfile.uniform(NLIST, DIM, sizes, NQ, NPROBE, K)


def _skewed_profile(hot=0):
    counts = np.full(NLIST, 1.0)
    counts[hot] = NQ * NPROBE  # one scorching cluster
    return QueryProfile(DIM, K, counts, np.full(NLIST, 100.0))


def _plan(bv, bd, weights=None):
    w = np.ones(NLIST) if weights is None else weights
    return make_plan(bv * bd, bv, bd, DIM, w)


def test_uniform_profile_fields():
    p = _uniform_profile()
    assert p.probe_counts.sum() == pytest.approx(NQ * NPROBE)
    assert len(p.cluster_sizes) == NLIST


def test_profile_from_queries_counts_probes():
    spec = get_spec("sift1m")
    x = base_numpy(spec, 0.0003)
    q = queries_numpy(spec, 0.0003)[:10]
    ivf = build_ivf(x, NLIST)
    prof = QueryProfile.from_queries(
        ivf.centroids, ivf.cluster_sizes(), q, NPROBE, K
    )
    assert prof.probe_counts.sum() == 10 * NPROBE
    assert prof.dim == spec.dim


def test_expected_keep_fraction_monotone():
    prior = 0.6
    keeps = [expected_keep_fraction(b, prior) for b in (1, 2, 4, 8)]
    assert keeps[0] == 1.0
    assert all(a > b for a, b in zip(keeps, keeps[1:]))
    assert keeps[-1] > 1.0 - prior  # never exceeds the prior's savings


def test_expected_keep_no_prior_no_discount():
    assert expected_keep_fraction(4, 0.0) == 1.0


def test_comp_plan_invariant_without_pruning():
    # Total computation is the same for every grid when pruning is off
    # (§4.2.2: Harmony "does not add any computation overhead").
    params = CostParams(pruning_prior=0.0)
    prof = _uniform_profile()
    costs = [plan_cost(_plan(bv, bd), prof, params).comp
             for bv, bd in [(4, 1), (2, 2), (1, 4)]]
    assert max(costs) - min(costs) < 1e-12


def test_query_slice_bytes_invariant():
    # §4.2.2: splitting dimensions does not change total query bytes —
    # only partial-result exchanges add communication. So with zero-size
    # clusters (no candidates, no partials), comm differs only by k-up.
    params = CostParams(pruning_prior=0.0,
                        machine=MachineModel(latency_sec=0.0))
    prof = QueryProfile(DIM, K, np.full(NLIST, 5.0), np.zeros(NLIST))
    c_vec = plan_cost(_plan(4, 1), prof, params)
    c_dim = plan_cost(_plan(1, 4), prof, params)
    # same query-slice bytes; dim has no k-result advantage here
    assert c_dim.comm == pytest.approx(c_vec.comm, rel=0.5)


def test_vector_plan_cheapest_communication():
    prof = _uniform_profile()
    params = CostParams(pruning_prior=0.0)
    comm = {bd: plan_cost(_plan(4 // bd, bd), prof, params).comm
            for bd in (1, 2, 4)}
    assert comm[1] < comm[2] < comm[4]


def test_imbalance_zero_for_uniform_vector_plan():
    prof = _uniform_profile()
    c = plan_cost(_plan(4, 1), prof, CostParams())
    assert c.imbalance == pytest.approx(0.0, abs=1e-12)


def test_imbalance_positive_under_skew():
    prof = _skewed_profile()
    # naive packing: hot cluster shares a shard with others
    c = plan_cost(_plan(4, 1), prof, CostParams(pruning_prior=0.0))
    assert c.imbalance > 0


def test_dimension_plan_erases_skew_imbalance():
    prof = _skewed_profile()
    params = CostParams(pruning_prior=0.0)
    i_vec = plan_cost(_plan(4, 1), prof, params).imbalance
    i_dim = plan_cost(_plan(1, 4), prof, params).imbalance
    assert i_dim < i_vec * 0.1  # dimension splits the hot cluster evenly


def test_total_includes_alpha_weighted_imbalance():
    prof = _skewed_profile()
    p = _plan(4, 1)
    c0 = plan_cost(p, prof, CostParams(alpha=0.0, pruning_prior=0.0))
    c1 = plan_cost(p, prof, CostParams(alpha=10.0, pruning_prior=0.0))
    assert c1.total == pytest.approx(c0.comp + c0.comm + 10 * c0.imbalance)


def test_node_loads_shape(n=4):
    c = plan_cost(_plan(2, 2), _uniform_profile(), CostParams())
    assert c.node_loads.shape == (4,)
    assert np.all(c.node_loads >= 0)


def test_choose_plan_uniform_prefers_low_comm():
    # Uniform workload, pruning off: communication decides → vector.
    plan, cost = choose_plan(4, _uniform_profile(),
                             CostParams(pruning_prior=0.0))
    assert (plan.b_vec, plan.b_dim) == (4, 1)


def test_choose_plan_extreme_alpha_prefers_balance():
    # With α huge, the imbalance term dominates and the single scorching
    # cluster forces dimension blocks into the plan.
    plan, _ = choose_plan(4, _skewed_profile(),
                          CostParams(alpha=1e9, pruning_prior=0.0))
    assert plan.b_dim > 1


def test_choose_plan_returns_consistent_cost():
    prof = _uniform_profile()
    params = CostParams()
    plan, cost = choose_plan(4, prof, params)
    again = plan_cost(plan, prof, params)
    assert cost.total == pytest.approx(again.total)


def test_choose_plan_respects_low_dim():
    # dim=2 caps b_dim at 2 even with 4 nodes.
    prof = QueryProfile(2, K, np.full(NLIST, 1e6), np.full(NLIST, 1e6))
    plan, _ = choose_plan(4, prof, CostParams(alpha=1e12))
    assert plan.b_dim <= 2


def test_choose_plan_balanced_flag_passthrough():
    plan, _ = choose_plan(4, _uniform_profile(), CostParams(),
                          balanced=False)
    # round-robin packing
    assert plan.cluster_to_vblock == tuple(c % plan.b_vec
                                           for c in range(NLIST))


def test_worked_example_shape():
    # §4.2.1 example-style check: when communication dominates, the model
    # shifts granularity toward vector shards (fewer dimension blocks).
    slow_net = CostParams(
        machine=MachineModel(bandwidth_bytes=1e6, latency_sec=1e-3),
        pruning_prior=0.6,
    )
    plan, _ = choose_plan(4, _uniform_profile(), slow_net)
    assert plan.b_dim == 1
