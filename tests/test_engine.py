"""Pipelined engine (Algorithm 1): exactness, pruning, metering."""
import hashlib
import json
import pickle
import uuid

import numpy as np
import pytest

from repro.baseline.faiss_lite import search_ivf_flat
from repro.cluster.layout import distribute
from repro.cluster.machine import MachineModel
from repro.core.engine import HarmonyEngine
from repro.core.partition import PartitionPlan, make_plan
from repro.core.pruning import TopK
from repro.core.router import dim_order
from repro.core.searcher import HarmonyConfig, HarmonySearcher
from repro.ivf.index import build_ivf, probe_clusters
from repro.vectors.generate import base_spark
from tests.conftest import (
    BAD_SEARCH_CASES,
    TEST_K,
    TEST_NLIST,
    TEST_NPROBE,
    assert_same_distances,
    bad_search_kwargs,
)


@pytest.mark.parametrize("mode", ["harmony", "vector", "dimension"])
def test_exact_vs_baseline(built, baseline_ref, ds, mode):
    # Core invariant: every mode returns the same distances as a full
    # single-node scan of the same probed clusters — pruning is lossless.
    res = built[mode].search(ds["q"], k=TEST_K, nprobe=TEST_NPROBE)
    assert_same_distances(res.dists, baseline_ref.dists)


@pytest.mark.parametrize("schedule", ["static", "rotate", "load_aware"])
def test_exact_under_all_schedules(built, baseline_ref, ds, schedule):
    s = built["dimension"].with_engine(schedule=schedule)
    res = s.search(ds["q"], k=TEST_K, nprobe=TEST_NPROBE)
    assert_same_distances(res.dists, baseline_ref.dists)


@pytest.mark.parametrize("n_waves", [1, 2, 4, 7])
def test_exact_under_wave_counts(built, baseline_ref, ds, n_waves):
    s = built["dimension"].with_engine(n_waves=n_waves)
    res = s.search(ds["q"], k=TEST_K, nprobe=TEST_NPROBE)
    assert_same_distances(res.dists, baseline_ref.dists)


def test_exact_with_pruning_disabled(built, baseline_ref, ds):
    s = built["dimension"].with_engine(use_pruning=False)
    res = s.search(ds["q"], k=TEST_K, nprobe=TEST_NPROBE)
    assert_same_distances(res.dists, baseline_ref.dists)


@pytest.mark.parametrize("k,nprobe", [(1, 1), (3, 2), (10, 16)])
def test_exact_across_k_nprobe(built, ds, k, nprobe):
    ref = search_ivf_flat(ds["ivf"], ds["q"], k=k, nprobe=nprobe)
    for mode in ("harmony", "vector", "dimension"):
        res = built[mode].search(ds["q"], k=k, nprobe=nprobe)
        assert_same_distances(res.dists, ref.dists)


@pytest.fixture(scope="module")
def tied(spark):
    """``(grids, queries, faiss_lite result)`` over duplicated small-integer
    base vectors, whose distances tie exactly in every summation order:
    each mode's grid and a 2×2 grid, on one clustering."""
    rng = np.random.default_rng(3)
    x = np.repeat(rng.integers(0, 4, (150, 16)), 4, axis=0)
    x = x[rng.permutation(len(x))].astype(np.float32)
    q = rng.integers(0, 4, (12, 16)).astype(np.float32)
    df = spark.createDataFrame([(i, v.tolist()) for i, v in enumerate(x)],
                               "id long, vec array<float>")
    ivf = build_ivf(x, 8)
    grids = {}
    for mode in ("harmony", "vector", "dimension"):
        cfg = HarmonyConfig(n_nodes=4, mode=mode, nlist=8,
                            prewarm_per_cluster=4, nprobe_hint=3,
                            k_hint=TEST_K)
        grids[mode] = HarmonySearcher.build(
            spark, df, cfg, profile_queries=q, centroids=ivf.centroids).di
    plan = make_plan(4, 2, 2, x.shape[1], ivf.cluster_sizes())
    grids["2x2"] = distribute(df, plan, ivf.centroids, ivf.cluster_ids, 4)
    yield grids, q, search_ivf_flat(ivf, q, k=TEST_K, nprobe=3)
    for di in grids.values():
        di.unpersist()


@pytest.mark.parametrize("grid", ["harmony", "vector", "dimension", "2x2"])
def test_exact_ids_on_tied_distances(tied, grid):
    # Every candidate has 3 exact duplicates, so the k-th best distance is
    # tied and the kept ids depend on cutting ties by id alone.
    grids, q, ref = tied
    for schedule in ("static", "rotate", "load_aware"):
        for n_waves in (1, 4):
            eng = HarmonyEngine(grids[grid], schedule=schedule,
                                n_waves=n_waves)
            res = eng.search(q, k=TEST_K, nprobe=3)
            np.testing.assert_array_equal(res.ids, ref.ids)
            np.testing.assert_array_equal(res.dists, ref.dists)


@pytest.mark.parametrize("grid", ["harmony", "vector", "dimension", "2x2"])
def test_no_id_reaches_a_query_twice(tied, grid, monkeypatch):
    # TopK.update does not collapse repeated ids: it relies on a search
    # handing each vector id to a query's heap at most once, prewarm
    # included.
    grids, q, _ = tied
    update = TopK.update
    given: list[list[int]] = []

    def recording(self, qi, ids, dists):
        given[qi] += np.asarray(ids).tolist()
        update(self, qi, ids, dists)

    monkeypatch.setattr(TopK, "update", recording)
    for schedule in ("static", "rotate", "load_aware"):
        for n_waves in (1, 4):
            for use_pruning in (True, False):
                given[:] = [[] for _ in q]
                HarmonyEngine(grids[grid], schedule=schedule, n_waves=n_waves,
                              use_pruning=use_pruning
                              ).search(q, k=TEST_K, nprobe=3)
                assert all(len(ids) >= TEST_K for ids in given)
                for qi, ids in enumerate(given):
                    assert len(set(ids)) == len(ids), (
                        schedule, n_waves, use_pruning, qi)


def test_result_shape_and_order(built, ds):
    res = built["harmony"].search(ds["q"], k=TEST_K, nprobe=TEST_NPROBE)
    assert res.ids.shape == (len(ds["q"]), TEST_K)
    assert np.all(np.diff(res.dists, axis=1) >= -1e-12)
    assert np.all(res.ids >= 0)  # enough candidates at this scale


@pytest.mark.parametrize("mode", ["vector", "dimension"])
def test_distances_equal_blockwise_reference(built, ds, mode):
    # Bit-exact reference loop: a prewarm row is scored whole on the
    # client; any other candidate is the float64 sum of its float32 block
    # sums, in the query's block order (rotate schedule).
    s, x, q = built[mode], ds["x"], ds["q"]
    di = s.di
    res = s.search(q, k=TEST_K, nprobe=TEST_NPROBE)
    probes = probe_clusters(di.centroids, q, TEST_NPROBE)
    for qi in range(len(q)):
        c0 = probes[qi, 0]
        pre = di.cluster_ids[c0][: len(di.prewarm_rows.get(c0, ()))]
        order = dim_order("rotate", qi, di.plan.b_dim)
        for vid, got in zip(res.ids[qi], res.dists[qi]):
            blocks = ([(0, di.dim)] if vid in pre
                      else [di.plan.dim_bounds[b] for b in order])
            want = 0.0
            for lo, hi in blocks:
                want += float(((x[vid, lo:hi] - q[qi, lo:hi]) ** 2).sum())
            assert got == want


def test_pruning_reduces_ops(built, ds):
    on = built["dimension"].search(ds["q"], k=TEST_K, nprobe=TEST_NPROBE)
    off = built["dimension"].with_engine(use_pruning=False).search(
        ds["q"], k=TEST_K, nprobe=TEST_NPROBE
    )
    assert (
        on.report.metrics.node_ops().sum()
        < off.report.metrics.node_ops().sum()
    )


def test_pruning_ratios_monotone_and_first_zero(built, ds):
    res = built["dimension"].search(ds["q"], k=TEST_K, nprobe=TEST_NPROBE)
    r = res.report.pruning_ratios()
    assert len(r) == 4
    assert r[0] == 0.0
    assert np.all(np.diff(r) >= 0)
    assert r[-1] <= 1.0


def test_no_pruning_means_zero_skipped(built, ds):
    res = built["dimension"].with_engine(use_pruning=False).search(
        ds["q"], k=TEST_K, nprobe=TEST_NPROBE
    )
    assert res.report.skipped_at_position.sum() == 0


def test_pairs_total_counts_probed_candidates(built, ds):
    res = built["dimension"].with_engine(use_pruning=False).search(
        ds["q"], k=TEST_K, nprobe=TEST_NPROBE
    )
    from repro.ivf.index import probe_clusters

    probes = probe_clusters(ds["ivf"].centroids, ds["q"], TEST_NPROBE)
    sizes = ds["ivf"].cluster_sizes()
    want = 0
    for qi in range(len(ds["q"])):
        for c in probes[qi]:
            want += sizes[c]
            if c == probes[qi, 0]:  # prewarm rows already scored
                want -= min(8, sizes[c])
    assert res.report.pairs_total == want


def test_vector_mode_minimal_upstream_bytes(built, ds):
    # Harmony-vector workers reduce to local top-k: upstream traffic is
    # k results per (query, node), far below the dimension mode's
    # per-candidate partial sums (paper Fig. 8).
    rv = built["vector"].search(ds["q"], k=TEST_K, nprobe=TEST_NPROBE)
    rd = built["dimension"].search(ds["q"], k=TEST_K, nprobe=TEST_NPROBE)
    up_v = sum(s.bytes_up.sum() for s in rv.report.metrics.stages)
    up_d = sum(s.bytes_up.sum() for s in rd.report.metrics.stages)
    assert up_v < up_d


def test_dimension_mode_uses_all_nodes(built, ds):
    res = built["dimension"].search(ds["q"], k=TEST_K, nprobe=TEST_NPROBE)
    assert np.all(res.report.metrics.node_ops() > 0)


def test_static_single_wave_serializes_nodes(built, ds):
    # Non-pipelined ablation: with static order and one wave, each stage
    # busies exactly one node (everyone scans block s together).
    res = built["dimension"].with_engine(
        schedule="static", n_waves=1
    ).search(ds["q"], k=TEST_K, nprobe=TEST_NPROBE)
    for st in res.report.metrics.stages:
        assert (st.ops > 0).sum() == 1


def test_rotate_keeps_nodes_busy_first_stage(built, ds):
    res = built["dimension"].search(ds["q"], k=TEST_K, nprobe=TEST_NPROBE)
    # with 16 queries rotated over 4 blocks, stage 0 busies all 4 nodes
    st0 = res.report.metrics.stages[0]
    assert (st0.ops > 0).sum() == 4


def test_pipeline_speedup_vs_serialized(built, ds):
    m = MachineModel(blocking=True)
    fast = built["dimension"].search(ds["q"], k=TEST_K, nprobe=TEST_NPROBE)
    slow = built["dimension"].with_engine(
        schedule="static", n_waves=1
    ).search(ds["q"], k=TEST_K, nprobe=TEST_NPROBE)
    assert (
        fast.report.simulated_seconds(m)
        < slow.report.simulated_seconds(m)
    )


def test_metrics_messages_and_buffers_positive(built, ds):
    res = built["harmony"].search(ds["q"], k=TEST_K, nprobe=TEST_NPROBE)
    assert res.report.metrics.total_msgs() > 0
    assert res.report.metrics.peak_buffer_bytes.max() > 0


def test_client_ops_include_centroid_assignment(built, ds):
    res = built["harmony"].search(ds["q"], k=TEST_K, nprobe=TEST_NPROBE)
    assert (
        res.report.metrics.client_ops
        >= len(ds["q"]) * ds["ivf"].nlist * ds["spec"].dim
    )


def test_simulated_seconds_positive_and_blocking_slower(built, ds):
    res = built["dimension"].search(ds["q"], k=TEST_K, nprobe=TEST_NPROBE)
    nb = res.report.simulated_seconds(MachineModel(blocking=False))
    b = res.report.simulated_seconds(MachineModel(blocking=True))
    assert 0 < nb <= b


def test_search_is_deterministic(built, ds):
    a = built["harmony"].search(ds["q"], k=TEST_K, nprobe=TEST_NPROBE)
    b = built["harmony"].search(ds["q"], k=TEST_K, nprobe=TEST_NPROBE)
    np.testing.assert_array_equal(a.ids, b.ids)
    np.testing.assert_allclose(a.dists, b.dists)


def test_single_query(built, ds, baseline_ref):
    res = built["harmony"].search(ds["q"][:1], k=TEST_K, nprobe=TEST_NPROBE)
    assert_same_distances(res.dists, baseline_ref.dists[:1])


@pytest.mark.parametrize("case", BAD_SEARCH_CASES)
def test_search_rejects_bad_input(built, ds, case):
    kwargs, name = bad_search_kwargs(ds["q"], case)
    args = {"queries": ds["q"], "k": TEST_K, "nprobe": TEST_NPROBE,
            **kwargs}
    with pytest.raises(ValueError, match=rf"\b{name}\b"):
        built["harmony"].search(**args)


def test_unknown_schedule_rejected(built):
    # A B_dim = 1 grid never orders blocks, so the engine checks the
    # schedule itself.
    with pytest.raises(ValueError, match="chaotic"):
        built["vector"].with_engine(schedule="chaotic")


@pytest.mark.parametrize("n_waves", [0, -3, True, 2.5])
def test_bad_wave_count_rejected(built, n_waves):
    with pytest.raises(ValueError, match="n_waves"):
        built["dimension"].with_engine(n_waves=n_waves)


def test_numpy_wave_count_accepted(built):
    s = built["dimension"].with_engine(n_waves=np.int64(2))
    assert s.engine.n_waves == 2


def test_exact_under_total_pruning(built, hybrid, ds):
    # Each query is a base vector at the head of its nearest cluster, so
    # the prewarm scores it and, with k = 1, sets τ² = 0: every candidate
    # with a nonzero partial sum dies at position 0. Later stages then hold
    # tasks with no live candidate and nodes with nothing to return.
    di = built["dimension"].di
    c, head = np.array([(c, ids[0]) for c, ids in enumerate(di.cluster_ids)
                        if len(di.prewarm_rows.get(c, ()))]).T
    q = ds["x"][head]
    q = q[probe_clusters(di.centroids, q, 1)[:, 0] == c]
    assert len(q) >= TEST_NLIST // 2
    ref = search_ivf_flat(ds["ivf"], q, k=1, nprobe=TEST_NPROBE)
    for grid in (di, hybrid):
        for schedule in ("static", "rotate", "load_aware"):
            for n_waves in (1, 4):
                eng = HarmonyEngine(grid, schedule=schedule, n_waves=n_waves)
                res = eng.search(q, k=1, nprobe=TEST_NPROBE)
                np.testing.assert_array_equal(res.ids, ref.ids)
                np.testing.assert_array_equal(res.dists, ref.dists)
                assert np.all(res.report.skipped_at_position[1:] > 0)


def _search_counting_jobs(searcher, q):
    """``(result, Spark jobs run)`` of one search in a fresh job group."""
    sc = searcher.di.rdd.context
    group = f"test-{uuid.uuid4().hex}"
    sc.setJobGroup(group, group)
    try:
        res = searcher.search(q, k=TEST_K, nprobe=TEST_NPROBE)
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
        sc.setLocalProperty("spark.job.description", None)
    return res, len(sc.statusTracker().getJobIdsForGroup(group))


def test_vector_mode_runs_all_rounds_as_one_job(built, ds):
    # B_dim = 1: workers never read τ², so the B_vec rounds share one
    # Spark job, yet each round is still metered as its own stage.
    s = built["vector"]
    res, jobs = _search_counting_jobs(s, ds["q"])
    assert jobs == 1
    b_vec = s.di.plan.b_vec
    assert b_vec == 4
    labels = [st.label for st in res.report.metrics.stages]
    assert labels == [f"r{r}t0" for r in range(b_vec)]


def test_dimension_mode_runs_one_job_per_global_stage(built, ds):
    s = built["dimension"]
    _, jobs = _search_counting_jobs(s, ds["q"])
    assert jobs == s.di.plan.b_dim + s.engine.n_waves - 1


@pytest.mark.parametrize("schedule", ["static", "rotate", "load_aware"])
@pytest.mark.parametrize("n_waves", [1, 2, 4, 7])
def test_hybrid_grid_exact_one_job_per_stage(hybrid, baseline_ref, ds,
                                             schedule, n_waves):
    # B_vec = B_dim = 2: each of the B_vec rounds runs B_dim + n_waves - 1
    # global stages, one Spark job each, labelled in stage order.
    eng = HarmonyEngine(hybrid, schedule=schedule, n_waves=n_waves)
    res, jobs = _search_counting_jobs(eng, ds["q"])
    np.testing.assert_array_equal(res.ids, baseline_ref.ids)
    assert_same_distances(res.dists, baseline_ref.dists)
    n_stages = hybrid.plan.b_dim + n_waves - 1
    assert jobs == hybrid.plan.b_vec * n_stages
    assert [job for job, _, _ in res.report.jobs] == [
        [f"r{r}t{t}"] for r in range(hybrid.plan.b_vec)
        for t in range(n_stages)]


def test_grid_numbering_is_read_from_the_plan(ds, baseline_ref):
    # The plan alone maps cells to nodes: a 2x2 plan that numbers its
    # cells block-major must be laid out, accounted and searched exactly.
    # Defined here, the subclass is pickled by value, so workers share it.
    class BlockMajor(PartitionPlan):
        def cell_node(self, v, b):
            return b * self.b_vec + v

        def node_cell(self, n):
            b, v = divmod(n, self.b_vec)
            return v, b

    ivf = ds["ivf"]
    plan = BlockMajor(**vars(make_plan(4, 2, 2, ivf.dim,
                                       ivf.cluster_sizes())))
    assert plan.cell_node(1, 0) == 1  # row-major would say node 2
    di = distribute(ds["df"], plan, ivf.centroids, ivf.cluster_ids, 8)
    try:
        held = [[mat.nbytes for mat in part]
                for part in di.rdd.glom().collect()]
        assert held == [[b] for b in di.node_index_bytes]
        for schedule in ("static", "rotate", "load_aware"):
            for n_waves in (1, 4):
                res = HarmonyEngine(di, schedule, n_waves=n_waves).search(
                    ds["q"], k=TEST_K, nprobe=TEST_NPROBE)
                np.testing.assert_array_equal(res.ids, baseline_ref.ids)
                assert_same_distances(res.dists, baseline_ref.dists)
    finally:
        di.unpersist()


@pytest.mark.parametrize("mode", ["vector", "dimension"])
def test_spark_jobs_carry_stage_labels(built, ds, mode, monkeypatch):
    rdd = built[mode].di.rdd
    before = rdd.context.getLocalProperty("spark.job.description")
    seen = []
    submit = rdd.mapPartitions

    def spy(*args, **kwargs):
        seen.append(rdd.context.getLocalProperty("spark.job.description"))
        return submit(*args, **kwargs)

    monkeypatch.setattr(rdd, "mapPartitions", spy)
    res = built[mode].search(ds["q"], k=TEST_K, nprobe=TEST_NPROBE)
    labels = [st.label for st in res.report.metrics.stages]
    assert seen == ([" ".join(labels)] if mode == "vector" else labels)
    assert rdd.context.getLocalProperty("spark.job.description") == before


@pytest.mark.parametrize("mode", ["vector", "dimension"])
def test_report_times_each_spark_job(built, ds, mode):
    s = built[mode]
    res, n_jobs = _search_counting_jobs(s, ds["q"])
    rep = res.report
    labels = [st.label for st in rep.metrics.stages]
    if mode == "vector":
        assert [job for job, _, _ in rep.jobs] == [
            [f"r{r}t0" for r in range(s.di.plan.b_vec)]]
    else:
        assert len(rep.jobs) == s.di.plan.b_dim + s.engine.n_waves - 1
        assert [job for job, _, _ in rep.jobs] == [[lb] for lb in labels]
    assert len(rep.jobs) == n_jobs
    assert all(wall_s > 0 and fold_s > 0 for _, wall_s, fold_s in rep.jobs)
    d = json.loads(json.dumps(rep.to_dict()))
    assert d["jobs"] == [{"labels": job, "wall_s": wall_s, "fold_s": fold_s}
                         for job, wall_s, fold_s in rep.jobs]


def test_report_to_dict_round_trips_json(built, ds):
    rep = built["dimension"].search(
        ds["q"], k=TEST_K, nprobe=TEST_NPROBE
    ).report
    d = json.loads(json.dumps(rep.to_dict()))
    assert d == rep.to_dict()
    assert (d["pairs_total"], d["b_dim"]) == (rep.pairs_total, rep.b_dim)
    assert d["skipped_at_position"] == rep.skipped_at_position.tolist()
    assert d["client_ops"] == rep.metrics.client_ops
    assert d["peak_buffer_bytes"] == rep.metrics.peak_buffer_bytes.tolist()
    assert len(d["stages"]) == len(rep.metrics.stages)
    for got, st in zip(d["stages"], rep.metrics.stages):
        assert got == {"label": st.label, "ops": st.ops.tolist(),
                       "bytes_down": st.bytes_down.tolist(),
                       "bytes_up": st.bytes_up.tolist(),
                       "msgs": st.msgs.tolist()}


def test_dimension_payload_is_compact(spark, ds, monkeypatch):
    # Stages ship segments and packed alive bits, not one int64 position
    # per candidate (about 26 bytes a pair). Clusters of a few hundred rows
    # make the per-task overhead (query matrix, segments) small, as at
    # benchmark scale.
    spec = ds["spec"]
    s = HarmonySearcher.build(
        spark, base_spark(spark, spec, 0.003),
        HarmonyConfig(n_nodes=4, mode="dimension", nlist=4,
                      prewarm_per_cluster=8, k_hint=TEST_K),
        profile_queries=ds["q"],
    )
    sc = s.di.rdd.context
    sizes = []
    broadcast = sc.broadcast

    def spy(value):
        sizes.append(len(pickle.dumps(value, pickle.HIGHEST_PROTOCOL)))
        return broadcast(value)

    monkeypatch.setattr(sc, "broadcast", spy)
    try:
        res = s.search(ds["q"], k=TEST_K, nprobe=4)
    finally:
        s.di.unpersist()
    assert len(sizes) == s.di.plan.b_dim + s.engine.n_waves - 1
    assert sum(sizes) < 4 * res.report.pairs_total


#: SHA-256 over the ids, distances and ``to_dict()`` (without ``jobs``) of
#: the searches of each grid, under every schedule, 1 and 4 waves and
#: pruning on and off. Driver-side speed-ups must leave these unchanged.
SEARCH_DIGESTS = {
    "harmony":
        "bc8d2a70c65b9da80836ea0da088b7ce7496c9d29c51c38bfc2a46790bd50772",
    "vector":
        "97bb5da3ee0d042ea3c3b05184692c3377ff0dcb73c4cf7ebcb0bcf42f9b2f34",
    "dimension":
        "2dcbe40393da61bef4e127c1590c99cfa644d5e2b5d17fc6ed0c9ce4562c173e",
    "2x2":
        "96d4fe03cedbcd86503f49ac3c6ece4fcb74009e6195be5b95f0ca583600e97e",
}


@pytest.mark.parametrize("grid", sorted(SEARCH_DIGESTS))
def test_search_outputs_are_pinned(built, hybrid, ds, grid):
    di = hybrid if grid == "2x2" else built[grid].di
    h = hashlib.sha256()
    for schedule in ("static", "rotate", "load_aware"):
        for n_waves in (1, 4):
            for use_pruning in (True, False):
                res = HarmonyEngine(di, schedule, use_pruning,
                                    n_waves).search(ds["q"], k=TEST_K,
                                                    nprobe=TEST_NPROBE)
                d = res.report.to_dict()
                del d["jobs"]
                h.update(res.ids.tobytes())
                h.update(res.dists.tobytes())
                h.update(json.dumps(d, sort_keys=True).encode())
    assert h.hexdigest() == SEARCH_DIGESTS[grid]


#: SHA-256 over each built grid's cell matrices in node order, prewarm rows
#: by cluster, ``cluster_ids`` and ``node_memory_bytes()``. Layout and
#: memory-accounting edits must leave these unchanged.
BUILD_DIGESTS = {
    "harmony":
        "470eaa38e3fcdec6db8f01444af589553783752a953cbc185f9045e497da347f",
    "vector":
        "0b5009b9fc8bd68ba2de9a40ee7e5be81093a94ac52c427e7ea4e8f7f0ac9070",
    "dimension":
        "79c8dfc40249bada4890911673fb73c05b1ab0d795a63080a2a3468e1b6d8fb4",
    "2x2":
        "d377bad98595ce017de612275b6896287682f716a5008e72fa120e34d382f019",
}


@pytest.mark.parametrize("grid", sorted(BUILD_DIGESTS))
def test_build_outputs_are_pinned(built, hybrid, grid):
    di = hybrid if grid == "2x2" else built[grid].di
    h = hashlib.sha256()
    for mat in di.rdd.collect():
        h.update(repr((mat.shape, mat.dtype.str)).encode())
        h.update(mat.tobytes())
    for c in sorted(di.prewarm_rows):
        h.update(repr((c, di.prewarm_rows[c].shape)).encode())
        h.update(di.prewarm_rows[c].tobytes())
    for ids in di.cluster_ids:
        h.update(repr(len(ids)).encode())
        h.update(ids.tobytes())
    h.update(di.node_memory_bytes().tobytes())
    assert h.hexdigest() == BUILD_DIGESTS[grid]
