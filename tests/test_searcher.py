"""HarmonySearcher build path: modes, plans, config validation."""
import uuid

import numpy as np
import pytest
from pyspark import StorageLevel

from repro.core.searcher import MODES, HarmonyConfig, HarmonySearcher
from repro.vectors.generate import base_spark
from tests.conftest import TEST_K, TEST_NPROBE, TEST_SF


def test_invalid_mode_rejected():
    with pytest.raises(ValueError, match="mode"):
        HarmonyConfig(mode="hybrid-ish")


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("field,value", [
    ("n_nodes", 0), ("n_nodes", -2), ("n_nodes", True), ("n_nodes", 2.0),
    ("nlist", 0), ("nprobe_hint", 0), ("k_hint", -1),
    ("prewarm_per_cluster", -3), ("prewarm_per_cluster", 1.5),
])
def test_bad_config_rejected_naming_field(mode, field, value):
    # Rejected when the config is made, not deep inside the build.
    with pytest.raises(ValueError, match=field):
        HarmonyConfig(mode=mode, **{field: value})


def test_zero_prewarm_accepted():
    assert HarmonyConfig(prewarm_per_cluster=0).prewarm_per_cluster == 0


def test_modes_constant():
    assert MODES == ("harmony", "vector", "dimension")


def test_vector_mode_grid(built):
    plan = built["vector"].di.plan
    assert (plan.b_vec, plan.b_dim) == (4, 1)


def test_dimension_mode_grid(built):
    plan = built["dimension"].di.plan
    assert (plan.b_vec, plan.b_dim) == (1, 4)


def test_harmony_mode_chose_cost_optimal_grid(built):
    s = built["harmony"]
    assert s.planned_cost is not None
    assert s.di.plan.b_vec * s.di.plan.b_dim == 4


def test_fixed_modes_have_no_planned_cost(built):
    assert built["vector"].planned_cost is None
    assert built["dimension"].planned_cost is None


def test_with_engine_shares_index(built):
    s = built["harmony"]
    s2 = s.with_engine(use_pruning=False)
    assert s2.di is s.di
    assert s2.engine.use_pruning is False
    assert s.engine.use_pruning is True
    # The config stays the record of the build (planned with pruning).
    assert s2.config is s.config


def test_with_engine_overrides_schedule_and_waves(built):
    s2 = built["dimension"].with_engine(schedule="static", n_waves=1)
    assert s2.engine.schedule == "static"
    assert s2.engine.n_waves == 1


def test_with_engine_keeps_knobs_not_overridden(built):
    s2 = built["dimension"].with_engine(n_waves=1).with_engine(
        schedule="static")
    assert s2.engine.n_waves == 1
    assert s2.engine.schedule == "static"


def test_with_engine_rejects_unknown_knob(built):
    # ``machine`` re-plans nothing, so it is not an engine knob either.
    for knob in ("nwaves", "machine"):
        with pytest.raises(ValueError, match=knob):
            built["dimension"].with_engine(**{knob: 1})


def test_build_leaves_input_cache_state(spark, ds):
    # The build caches an uncached input for its own reads only; a cached
    # input stays cached.
    cfg = HarmonyConfig(n_nodes=2, mode="vector", nlist=8,
                        prewarm_per_cluster=4)
    for cache in (False, True):
        df = base_spark(spark, ds["spec"], TEST_SF)
        if cache:
            df.cache()
        HarmonySearcher.build(spark, df, cfg).di.unpersist()
        assert (df.storageLevel != StorageLevel.NONE) == cache
        df.unpersist()


def test_build_runs_three_spark_jobs(spark, ds):
    # Train (Arrow sample), routing table, and the cell job that also
    # returns the prewarm heads.
    sc = spark.sparkContext
    group = f"test-{uuid.uuid4().hex}"
    sc.setJobGroup(group, group)
    try:
        s = HarmonySearcher.build(
            spark, ds["df"],
            HarmonyConfig(n_nodes=4, mode="dimension", nlist=8,
                          prewarm_per_cluster=4),
        )
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
        sc.setLocalProperty("spark.job.description", None)
    s.di.unpersist()
    assert len(sc.statusTracker().getJobIdsForGroup(group)) == 3


def test_dimension_grid_wider_than_data_rejected_before_spark_jobs(spark, ds):
    # Dimension mode gives each node a block of at least one dimension. An
    # n_nodes above the data's dimensionality fails as soon as the
    # centroids are known, before the Add job, and names n_nodes.
    centroids = ds["ivf"].centroids
    n_nodes = centroids.shape[1] + 1
    sc = spark.sparkContext
    group = f"test-{uuid.uuid4().hex}"
    sc.setJobGroup(group, group)
    try:
        with pytest.raises(ValueError, match=f"n_nodes={n_nodes} exceeds"):
            HarmonySearcher.build(
                spark, ds["df"],
                HarmonyConfig(n_nodes=n_nodes, mode="dimension",
                              nlist=len(centroids)),
                centroids=centroids,
            )
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
        sc.setLocalProperty("spark.job.description", None)
    assert len(sc.statusTracker().getJobIdsForGroup(group)) == 0


def test_search_delegates(built, ds, baseline_ref):
    res = built["harmony"].search(ds["q"], k=TEST_K, nprobe=TEST_NPROBE)
    np.testing.assert_allclose(
        res.dists, baseline_ref.dists, rtol=1e-4, atol=1e-4
    )


def test_build_with_uniform_profile(spark, ds):
    # No profile queries → uniform planner profile; still builds/searches.
    cfg = HarmonyConfig(n_nodes=2, mode="harmony", nlist=8,
                        prewarm_per_cluster=4)
    s = HarmonySearcher.build(spark, ds["df"], cfg)
    try:
        res = s.search(ds["q"][:4], k=3, nprobe=2)
        assert res.ids.shape == (4, 3)
    finally:
        s.di.unpersist()


def test_build_two_nodes_dimension(spark, ds):
    cfg = HarmonyConfig(n_nodes=2, mode="dimension", nlist=8,
                        prewarm_per_cluster=4)
    s = HarmonySearcher.build(spark, ds["df"], cfg)
    try:
        assert s.di.plan.b_dim == 2
        res = s.search(ds["q"][:4], k=3, nprobe=8)
        from repro.baseline.faiss_lite import search_ivf_flat
        from repro.ivf.index import build_ivf

        ref = search_ivf_flat(build_ivf(ds["x"], 8), ds["q"][:4], 3, 8)
        np.testing.assert_allclose(res.dists, ref.dists, rtol=1e-4,
                                   atol=1e-4)
    finally:
        s.di.unpersist()
