"""Shared test fixtures: one tiny dataset + one built searcher per mode.

Building a distributed index costs several Spark jobs, so the engine /
searcher / layout tests share session-scoped builds instead of each
re-building. Everything is deterministic (seeded), so sharing does not
couple tests.
"""
import numpy as np
import pytest

from repro.baseline.faiss_lite import search_ivf_flat
from repro.cluster.layout import distribute
from repro.core.partition import make_plan
from repro.core.searcher import HarmonyConfig, HarmonySearcher
from repro.ivf.index import build_ivf
from repro.vectors.generate import base_numpy, base_spark, queries_numpy
from repro.vectors.specs import get_spec

#: Tiny-scale knobs shared by the Spark integration tests.
TEST_SF = 0.0008  # 800 base vectors
TEST_NLIST = 16
TEST_K = 5
TEST_NPROBE = 4


@pytest.fixture(scope="session")
def ds(spark):
    """Tiny sift1m-analog artifacts: numpy base/queries, Spark DF, IVF."""
    spec = get_spec("sift1m")
    x = base_numpy(spec, TEST_SF)
    q = queries_numpy(spec, TEST_SF)[:16]
    df = base_spark(spark, spec, TEST_SF)
    ivf = build_ivf(x, TEST_NLIST)
    return {"spec": spec, "x": x, "q": q, "df": df, "ivf": ivf}


@pytest.fixture(scope="session")
def built(spark, ds):
    """One built searcher per mode over the tiny dataset."""
    out = {}
    for mode in ("harmony", "vector", "dimension"):
        cfg = HarmonyConfig(
            n_nodes=4, mode=mode, nlist=TEST_NLIST,
            prewarm_per_cluster=8, nprobe_hint=TEST_NPROBE, k_hint=TEST_K,
        )
        out[mode] = HarmonySearcher.build(
            spark, ds["df"], cfg, profile_queries=ds["q"]
        )
    yield out
    for s in out.values():
        s.di.unpersist()


@pytest.fixture(scope="session")
def hybrid(ds):
    """The shared clustering distributed on a 2×2 grid (B_vec = B_dim = 2):
    the one layout whose searches run vector rounds of dimension stages."""
    ivf = ds["ivf"]
    plan = make_plan(4, 2, 2, ivf.dim, ivf.cluster_sizes())
    di = distribute(ds["df"], plan, ivf.centroids, ivf.cluster_ids, 8)
    yield di
    di.unpersist()


@pytest.fixture(scope="session")
def baseline_ref(ds):
    """faiss_lite reference result at the shared test settings."""
    return search_ivf_flat(
        ds["ivf"], ds["q"], k=TEST_K, nprobe=TEST_NPROBE
    )


def assert_same_distances(dists, ref_dists, rtol=1e-4, atol=1e-4):
    """Distance-level equality between two (Q, k) result sets."""
    np.testing.assert_allclose(dists, ref_dists, rtol=rtol, atol=atol)


#: Search arguments every entry point must reject with a ValueError.
BAD_SEARCH_CASES = ("k=0", "k<0", "k=2.5", "nprobe=0", "nprobe=1.5", "1-D",
                    "wrong-dim", "NaN", "inf")


def bad_search_kwargs(q, case):
    """``(kwargs, name)``: the search keyword arguments of ``case`` (one
    of BAD_SEARCH_CASES) built from valid queries ``q``, and the argument
    its ValueError must name."""
    nan, inf = q.copy(), q.copy()
    nan[0, 0] = np.nan
    inf[-1, -1] = np.inf
    return {
        "k=0": ({"k": 0}, "k"),
        "k<0": ({"k": -1}, "k"),
        "k=2.5": ({"k": 2.5}, "k"),
        "nprobe=0": ({"nprobe": 0}, "nprobe"),
        "nprobe=1.5": ({"nprobe": 1.5}, "nprobe"),
        "1-D": ({"queries": q[0]}, "queries"),
        "wrong-dim": ({"queries": q[:, :-1]}, "queries"),
        "NaN": ({"queries": nan}, "queries"),
        "inf": ({"queries": inf}, "queries"),
    }[case]
