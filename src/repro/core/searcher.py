"""User-facing Harmony searcher: build (plan → distribute) + search.

Mirrors the paper's ``-Mode`` parameter: ``harmony`` (adaptive grid via
the cost model), ``vector`` (Harmony-vector, ``B_dim=1``) and
``dimension`` (Harmony-dimension, ``B_vec=1``). The engine's knobs —
the schedule, the wave count and the pruning switch of §5 "Parameters" —
are set with :meth:`HarmonySearcher.with_engine`. The planner uses the
default :class:`~repro.core.cost_model.CostParams`: α = 1, the default
:class:`~repro.cluster.machine.MachineModel` and pruning prior 0.6.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
from pyspark import StorageLevel
from pyspark.sql import DataFrame, SparkSession

from repro.cluster.layout import (
    DistributedIndex,
    assign_vectors,
    distribute,
    train_centroids,
)
from repro.core.cost_model import (
    CostBreakdown,
    QueryProfile,
    choose_plan,
)
from repro.core.engine import HarmonyEngine, SearchResult
from repro.core.partition import make_plan
from repro.ivf.index import check_count

#: Valid ``-Mode`` values (paper §5).
MODES = ("harmony", "vector", "dimension")


@dataclass(frozen=True)
class HarmonyConfig:
    """Build/search configuration (the paper's CLI parameters).

    ``n_nodes`` = ``-NMachine``; ``nlist`` = indexing parameter;
    ``mode`` = ``-Mode``. ``-Pruning_Configuration`` is an engine knob:
    ``with_engine(use_pruning=...)``.
    """

    n_nodes: int = 4
    mode: str = "harmony"
    nlist: int = 64
    prewarm_per_cluster: int = 32
    balanced: bool = True
    #: Planner hints when no profile queries are supplied.
    nprobe_hint: int = 8
    k_hint: int = 10

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode {self.mode!r} not in {MODES}")
        for name in ("n_nodes", "nlist", "nprobe_hint", "k_hint"):
            check_count(name, getattr(self, name))
        check_count("prewarm_per_cluster", self.prewarm_per_cluster, least=0)


def _plan(config, centroids, sizes, profile_queries):
    """``(plan, cost)``: the grid for ``config.mode`` ("Plan" stage);
    ``cost`` is the planner's breakdown, None for the fixed modes."""
    dim = centroids.shape[1]
    # Fixed modes model the *traditional* distribution: clusters are
    # packed by size alone, blind to the query workload (paper §6.1's
    # Harmony-vector / Harmony-dimension baselines). Only adaptive
    # harmony packs by expected load (probe-weighted).
    if config.mode == "vector":
        return make_plan(config.n_nodes, config.n_nodes, 1, dim, sizes,
                         config.balanced), None
    if config.mode == "dimension":
        return make_plan(config.n_nodes, 1, config.n_nodes, dim, sizes,
                         config.balanced), None
    if profile_queries is not None:
        profile = QueryProfile.from_queries(
            centroids, sizes, np.asarray(profile_queries, np.float32),
            config.nprobe_hint, config.k_hint,
        )
    else:
        profile = QueryProfile.uniform(
            len(centroids), dim, sizes, n_queries=100,
            nprobe=config.nprobe_hint, k=config.k_hint,
        )
    return choose_plan(config.n_nodes, profile, balanced=config.balanced)


@dataclass
class HarmonySearcher:
    """A built distributed index plus its engine and planning record."""

    di: DistributedIndex
    config: HarmonyConfig
    engine: HarmonyEngine
    planned_cost: CostBreakdown | None = None

    @classmethod
    def build(
        cls,
        spark: SparkSession,
        df: DataFrame,
        config: HarmonyConfig = HarmonyConfig(),
        profile_queries: np.ndarray | None = None,
        centroids: np.ndarray | None = None,
    ) -> "HarmonySearcher":
        """Train, add, plan and pre-assign the index (Fig. 10 stages) in
        three Spark jobs: the train sample, the routing table (which gives
        the planner its cluster sizes) and the cells. ``df`` is persisted
        for the build unless it is cached already.

        ``profile_queries`` — an optional sample workload the cost model
        profiles for skew; without it a uniform profile is assumed.
        ``centroids`` — an existing clustering to distribute (paper §6.1:
        all methods share one); without it the Train stage runs here.
        """
        # Train, Add and Pre-assign all read the base vectors: generate
        # them once, and leave the caller's cache state as it was.
        cached = df.storageLevel != StorageLevel.NONE
        if not cached:
            df.persist()
        try:
            train_s = 0.0
            if centroids is None:
                t0 = time.perf_counter()
                centroids = train_centroids(df, config.nlist)
                train_s = time.perf_counter() - t0
            dim = centroids.shape[1]
            if config.mode == "dimension" and config.n_nodes > dim:
                raise ValueError(f"n_nodes={config.n_nodes} exceeds dim={dim}"
                                 ": each node needs a dimension block")

            t0 = time.perf_counter()
            cluster_ids = assign_vectors(df, centroids)
            sizes = np.array([len(ids) for ids in cluster_ids], np.float64)
            add_s = time.perf_counter() - t0

            plan, cost = _plan(config, centroids, sizes, profile_queries)
            t0 = time.perf_counter()
            di = distribute(df, plan, centroids, cluster_ids,
                            config.prewarm_per_cluster)
            di.build_seconds = {"train": train_s, "add": add_s,
                                "preassign": time.perf_counter() - t0}
        finally:
            if not cached:
                df.unpersist()
        engine = HarmonyEngine(di)
        return cls(di, config, engine, cost)

    def search(
        self, queries: np.ndarray, k: int = 10, nprobe: int = 8
    ) -> SearchResult:
        """Run one query batch through the pipelined engine."""
        return self.engine.search(queries, k=k, nprobe=nprobe)

    def with_engine(self, **overrides) -> "HarmonySearcher":
        """A sibling searcher sharing the built index but with engine
        knobs overridden (schedule, use_pruning, n_waves) — used
        by the ablation experiments without re-distributing the index.
        Knobs not overridden keep this searcher's values; any other key
        raises ``ValueError``. ``config`` stays the record of the build."""
        knobs = {knob: getattr(self.engine, knob)
                 for knob in ("schedule", "use_pruning", "n_waves")}
        unknown = set(overrides) - set(knobs)
        if unknown:
            raise ValueError(
                f"with_engine() cannot override {sorted(unknown)}")
        eng = HarmonyEngine(self.di, **{**knobs, **overrides})
        return HarmonySearcher(self.di, self.config, eng, self.planned_cost)
