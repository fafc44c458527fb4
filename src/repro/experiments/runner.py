"""Shared experiment harness: dataset bundles + searcher builds.

Every evaluation table and figure goes through this module, so the
workload (scale factor, node count, nlist, nprobe, K) is defined in
exactly one place and builds are reused across experiments.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from pyspark.sql import DataFrame, SparkSession

from repro.baseline.faiss_lite import BaselineResult, search_ivf_flat
from repro.cluster.machine import MachineModel
from repro.core.searcher import HarmonyConfig, HarmonySearcher
from repro.ivf.index import IVFIndex, build_ivf
from repro.vectors.generate import base_numpy, base_spark, queries_numpy
from repro.vectors.specs import DatasetSpec, get_spec

#: Machine model every experiment converts metered work with.
MACHINE = MachineModel()
#: Datasets above 1500 dims get this extra shrink on the scale factor.
HEAVY_SHRINK = 0.6


@dataclass(frozen=True)
class ExperimentConfig:
    """Scale/quality knobs common to all table reproductions.

    The paper runs ~1M vectors, 4 worker nodes, high-recall IVF settings;
    we default to SF=0.01 (~10K vectors per dataset) which keeps every
    table regenerable in minutes on a laptop-class Spark while preserving
    the comparisons' shape.
    """

    sf: float = 0.01
    n_nodes: int = 4
    nlist: int = 48
    k: int = 10
    nprobe: int = 8
    prewarm_per_cluster: int = 16

    def sf_for(self, spec: DatasetSpec) -> float:
        """Per-dataset scale factor (shrinks very high-dim sets)."""
        return self.sf * HEAVY_SHRINK if spec.dim > 1500 else self.sf


class DatasetBundle:
    """One dataset's artifacts, each built on first use and cached.

    Holds the numpy base/query arrays, the Spark vector DataFrame, the
    single-node IVF index (the "Faiss" baseline, whose centroids every
    searcher shares) and the built :class:`HarmonySearcher` instances.
    """

    def __init__(self, spark: SparkSession, name: str, cfg: ExperimentConfig):
        self.spark = spark
        self.cfg = cfg
        self.spec = get_spec(name)
        self.name = name
        self._searchers: dict[tuple, HarmonySearcher] = {}

    @cached_property
    def x(self) -> np.ndarray:
        """Base vectors, ``(n, dim)`` float32."""
        return base_numpy(self.spec, self.cfg.sf_for(self.spec))

    @cached_property
    def queries(self) -> np.ndarray:
        """The natural query batch."""
        return queries_numpy(self.spec, self.cfg.sf_for(self.spec))

    @cached_property
    def df(self) -> DataFrame:
        """Base vectors as a Spark ``(id, vec)`` DataFrame."""
        return base_spark(self.spark, self.spec, self.cfg.sf_for(self.spec))

    @cached_property
    def ivf(self) -> IVFIndex:
        """Single-node IVF index (baseline): the dataset's one clustering."""
        return build_ivf(self.x, self.cfg.nlist)

    def searcher(
        self,
        mode: str,
        profile_queries: np.ndarray | None = None,
        **overrides,
    ) -> HarmonySearcher:
        """Build (or fetch) a searcher for ``mode`` on the bundle's IVF
        centroids.

        ``profile_queries`` is the sample workload the cost model plans
        against (harmony mode adapts to it; fixed modes ignore it for
        packing); builds are cached by config and profile queries.
        ``overrides`` replace :class:`HarmonyConfig` fields (e.g.
        ``n_nodes``, ``balanced``).
        """
        cfg = HarmonyConfig(
            mode=mode,
            nlist=self.cfg.nlist,
            prewarm_per_cluster=self.cfg.prewarm_per_cluster,
            nprobe_hint=self.cfg.nprobe,
            k_hint=self.cfg.k,
            **{"n_nodes": self.cfg.n_nodes, **overrides},
        )
        profile = np.ascontiguousarray(
            self.queries if profile_queries is None else profile_queries,
            np.float32)
        key = (cfg, hashlib.sha256(profile.tobytes()).hexdigest())
        if key not in self._searchers:
            self._searchers[key] = HarmonySearcher.build(
                self.spark, self.df, cfg, profile_queries=profile,
                centroids=self.ivf.centroids,
            )
        return self._searchers[key]

    def imbalanced_workload(self, frac: float) -> np.ndarray:
        """Engineered skew (paper §6.2.2: "query sets are manipulated to
        ensure different load differences on each machine").

        A fraction ``frac`` of the natural queries is replaced by queries
        aimed at the clusters a traditional vector partition stores on
        node 0 — so that node's shard absorbs ``frac`` of the probe
        load while the others idle. ``frac = 0`` is the balanced
        workload; ``frac → 1`` concentrates virtually all work on one
        node.
        """
        if frac <= 0:
            return self.queries
        from repro.ivf.index import probe_clusters

        sv = self.searcher("vector")
        plan, di = sv.di.plan, sv.di
        hot_clusters = plan.clusters_of_vblock(0)
        hot_set = set(int(c) for c in hot_clusters)
        sizes = di.cluster_sizes().astype(np.float64)
        q = self.queries.copy()
        n_hot = int(round(len(q) * frac))
        g = np.random.default_rng([77, int(frac * 1000)])
        # Rejection sampling: draw many candidates near the target
        # node's centroids and keep those whose probe load actually
        # lands on that node (IVF probe neighborhoods spread, so naive
        # centroid-aimed queries only mildly skew the load).
        n_cand = max(n_hot * 16, 64)
        cids = g.choice(hot_clusters, size=n_cand)
        cent = di.centroids[cids]
        jitter = 0.05 * np.abs(cent).mean()
        cand = cent + jitter * g.standard_normal(cent.shape).astype(
            np.float32
        )
        probes = probe_clusters(di.centroids, cand, self.cfg.nprobe)
        load = sizes[probes]
        on_node = np.isin(probes, list(hot_set))
        score = (load * on_node).sum(axis=1) / load.sum(axis=1)
        q[:n_hot] = cand[np.argsort(-score)[:n_hot]]
        return q

    def faiss(self) -> BaselineResult:
        """Run the single-node baseline on the natural query batch."""
        return search_ivf_flat(
            self.ivf, self.queries, k=self.cfg.k, nprobe=self.cfg.nprobe
        )

    def close(self) -> None:
        """Unpersist all built distributed indexes."""
        for s in self._searchers.values():
            s.di.unpersist()
        self._searchers.clear()


def qps(
    n_queries: int, seconds: float
) -> float:
    """Queries per second given simulated elapsed seconds."""
    return n_queries / seconds if seconds > 0 else float("inf")
