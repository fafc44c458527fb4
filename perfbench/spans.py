"""Span recording at the public boundaries of the searcher's layers.

The benchmark never edits the program. It measures each layer from the
outside by replacing public functions and methods with timed wrappers for
the length of a traced run, then putting the originals back:

* client / router / engine / top-k: ``repro.ivf.index.probe_clusters``,
  ``repro.core.router.{queries_per_vblock, assign_query_groups,
  dim_order}``, ``repro.core.engine.HarmonyEngine.search``,
  ``repro.core.pruning.TopK.update``;
* build: ``repro.core.searcher.HarmonySearcher.build``,
  ``repro.cluster.layout.{train_centroids, assign_vectors, distribute}``,
  ``repro.core.cost_model.{QueryProfile.*, choose_plan}``,
  ``repro.core.partition.make_plan``;
* Spark: ``SparkContext.broadcast``, ``RDD.mapPartitions`` and
  ``RDD.collect``. The function handed to ``mapPartitions`` during a
  search is wrapped so every task reports its own run time through a
  Spark accumulator.

A function imported by name into another ``repro`` module is replaced
there too. Spans are ``(id, name, start, end, parent, batch)`` tuples
kept in memory; :meth:`Tracer.dump` writes them out at the end.
"""
from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import time
from collections import defaultdict
from statistics import median

from pyspark import RDD, SparkContext, TaskContext
from pyspark.accumulators import AccumulatorParam

#: ``(module, attribute path, span name)`` of every traced boundary.
BOUNDARIES = (
    ("repro.ivf.index", "probe_clusters", "client.probe"),
    ("repro.core.router", "queries_per_vblock", "router.route"),
    ("repro.core.router", "assign_query_groups", "router.route"),
    ("repro.core.router", "dim_order", "router.dim_order"),
    ("repro.core.pruning", "TopK.update", "topk.update"),
    ("repro.core.engine", "HarmonyEngine.search", "engine.search"),
    ("repro.core.searcher", "HarmonySearcher.build", "build"),
    ("repro.cluster.layout", "train_centroids", "build.train"),
    ("repro.cluster.layout", "assign_vectors", "build.assign"),
    ("repro.cluster.layout", "distribute", "build.preassign"),
    ("repro.core.cost_model", "QueryProfile.from_queries", "build.plan"),
    ("repro.core.cost_model", "QueryProfile.uniform", "build.plan"),
    ("repro.core.cost_model", "choose_plan", "build.plan"),
    ("repro.core.partition", "make_plan", "build.plan"),
)

#: Per-layer metrics of one search batch: name -> unit.
BATCH_METRICS = {
    "spark.jobs": "count",
    "spark.collect_s": "s",
    "spark.overhead_s": "s",
    "spark.broadcast_s": "s",
    "spark.broadcast_bytes": "bytes",
    "worker.busy_s": "s",
    "worker.task_max_s": "s",
    "topk.update_s": "s",
    "topk.update_calls": "count",
    "client.probe_s": "s",
    "router.route_s": "s",
    "router.dim_order_s": "s",
    "engine.self_s": "s",
}

#: Per-layer metrics of one build: name -> unit.
BUILD_METRICS = {
    "build.train_s": "s",
    "build.add_s": "s",
    "build.plan_s": "s",
    "build.preassign_s": "s",
    "build.spark_jobs": "count",
}


class _ListParam(AccumulatorParam):
    """Accumulator of task records: lists are concatenated."""

    def zero(self, value):
        return []

    def addInPlace(self, a, b):
        a.extend(b)
        return a


def _timed_tasks(fn, acc, call):
    """``fn`` run as a partition function that reports its run time as
    ``(call, partition, seconds)`` through ``acc``."""

    def run(it):
        t0 = time.perf_counter()
        out = fn(it)
        if not isinstance(out, list):
            out = list(out)
        acc.add([(call, TaskContext.get().partitionId(),
                  time.perf_counter() - t0)])
        return out

    return run


def _resolve(owner, path: str):
    """``(holder, attribute)`` for a dotted attribute path."""
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Records spans and counts at the traced boundaries of one run."""

    def __init__(self, sc: SparkContext):
        self.sc = sc
        self.spans: list[tuple] = []
        self.broadcast_bytes: dict[str | None, int] = defaultdict(int)
        self.batch: str | None = None
        self._ids = itertools.count()
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self._calls = itertools.count()
        self._call_batch: dict[int, str] = {}
        self._tasks = sc.accumulator([], _ListParam())

    # -- spans ---------------------------------------------------------
    def _timed(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = next(tracer._ids)
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(sid)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer._stack.pop()
                tracer.spans.append((sid, name, t0, t1, parent,
                                     tracer.batch))

        return wrapper

    def run(self, batch: str, fn, *args, **kwargs):
        """Call ``fn`` as the root span ``client.build`` or
        ``client.search`` of ``batch``; spans and Spark jobs inside it
        belong to ``batch``."""
        kind = "build" if batch.startswith("build") else "search"
        self.batch = batch
        self.sc.setJobGroup(batch, batch)
        try:
            return self._timed(f"client.{kind}", fn)(*args, **kwargs)
        finally:
            self.batch = None

    # -- installation --------------------------------------------------
    def _replace(self, holder, attr: str, new) -> None:
        self._undo.append((holder, attr, holder.__dict__[attr]))
        setattr(holder, attr, new)

    def _patch(self, holder, attr: str, wrap) -> None:
        """Replace ``holder.attr`` by ``wrap(original)``."""
        raw = holder.__dict__[attr]
        if isinstance(raw, classmethod):
            self._replace(holder, attr, classmethod(wrap(raw.__func__)))
            return
        new = wrap(raw)
        self._replace(holder, attr, new)
        if isinstance(holder, type(sys)):  # re-bind names imported by value
            for mod in list(sys.modules.values()):
                if (mod is not holder
                        and getattr(mod, "__name__", "").startswith("repro")
                        and mod.__dict__.get(attr) is raw):
                    self._replace(mod, attr, new)

    def install(self) -> None:
        """Replace every traced boundary by its timed wrapper."""
        for module, path, name in BOUNDARIES:
            holder, attr = _resolve(importlib.import_module(module), path)
            self._patch(holder, attr, functools.partial(self._timed, name))
        self._patch(SparkContext, "broadcast", self._wrap_broadcast)
        self._patch(RDD, "collect",
                    functools.partial(self._timed, "spark.collect"))
        self._patch(RDD, "mapPartitions", self._wrap_map_partitions)

    def uninstall(self) -> None:
        """Put every original back."""
        while self._undo:
            holder, attr, raw = self._undo.pop()
            setattr(holder, attr, raw)

    def _wrap_broadcast(self, fn):
        timed = self._timed("spark.broadcast", fn)

        def broadcast(sc, value):
            bc = timed(sc, value)
            path = getattr(bc, "_path", None)
            if path and os.path.exists(path):
                self.broadcast_bytes[self.batch] += os.path.getsize(path)
            return bc

        return broadcast

    def _wrap_map_partitions(self, fn):
        timed = self._timed("spark.map_partitions", fn)

        def map_partitions(rdd, f, *args, **kwargs):
            if self.batch is not None and not self.batch.startswith("build"):
                call = next(self._calls)
                self._call_batch[call] = self.batch
                f = _timed_tasks(f, self._tasks, call)
            return timed(rdd, f, *args, **kwargs)

        return map_partitions

    # -- aggregation ---------------------------------------------------
    def _jobs(self, batch: str) -> int:
        return len(self.sc.statusTracker().getJobIdsForGroup(batch))

    def batch_metrics(self, batch: str) -> dict[str, float]:
        """Per-layer figures of one search batch (see BATCH_METRICS)."""
        mine = [s for s in self.spans if s[5] == batch]
        total = defaultdict(float)
        calls = defaultdict(int)
        for _, name, t0, t1, _, _ in mine:
            total[name] += t1 - t0
            calls[name] += 1
        engine_ids = {s[0] for s in mine if s[1] == "engine.search"}
        child_s = sum(t1 - t0 for _, _, t0, t1, parent, _ in mine
                      if parent in engine_ids)
        per_call = defaultdict(list)
        for call, _, secs in self._tasks.value:
            if self._call_batch.get(call) == batch:
                per_call[call].append(secs)
        task_max = sum(max(v) for v in per_call.values())
        return {
            "spark.jobs": self._jobs(batch),
            "spark.collect_s": total["spark.collect"],
            "spark.overhead_s": total["spark.collect"] - task_max,
            "spark.broadcast_s": total["spark.broadcast"],
            "spark.broadcast_bytes": self.broadcast_bytes[batch],
            "worker.busy_s": sum(sum(v) for v in per_call.values()),
            "worker.task_max_s": task_max,
            "topk.update_s": total["topk.update"],
            "topk.update_calls": calls["topk.update"],
            "client.probe_s": total["client.probe"],
            "router.route_s": total["router.route"],
            "router.dim_order_s": total["router.dim_order"],
            "engine.self_s": total["engine.search"] - child_s,
        }

    def build_metrics(self, batch: str) -> dict[str, float]:
        """Per-stage figures of one build (see BUILD_METRICS). Nested
        planning spans (``make_plan`` inside ``choose_plan``) count once."""
        mine = [s for s in self.spans if s[5] == batch]
        by_id = {s[0]: s for s in mine}
        total = defaultdict(float)
        for _, name, t0, t1, parent, _ in mine:
            if parent in by_id and by_id[parent][1] == name:
                continue
            total[name] += t1 - t0
        stages = {k: total[f"build.{k}"]
                  for k in ("train", "plan", "preassign")}
        return {
            "build.train_s": stages["train"],
            "build.add_s": total["build"] - sum(stages.values()),
            "build.plan_s": stages["plan"],
            "build.preassign_s": stages["preassign"],
            "build.spark_jobs": self._jobs(batch),
        }

    def dump(self, path) -> None:
        """Write every span and task record as JSON to ``path``."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tasks = [(self._call_batch.get(c), c, p, s)
                 for c, p, s in self._tasks.value]
        with open(path, "w") as f:
            json.dump({
                "fields": ["id", "name", "start", "end", "parent", "batch"],
                "spans": self.spans,
                "task_fields": ["batch", "call", "partition", "seconds"],
                "tasks": tasks,
            }, f)


def medians(rows: list[dict[str, float]]) -> dict[str, float]:
    """Per-key median over a list of metric dicts."""
    return {k: float(median(r[k] for r in rows)) for k in rows[0]}
