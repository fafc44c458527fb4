"""Flexible pipelined execution engine (paper §4.3, Algorithm 1).

The driver plays the client/master node: it assigns centroids, prewarms
the top-K heaps, and orchestrates the two pipelines —

* **vector pipeline** (Alg. 1 ``VectorPipeline``): queries are split into
  ``B_vec`` groups; in round ``r`` group ``g`` visits vector shard
  ``(g+r) mod B_vec`` (Fig. 5a), and the heaps/thresholds tighten between
  rounds;
* **dimension pipeline** (Alg. 1 ``DimensionPipeline``): within a round,
  each query's candidates are split into ``n_waves`` staggered waves that
  flow through the ``B_dim`` dimension blocks exactly as Fig. 5b's
  staggered stages: at stage ``t`` of its round, wave ``w`` computes its
  dimension block number ``t - w`` (per-query block order from the
  scheduler), so all nodes stay busy and — crucially — early waves
  *complete* and tighten ``τ²`` while later waves are still mid-flight.
  The driver accumulates partial sums ``S²`` and prunes candidates with
  ``S² > τ²`` between stages (strict monotone test → exact w.r.t. the
  probed clusters).

Data path: a search batch is one task table. A *task* is one (round,
wave, query); tasks are ordered that way, and each is a run of segments
``(row0, len)`` into its shard's rows in the cell matrix of each block.
Round ``r``'s stages follow those of the rounds before it, so each task
has a global start stage ``t0`` and computes position ``t - t0`` at global
stage ``t``. Per candidate the driver keeps only ``alive`` and ``S²``, per
task its live count. The tasks of a global stage are one contiguous slice,
sent as a task table, segments and packed ``alive`` bits
(:func:`_scan_worker`); a worker returns one dense partial-sum array per
stage, so the driver folds each task with one slice add and one prune
against its query's τ². One Spark job
runs each global stage when ``B_dim > 1`` (τ² must tighten between
stages), and all ``B_vec`` rounds when ``B_dim = 1`` (workers cut to a
local top-k and never read τ²). Every stage (a round, when ``B_dim = 1``)
is metered on its own: per-node ops, bytes down (query slices + survivor
sets), bytes up (partial sums / local top-k results) and messages.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial

import numpy as np
from pyspark import TaskContext

from repro.cluster.layout import DistributedIndex
from repro.cluster.machine import MachineModel
from repro.cluster.metrics import ClusterMetrics
from repro.core.cost_model import (BYTES_PER_PARTIAL, BYTES_PER_POSITION,
                                   BYTES_PER_RESULT, BYTES_PER_SCALAR)
from repro.core.pruning import TopK, prune_mask
from repro.core.router import (POLICIES, assign_query_groups, dim_order,
                               queries_per_vblock)
from repro.ivf.index import check_count, check_search_args, probe_clusters
from repro.ivf.kmeans import sq_l2
from repro.sparkutil import spark_task

#: Relative slack on τ² when pruning. S² is summed block by block, while
#: the heap's distances may be summed in another order (prewarm sums whole
#: vectors), so rounding alone must never prune a candidate that ties τ².
_PRUNE_MARGIN = 1e-5
#: Candidates the driver finishes per chunk (bounds temporaries).
_CHUNK = 1 << 15
#: Rows a worker gathers per chunk (keeps its temporaries in cache).
_SCAN_ROWS = 1024


@dataclass
class SearchReport:
    """Everything measured during one :meth:`HarmonyEngine.search` call."""

    metrics: ClusterMetrics
    #: Candidate rows that entered the staged scan (prewarm excluded).
    pairs_total: int
    #: ``skipped[s]`` — candidate rows already pruned when their pipeline
    #: position ``s`` executed (Table 3 numerators; position 0 is 0).
    skipped_at_position: np.ndarray
    b_dim: int
    #: One ``(stage labels, wall seconds, fold seconds)`` per Spark job, in
    #: run order; a job is timed from its broadcast to its unpersist, and
    #: its fold is the driver's time folding and finishing its stages.
    jobs: list[tuple[list[str], float, float]]

    def pruning_ratios(self) -> np.ndarray:
        """Table 3 per-slice pruning ratios (fraction of distance
        calculations skipped at each pipeline position)."""
        if self.pairs_total == 0:
            return np.zeros(self.b_dim)
        return self.skipped_at_position / self.pairs_total

    def simulated_seconds(self, model: MachineModel) -> float:
        """Simulated elapsed seconds under ``model``."""
        return self.metrics.simulated_seconds(model)

    def to_dict(self) -> dict:
        """JSON-safe summary: totals, per-position skips, every stage's
        per-node ops, bytes down, bytes up and messages, and every Spark
        job's stage labels, wall time and driver fold time."""
        m = self.metrics
        return {
            "pairs_total": int(self.pairs_total),
            "skipped_at_position": self.skipped_at_position.tolist(),
            "b_dim": int(self.b_dim),
            "client_ops": float(m.client_ops),
            "peak_buffer_bytes": m.peak_buffer_bytes.tolist(),
            "stages": [st.to_dict() for st in m.stages],
            "jobs": [{"labels": list(labels), "wall_s": wall_s,
                      "fold_s": fold_s}
                     for labels, wall_s, fold_s in self.jobs],
        }


@dataclass
class SearchResult:
    """Top-K answer plus the search report: ``ids``/``dists`` are
    ``(Q, k)`` arrays, distance-ascending, padded with ``(-1, inf)``."""

    ids: np.ndarray
    dists: np.ndarray
    report: SearchReport


@dataclass
class _Tasks:
    """A search batch's tasks as flat arrays. Per task: query, shard, start
    stage ``t0``, block ``order`` by position, ``live`` candidate count,
    and (one longer) ``first`` candidate and segment ``seg0``. ``segs`` is
    ``(n_segs, 2)`` int32 ``(row0, len)``; ``labels[t]`` names global
    stage ``t``. The dimension fold keeps ``live`` equal to the task's
    ``alive`` count; a ``B_dim = 1`` task runs a single stage, so its
    count is not read after it."""

    q: np.ndarray
    v: np.ndarray
    t0: np.ndarray
    order: np.ndarray
    live: np.ndarray
    first: np.ndarray
    seg0: np.ndarray
    segs: np.ndarray
    alive: np.ndarray
    s2: np.ndarray
    labels: list[str]


def _expand(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """``concatenate([arange(s, s + n) for s, n in zip(starts, lens)])``."""
    ends = np.cumsum(lens)
    return np.repeat(starts - ends + lens, lens) + np.arange(lens.sum())


def _chunks(first: np.ndarray, ta: int, tb: int):
    """Task ranges ``(i, j)`` covering tasks ``[ta, tb)`` with about
    ``_CHUNK`` candidates each (task ``i`` starts at ``first[i]``)."""
    cut = np.searchsorted(first, np.arange(first[ta], first[tb], _CHUNK))
    edges = np.unique(np.append(cut, tb))
    return zip(edges[:-1], edges[1:])


def _scan_worker(payload_bc, plan):
    """Worker closure for one Spark job of pipeline stages.

    ``payload_bc`` broadcasts ``(stages, queries, finalize_k)``; a stage
    is ``(tasks, segs, bits)``: per task (cell node, query, segment count,
    live count), the segments and ``np.packbits`` of the ``alive`` flags.
    Partition ``n`` holds node ``n``'s cell matrix; the worker reads its
    dimension block from ``plan`` (captured in the closure, so the
    numbering is the driver's), takes its tasks with live candidates and
    computes :func:`~repro.ivf.kmeans.sq_l2` of those candidates over its
    block, in chunks. It returns ``(stage, node, keep, d)``, none for a
    stage where it has no such task:

    * ``finalize_k is None``: ``keep`` is None and ``d`` holds the float32
      partial sums of every candidate of those tasks, in stage order, 0
      where the candidate is no longer alive;
    * ``finalize_k = k`` (whole-vector cells, ``B_dim = 1``): each task is
      cut to its local top-k (ties kept), like a real Harmony-vector
      worker; ``keep`` holds the kept candidates' stage offsets and ``d``
      their distances.
    """

    @spark_task
    def scan(cells):
        out = []
        stages, queries, finalize_k = payload_bc.value
        node = TaskContext.get().partitionId()
        for mat in cells:
            lo, hi = plan.dim_bounds[plan.node_cell(node)[1]]
            qblock = np.ascontiguousarray(queries[:, lo:hi])
            for i, (tasks, segs, bits) in enumerate(stages):
                seg_task = np.repeat(np.arange(len(tasks)), tasks[:, 2])
                mine = ((tasks[:, 0] == node) & (tasks[:, 3] > 0))[seg_task]
                if not mine.any():
                    continue
                lens = segs[:, 1].astype(np.int64)
                cand = _expand(np.cumsum(lens)[mine] - lens[mine], lens[mine])
                live = np.unpackbits(bits).view(bool)[cand]
                rows = _expand(segs[mine, 0], lens[mine])[live]
                task = np.repeat(seg_task[mine], lens[mine])[live]
                d = np.empty(len(rows), dtype=np.float32)
                for a in range(0, len(rows), _SCAN_ROWS):
                    sl = slice(a, a + _SCAN_ROWS)
                    d[sl] = sq_l2(mat.take(rows[sl], axis=0),
                                  qblock.take(tasks[task[sl], 1], axis=0))
                if finalize_k is None:
                    dense = np.zeros(len(cand), dtype=np.float32)
                    dense[live] = d
                    out.append((i, node, None, dense))
                    continue
                keep = []
                for part in np.split(d, np.flatnonzero(np.diff(task)) + 1):
                    kk = min(finalize_k, len(part)) - 1
                    keep.append(part <= np.partition(part, kk)[kk])
                keep = np.concatenate(keep)
                out.append((i, node, cand[live][keep], d[keep]))
        return out

    return scan


class HarmonyEngine:
    """Drives distributed top-K search over a :class:`DistributedIndex`."""

    def __init__(
        self,
        di: DistributedIndex,
        schedule: str = "rotate",
        use_pruning: bool = True,
        n_waves: int = 4,
    ):
        if schedule not in POLICIES:
            raise ValueError(
                f"unknown schedule {schedule!r}; one of {POLICIES}")
        check_count("n_waves", n_waves)
        self.di = di
        self.schedule = schedule
        self.use_pruning = use_pruning
        #: Candidate waves per round; 1 disables intra-round pipelining
        #: (the "w/o pipeline" ablation of Fig. 9 uses static + 1 wave).
        self.n_waves = n_waves

    # -----------------------------------------------------------------
    def search(
        self, queries: np.ndarray, k: int = 10, nprobe: int = 8
    ) -> SearchResult:
        """Approximate top-``k`` over the probed clusters of each query.

        Exact within the probed clusters: pruning uses the strict
        monotone test, so results match a full scan of the same clusters.
        A bad ``queries``, ``k`` or ``nprobe`` raises ``ValueError``.
        """
        di, plan = self.di, self.di.plan
        b_dim = plan.b_dim
        queries = check_search_args(queries, di.dim, k, nprobe)
        n_q = len(queries)
        metrics = ClusterMetrics(plan.n_nodes)

        # Client: centroid assignment (§4.2.2 step 1).
        probes = probe_clusters(di.centroids, queries, nprobe)
        metrics.client_ops += n_q * di.nlist * di.dim

        # Prewarm (Alg. 1 lines 1-5): score each query's nearest-cluster
        # sample on the client to seed the heap / initial τ².
        topk = TopK(n_q, k)
        scanned = np.zeros(n_q, dtype=np.int64)  # prewarmed prefix rows
        for q in range(n_q):
            c0 = int(probes[q, 0])
            pw = di.prewarm_rows.get(c0)
            if pw is None or not len(pw):
                continue
            d = sq_l2(pw, queries[q]).astype(np.float64)
            topk.update(q, di.cluster_ids[c0][: len(pw)], d)
            scanned[q] = len(pw)
            metrics.client_ops += len(pw) * di.dim

        # Vector pipeline rounds (Fig. 5a) of dimension stages (Fig. 5b).
        tab = self._layout(probes, scanned, self.n_waves if b_dim > 1 else 1)
        skipped = np.zeros(b_dim)
        jobs: list[tuple[list[str], float, float]] = []
        run = partial(self._run_stage, tab, queries=queries, k=k, topk=topk,
                      metrics=metrics, skipped=skipped, jobs=jobs)
        if b_dim == 1:
            # Whole-vector cells: workers reduce to a local top-k and
            # never read τ², so the rounds share one Spark job.
            run(range(len(tab.labels)))
        for t in range(len(tab.labels)) if b_dim > 1 else ():
            # A task's dimension-block order (scheduler, §4.3) is fixed
            # when its wave *starts*, so the load-aware policy sees live
            # node loads (the paper's dynamic reordering, Fig. 5b).
            i, j = np.searchsorted(tab.t0, [t, t + 1])
            loads = metrics.node_ops()[plan.cell_node(tab.v[i:j, None],
                                                      np.arange(b_dim))]
            tab.order[i:j] = dim_order(self.schedule, tab.q[i:j], b_dim,
                                       loads)
            # One stage per job: τ² must tighten between stages.
            run([t])

        report = SearchReport(metrics, len(tab.alive), skipped, b_dim, jobs)
        return SearchResult(topk.ids, topk.dists, report)

    # -----------------------------------------------------------------
    def _layout(self, probes, scanned, n_waves) -> _Tasks:
        """Every round of the search as one task table.

        Group ``g`` visits shard ``(g+r) mod B_vec`` in round ``r``, so a
        probe of shard ``v`` runs in round ``(v-g) mod B_vec``. Each probed
        cluster's rows (after the prewarmed prefix) are cut into ``n_waves``
        chunks of ``np.array_split``'s sizes (the first ``n % n_waves`` one
        row longer); chunk ``w`` is a segment of task (round, wave ``w``,
        query). Round ``r`` runs ``B_dim`` + its last wave's index stages,
        after those of the rounds before it."""
        di = self.di
        b_vec, b_dim = di.plan.b_vec, di.plan.b_dim
        groups = assign_query_groups(len(probes), b_vec)
        rnd = (queries_per_vblock(di.plan, probes) - groups[:, None]) % b_vec
        start = np.zeros_like(probes)
        start[:, 0] = scanned
        size, extra = np.divmod(di.cluster_sizes()[probes] - start, n_waves)
        wave = np.arange(n_waves)[:, None, None]
        n = size + (wave < extra)
        row = (di.shard_rows()[0][probes] + start + wave * size
               + np.minimum(wave, extra))
        # Segments by (round, wave, query, probe).
        w, q, p = np.nonzero(n > 0)
        by_round = np.argsort(rnd[q, p], kind="stable")
        w, q, p = w[by_round], q[by_round], p[by_round]
        r = rnd[q, p]
        new = np.ones(len(q), dtype=bool)
        new[1:] = np.diff((r * n_waves + w) * len(probes) + q) != 0
        seg0 = np.append(np.flatnonzero(new), len(q))
        first = np.append(0, np.cumsum(n[w, q, p]))
        segs = np.stack([row[w, q, p], n[w, q, p]], axis=1).astype(np.int32)
        r, w, q = r[seg0[:-1]], w[seg0[:-1]], q[seg0[:-1]]
        span = np.zeros(b_vec, dtype=np.int64)  # stages per round
        np.maximum.at(span, r, b_dim + w)
        return _Tasks(
            q=q, v=(groups[q] + r) % b_vec, t0=(np.cumsum(span) - span)[r] + w,
            order=np.zeros((len(q), b_dim), dtype=np.int64),
            live=np.diff(first[seg0]), first=first[seg0], seg0=seg0, segs=segs,
            alive=np.ones(first[-1], dtype=bool), s2=np.zeros(first[-1]),
            labels=[f"r{i}t{t}" for i in range(b_vec) for t in range(span[i])],
        )

    # -----------------------------------------------------------------
    def _run_stage(self, tab, stages, queries, k, topk, metrics, skipped,
                   jobs) -> None:
        """Execute global stages of ``tab`` as one Spark job and fold
        results in.

        Stage ``t`` runs the tasks with ``0 <= t - t0 < B_dim`` (one
        contiguous slice), each at position ``s = t - t0`` on the cell of
        block ``order[s]``. Each stage is metered as its own
        :class:`StageRecord` from its tasks' live counts, sent as its task
        table, segments and packed ``alive`` bits (see :func:`_scan_worker`)
        and folded in, in stage order, so the results and the simulated
        time do not depend on how stages are grouped into jobs. The job's
        labels, wall time and fold time are appended to ``jobs``."""
        di = self.di
        plan, sc = di.plan, di.rdd.context
        b_dim, n_nodes = plan.b_dim, plan.n_nodes
        width = plan.widths
        payload, meters = [], []
        for t in stages:
            ta, tb = np.searchsorted(tab.t0, [t - b_dim + 1, t + 1])
            s = t - tab.t0[ta:tb]
            b = tab.order[np.arange(ta, tb), s]
            node = plan.cell_node(tab.v[ta:tb], b)
            npairs = tab.live[ta:tb]
            skipped += np.bincount(s, np.diff(tab.first[ta:tb + 1]) - npairs,
                                   b_dim)
            live = npairs > 0
            if not live.any():
                continue
            # One request + one response message per live (query, wave)
            # task; survivor sets are resent after pruning (s > 0).
            down = live * (width[b] * BYTES_PER_SCALAR
                           + (s > 0) * npairs * BYTES_PER_POSITION)
            up = live * (k * BYTES_PER_RESULT if b_dim == 1
                         else npairs * BYTES_PER_PARTIAL)
            ops, down, up, msgs = (np.bincount(node, x, n_nodes) for x in
                                   (npairs * width[b], down, up, 2.0 * live))
            metrics.record_stage(tab.labels[t], ops, down, up, msgs)
            seg = tab.seg0[ta:tb + 1]
            table = np.stack([node, tab.q[ta:tb], np.diff(seg), npairs],
                             axis=1)
            payload.append((table.astype(np.int32), tab.segs[seg[0]:seg[-1]],
                            np.packbits(tab.alive[tab.first[ta]:
                                                  tab.first[tb]])))
            meters.append((t, ta, tb, s, node))
        if not payload:
            return
        labels = [tab.labels[m[0]] for m in meters]
        prev_desc = sc.getLocalProperty("spark.job.description")
        sc.setJobDescription(" ".join(labels))
        tic = time.perf_counter()
        bc = sc.broadcast((payload, queries, k if b_dim == 1 else None))
        try:
            results = di.rdd.mapPartitions(_scan_worker(bc, plan)).collect()
        finally:
            bc.unpersist()
            sc.setJobDescription(prev_desc)
        wall_s = time.perf_counter() - tic
        by_stage: list[dict] = [{} for _ in meters]
        for i, n, keep, d in results:
            by_stage[i][n] = (keep, d)
        tic = time.perf_counter()
        for (_, ta, tb, s, node), res in zip(meters, by_stage):
            self._fold(tab, ta, tb, s, node, res, topk)
            # Completed waves feed the heap → tighter τ² for the waves
            # still in flight (the pipeline's pruning win).
            self._finish(tab, ta, ta + np.count_nonzero(s == b_dim - 1), topk)
        jobs.append((labels, wall_s, time.perf_counter() - tic))

    def _fold(self, tab, ta, tb, s, node, res, topk) -> None:
        """Fold a stage's results into tasks ``[ta, tb)``.

        Each task with live candidates adds its slice of its node's dense
        partial sums into ``S²`` (a dead candidate gains 0 and is never read
        again). Unless it is at its last position, it is then pruned with
        ``prune_mask`` against its query's τ²·(1 + margin), read before any
        heap update of the stage, and its live count is updated. After a
        worker-local top-k (``B_dim = 1``) only the kept candidates stay
        alive, with their distances."""
        b_dim = self.di.plan.b_dim
        if b_dim == 1:
            ca = tab.first[ta]
            tab.alive[ca:tab.first[tb]] = False
            for keep, d in res.values():
                tab.alive[ca + keep] = True
                tab.s2[ca + keep] = d
            return
        tau2 = topk.dists[tab.q[ta:tb], -1] * (1.0 + _PRUNE_MARGIN)
        prune = self.use_pruning & (s < b_dim - 1)
        first = tab.first[ta:tb + 1].tolist()
        taken = dict.fromkeys(res, 0)
        for t, a, b, n, thr, cut, live in zip(
                range(ta, tb), first, first[1:], node.tolist(), tau2.tolist(),
                prune.tolist(), tab.live[ta:tb].tolist()):
            if not live:
                continue
            part = res[n][1]
            o = taken[n]
            taken[n] = o + b - a
            s2 = tab.s2[a:b]
            s2 += part[o:o + b - a]
            if cut:
                alive = tab.alive[a:b]
                alive &= prune_mask(s2, thr)
                tab.live[t] = np.count_nonzero(alive)

    def _finish(self, tab, ta, tb, topk) -> None:
        """One ``TopK.update`` per finishing task in ``[ta, tb)`` that has a
        live candidate within its query's τ², with those candidates' ids and
        full distances ``S²``. This is the cut ``update`` makes first; τ² is
        read once per chunk, and it only tightens, so ``update`` gets every
        candidate it would keep."""
        _, base, vector_ids = self.di.shard_rows()
        seg_first = np.cumsum(tab.segs[:, 1]) - tab.segs[:, 1]
        for i, j in _chunks(tab.first, ta, tb):
            ca, cb = tab.first[i], tab.first[j]
            tau2 = np.repeat(topk.dists[tab.q[i:j], -1],
                             np.diff(tab.first[i:j + 1]))
            idx = np.flatnonzero(tab.alive[ca:cb] & (tab.s2[ca:cb] <= tau2))
            if not len(idx):
                continue
            idx += ca
            seg = np.searchsorted(seg_first, idx, "right") - 1
            task = np.searchsorted(tab.first, idx, "right") - 1
            row = tab.segs[seg, 0] + (idx - seg_first[seg])
            ids = vector_ids[base[tab.v[task]] + row]
            cut = np.flatnonzero(np.diff(task)) + 1
            for t, i_t, d_t in zip(task[np.append(0, cut)], np.split(ids, cut),
                                   np.split(tab.s2[idx], cut)):
                topk.update(int(tab.q[t]), i_t, d_t)
