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
  staggered stages: at global stage ``t``, wave ``w`` computes its
  dimension block number ``t - w`` (per-query block order from the
  scheduler), so all nodes stay busy and — crucially — early waves
  *complete* and tighten ``τ²`` while later waves are still mid-flight.
  The driver accumulates partial sums ``S²`` and prunes candidates with
  ``S² > τ²`` between stages (strict monotone test → exact w.r.t. the
  probed clusters).

In the dimension pipeline (``B_dim > 1``) each global stage runs as one
Spark job over the distributed cells, because τ² must tighten between
stages. On a pure vector grid (``B_dim = 1``) workers reduce to a local
top-k and never read τ², so all ``B_vec`` rounds run as one Spark job.
Either way every stage (a round, when ``B_dim = 1``) is metered on its
own: per-node ops, bytes down (query slices + survivor sets), bytes up
(partial sums / local top-k results), messages, transient buffers.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.layout import DistributedIndex
from repro.cluster.machine import MachineModel
from repro.cluster.metrics import ClusterMetrics
from repro.core.pruning import TopK
from repro.core.router import (
    assign_query_groups,
    dim_order,
    queries_per_vblock,
)
from repro.ivf.index import check_search_args, probe_clusters

#: Bytes on the wire per survivor position (int32 row index).
_POS_BYTES = 4
#: Bytes on the wire per partial distance (float64).
_PARTIAL_BYTES = 8
#: Bytes per transmitted query-slice scalar (float32).
_SCALAR_BYTES = 4
#: Bytes per (id, distance) result entry of a worker-local top-k.
_RESULT_BYTES = 12


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

    def pruning_ratios(self) -> np.ndarray:
        """Table 3 per-slice pruning ratios (fraction of distance
        calculations skipped at each pipeline position)."""
        if self.pairs_total == 0:
            return np.zeros(self.b_dim)
        return self.skipped_at_position / self.pairs_total

    def simulated_seconds(self, model: MachineModel) -> float:
        """Simulated elapsed seconds under ``model``."""
        return self.metrics.simulated_seconds(model)


@dataclass
class SearchResult:
    """Top-K answer plus the search report: ``ids``/``dists`` are
    ``(Q, k)`` arrays, distance-ascending, padded with ``(-1, inf)``."""

    ids: np.ndarray
    dists: np.ndarray
    report: SearchReport


def _stage_worker(payload_bc):
    """Worker closure for one Spark job of pipeline stages.

    ``payload_bc`` broadcasts ``(tasks, finalize_k)`` where ``tasks`` is
    ``{(vblock, dimblock): [(tag, qslice, [(cluster, positions)])]}``
    (``tag`` identifies the stage and the (query, wave) the work belongs
    to).

    * ``finalize_k is None``: nodes return partial squared-L2 sums
      ``(tag, cluster, None, partials)`` for the master to accumulate.
    * ``finalize_k = k`` (full-dimension cells, ``B_dim = 1``): the node
      holds whole vectors, so — like a real Harmony-vector worker — it
      reduces to its *local top-k* per task and ships only ``k`` results
      ``(tag, cluster, positions_subset, dists_subset)``.
    """

    def fn(cells):
        out = []
        tasks_by_cell, finalize_k = payload_bc.value
        for cell in cells:
            tasks = tasks_by_cell.get((cell.vblock, cell.dimblock))
            if not tasks:
                continue
            for tag, qslice, cl_list in tasks:
                per_t = []
                for c, pos in cl_list:
                    mat = cell.clusters.get(int(c))
                    if mat is None or len(pos) == 0:
                        continue
                    diff = mat[pos] - qslice
                    d = (diff * diff).sum(axis=1).astype(np.float64)
                    per_t.append((int(c), pos, d))
                if finalize_k is None:
                    out.extend((tag, c, None, d) for c, _, d in per_t)
                elif per_t:
                    all_d = np.concatenate([d for _, _, d in per_t])
                    kk = min(finalize_k, len(all_d))
                    cut = np.partition(all_d, kk - 1)[kk - 1]
                    for c, pos, d in per_t:
                        keep = d <= cut
                        out.append((tag, c, pos[keep], d[keep]))
        return out

    return fn


class _Wave:
    """One staggered candidate wave of one query within a round."""

    __slots__ = ("q", "v", "w", "entries")

    def __init__(self, q: int, v: int, w: int, entries: list):
        self.q = q  # query id
        self.v = v  # vector shard of this round
        self.w = w  # wave index (stagger offset)
        self.entries = entries  # [[cluster, positions, S²], ...]

    def alive(self) -> int:
        return sum(len(e[1]) for e in self.entries)


class HarmonyEngine:
    """Drives distributed top-K search over a :class:`DistributedIndex`."""

    def __init__(
        self,
        dindex: DistributedIndex,
        machine: MachineModel | None = None,
        schedule: str = "rotate",
        use_pruning: bool = True,
        n_waves: int = 4,
        prune_margin: float = 1e-5,
    ):
        self.di = dindex
        self.machine = machine or MachineModel()
        self.schedule = schedule
        self.use_pruning = use_pruning
        #: Candidate waves per round; 1 disables intra-round pipelining
        #: (the "w/o pipeline" ablation of Fig. 9 uses static + 1 wave).
        self.n_waves = n_waves
        self.prune_margin = prune_margin

    # -----------------------------------------------------------------
    def search(
        self, queries: np.ndarray, k: int = 10, nprobe: int = 8
    ) -> SearchResult:
        """Approximate top-``k`` over the probed clusters of each query.

        Exact within the probed clusters: pruning uses the strict
        monotone test, so results match a full scan of the same clusters.
        A bad ``queries``, ``k`` or ``nprobe`` raises ``ValueError``.
        """
        di = self.di
        plan = di.plan
        b_vec, b_dim = plan.b_vec, plan.b_dim
        sc = di.rdd.context
        queries = check_search_args(queries, di.dim, k, nprobe)
        n_q = len(queries)
        sizes = di.cluster_sizes()
        metrics = ClusterMetrics(plan.n_nodes)

        # Client: centroid assignment (§4.2.2 step 1).
        probes = probe_clusters(di.centroids, queries, nprobe)
        metrics.client_ops += n_q * di.nlist * di.dim

        # Prewarm (Alg. 1 lines 1-5): score each query's nearest-cluster
        # sample on the client to seed the heap / initial τ².
        topk = TopK(n_q, k)
        done: dict[tuple[int, int], int] = {}
        for q in range(n_q):
            c0 = int(probes[q, 0])
            pw = di.prewarm_rows.get(c0)
            if pw is None or not len(pw):
                continue
            diff = pw - queries[q]
            d = (diff * diff).sum(axis=1).astype(np.float64)
            topk.update(q, di.cluster_ids[c0][: len(pw)], d)
            done[(q, c0)] = len(pw)
            metrics.client_ops += len(pw) * di.dim

        per_v = queries_per_vblock(plan, probes)
        groups = assign_query_groups(n_q, b_vec)
        skipped = np.zeros(b_dim)
        pairs_total = 0
        margin = 1.0 + self.prune_margin

        if b_dim == 1:
            # Vector pipeline on whole-vector cells (Fig. 5a): workers
            # reduce to a local top-k and never read τ², so the B_vec
            # rounds do not depend on each other and share one Spark job.
            stages = []
            for r in range(b_vec):
                waves = self._build_waves(r, per_v, groups, done, sizes, 1)
                pairs_total += sum(wv.alive() for wv in waves)
                stages.append((f"r{r}t0", [(wv, 0) for wv in waves]))
            self._run_stage(stages, None, queries, k, topk, metrics,
                            margin, sc)
        else:
            n_waves = max(1, self.n_waves)
            for r in range(b_vec):  # vector pipeline rounds (Fig. 5a)
                waves = self._build_waves(
                    r, per_v, groups, done, sizes, n_waves
                )
                if not waves:
                    continue
                wave_pairs = {id(wv): wv.alive() for wv in waves}
                pairs_total += sum(wave_pairs.values())

                # Per-(query, wave) dimension-block orders (scheduler,
                # §4.3). An order is fixed when the wave *starts*, so the
                # load-aware policy sees live node loads — later work
                # defers the overloaded node's block to its final stages,
                # exactly the paper's dynamic reordering example (Fig. 5b,
                # Q2/D1).
                orders: dict[tuple[int, int], list[int]] = {}

                for t in range(b_dim + n_waves - 1):  # global stages
                    active = [
                        (wv, t - wv.w)
                        for wv in waves
                        if 0 <= t - wv.w < b_dim
                    ]
                    if not active:
                        continue
                    node_loads = metrics.node_ops()
                    for wv, s in active:
                        if (wv.q, wv.w) not in orders:
                            orders[(wv.q, wv.w)] = dim_order(
                                self.schedule,
                                wv.q,
                                b_dim,
                                np.array(
                                    [
                                        node_loads[plan.cell_node(wv.v, b)]
                                        for b in range(b_dim)
                                    ]
                                ),
                            )
                    for wv, s in active:
                        skipped[s] += wave_pairs[id(wv)] - wv.alive()
                    # One stage per job: τ² must tighten between stages.
                    self._run_stage(
                        [(f"r{r}t{t}", active)], orders, queries, k,
                        topk, metrics, margin, sc,
                    )
                    # Completed waves feed the heap → tighter τ² for the
                    # waves still in flight (the pipeline's pruning win).
                    for wv, s in active:
                        if s == b_dim - 1:
                            for c, pos, s2 in wv.entries:
                                if len(pos):
                                    topk.update(
                                        wv.q, di.cluster_ids[c][pos], s2
                                    )
                            for e in wv.entries:
                                e[1] = e[1][:0]

        ids, dists = topk.result()
        report = SearchReport(
            metrics=metrics,
            pairs_total=pairs_total,
            skipped_at_position=skipped,
            b_dim=b_dim,
        )
        return SearchResult(ids=ids, dists=dists, report=report)

    # -----------------------------------------------------------------
    def _build_waves(
        self, r, per_v, groups, done, sizes, n_waves
    ) -> list[_Wave]:
        """Candidate waves for round ``r``: group ``g`` visits shard
        ``(g+r) mod B_vec``; each query's candidate rows are split into
        ``n_waves`` contiguous chunks (stagger offsets 0..n_waves-1)."""
        plan = self.di.plan
        waves: list[_Wave] = []
        for g in range(plan.b_vec):
            v = (g + r) % plan.b_vec
            for q in np.nonzero(groups == g)[0]:
                cl = per_v[v].get(int(q))
                if cl is None:
                    continue
                per_wave: list[list] = [[] for _ in range(n_waves)]
                for c in cl:
                    start = done.get((int(q), int(c)), 0)
                    if sizes[c] <= start:
                        continue
                    pos = np.arange(start, sizes[c], dtype=np.int64)
                    for w, chunk in enumerate(
                        np.array_split(pos, n_waves)
                    ):
                        if len(chunk):
                            per_wave[w].append(
                                [int(c), chunk, np.zeros(len(chunk))]
                            )
                for w, entries in enumerate(per_wave):
                    if entries:
                        waves.append(_Wave(int(q), v, w, entries))
        return waves

    # -----------------------------------------------------------------
    def _run_stage(
        self, stages, orders, queries, k, topk, metrics, margin, sc
    ) -> None:
        """Execute pipeline stages as one Spark job and fold results in.

        ``stages`` is ``[(label, active), ...]`` with ``active`` the
        stage's ``(wave, position)`` pairs, and ``orders`` maps
        ``(query, wave)`` to its dimension-block order (``None`` when
        ``B_dim = 1``). The dimension pipeline passes one stage per job,
        because τ² must tighten between stages. A ``B_dim = 1`` search
        passes all its ``B_vec`` rounds at once: their workers reduce to
        a local top-k and never read τ². Task tags are numbered across
        the job's stages, so a result's tag also names its stage. Each
        stage is still metered as its own :class:`StageRecord` and then
        folded in, in stage order, so the results and the simulated time
        do not depend on the grouping.
        """
        di = self.di
        plan = di.plan
        b_dim = plan.b_dim
        payload: dict = {}
        # Per non-empty stage: (label, tag -> (wave, position), ops,
        # bytes down, bytes up, messages).
        meters = []
        tag = 0
        for label, active in stages:
            tag_to_wave: dict[int, tuple[_Wave, int]] = {}
            ops = np.zeros(plan.n_nodes)
            down = np.zeros(plan.n_nodes)
            up = np.zeros(plan.n_nodes)
            n_tasks = np.zeros(plan.n_nodes)
            for wv, s in active:
                b = 0 if orders is None else orders[(wv.q, wv.w)][s]
                lo, hi = plan.dim_bounds[b]
                node = plan.cell_node(wv.v, b)
                cl_list = [(c, pos) for c, pos, _ in wv.entries if len(pos)]
                if not cl_list:
                    continue
                tag_to_wave[tag] = (wv, s)
                payload.setdefault((wv.v, b), []).append(
                    (tag, queries[wv.q, lo:hi], cl_list)
                )
                tag += 1
                npairs = sum(len(p) for _, p in cl_list)
                n_tasks[node] += 1
                ops[node] += npairs * (hi - lo)
                down[node] += (hi - lo) * _SCALAR_BYTES
                if s > 0:  # survivor sets resent after pruning
                    down[node] += npairs * _POS_BYTES
                if b_dim == 1:  # worker-local top-k reduction
                    up[node] += k * _RESULT_BYTES
                else:
                    up[node] += npairs * _PARTIAL_BYTES
            if tag_to_wave:
                # One request + one response message per (query, wave)
                # task.
                meters.append((label, tag_to_wave, ops, down, up,
                               2.0 * n_tasks))
        if not payload:
            return
        finalize_k = k if b_dim == 1 else None
        prev_desc = sc.getLocalProperty("spark.job.description")
        sc.setJobDescription(" ".join(m[0] for m in meters))
        bc = sc.broadcast((payload, finalize_k))
        try:
            results = di.rdd.mapPartitions(_stage_worker(bc)).collect()
        finally:
            bc.unpersist()
            sc.setJobDescription(prev_desc)
        stage_of = {t: i for i, m in enumerate(meters) for t in m[1]}
        by_stage: list[list] = [[] for _ in meters]
        for res in results:
            by_stage[stage_of[res[0]]].append(res)
        for (label, tag_to_wave, ops, down, up, msgs), stage_results in zip(
            meters, by_stage
        ):
            metrics.record_stage(
                label, ops, down, up, msgs, buffer_bytes=down + up
            )
            if b_dim == 1:
                # Vector-partitioned round: workers returned their local
                # top-k directly; fold it into the heaps and consume.
                for tag, c, pos_sub, d_sub in stage_results:
                    wv, _ = tag_to_wave[tag]
                    topk.update(wv.q, di.cluster_ids[c][pos_sub], d_sub)
                for wv, _ in tag_to_wave.values():
                    for e in wv.entries:
                        e[1] = e[1][:0]
                continue
            res_map = {(tag, c): p for tag, c, _, p in stage_results}
            for tag, (wv, s) in tag_to_wave.items():
                tau2 = topk.threshold(wv.q) * margin
                do_prune = (
                    self.use_pruning and s < b_dim - 1
                    and np.isfinite(tau2)
                )
                for e in wv.entries:
                    c, pos, s2 = e
                    if not len(pos):
                        continue
                    s2 = s2 + res_map[(tag, c)]
                    if do_prune:
                        keep = s2 <= tau2
                        e[1], e[2] = pos[keep], s2[keep]
                    else:
                        e[1], e[2] = pos, s2
