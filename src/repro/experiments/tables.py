"""Row generators for every evaluation table and figure (paper §6).

Each function returns a list of dicts — one per table row — in the
paper's row order, and ``PAPER_TABLE*`` constants hold the published
numbers so EXPERIMENTS.md (and the tables) can show paper-vs-measured
side by side. :mod:`repro.experiments.registry` runs them.
"""
from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.baseline.exact import exact_knn, recall_at_k
from repro.baseline.faiss_lite import search_ivf_flat
from repro.experiments.runner import (
    MACHINE,
    DatasetBundle,
    ExperimentConfig,
    qps,
)
from repro.vectors.specs import get_spec

# ---------------------------------------------------------------------------
# Table 2 — dataset statistics
# ---------------------------------------------------------------------------

PAPER_TABLE2 = {
    "star": (823_600, 1024, 1_000, "Time Series"),
    "msong": (992_272, 420, 1_000, "Audio"),
    "sift1m": (1_000_000, 128, 10_000, "Image"),
    "deep1m": (1_000_000, 256, 1_000, "Image"),
    "word2vec": (1_000_000, 300, 1_000, "Word Vectors"),
    "hand": (1_000_000, 2709, 370, "Time Series"),
    "glove1.2m": (1_193_514, 200, 1_000, "Text"),
    "glove2.2m": (2_196_017, 300, 1_000, "Text"),
    "spacev1b": (1_000_000_000, 100, 10_000, "Text"),
    "sift1b": (1_000_000_000, 128, 10_000, "Image"),
}


def table2_rows(
    cfg: ExperimentConfig, names=tuple(PAPER_TABLE2)
) -> list[dict]:
    """Table 2 at our scale: per dataset, lite size / dim / queries."""
    rows = []
    for name in names:
        spec = get_spec(name)
        sf = cfg.sf_for(spec)
        p_size, p_dim, p_q, p_type = PAPER_TABLE2[name]
        rows.append(
            {
                "dataset": name,
                "paper_size": p_size,
                "size": spec.n_base(sf),
                "paper_dim": p_dim,
                "dim": spec.dim,
                "paper_queries": p_q,
                "queries": spec.n_query(sf),
                "data_type": spec.data_type,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Table 3 — per-slice pruning ratios (4 dimension slices, 4 nodes)
# ---------------------------------------------------------------------------

PAPER_TABLE3 = {  # dataset -> (slice1..slice4 %, average %)
    "msong": (0.00, 43.14, 76.06, 95.29, 53.87),
    "glove1.2m": (0.00, 1.54, 30.71, 86.66, 29.73),
    "word2vec": (0.00, 24.85, 53.77, 83.66, 40.32),
    "deep1m": (0.00, 7.67, 66.09, 97.36, 42.03),
    "sift1m": (0.00, 41.76, 85.04, 98.40, 57.05),
    "star": (0.00, 81.24, 95.23, 99.05, 69.14),
    "glove2.2m": (0.00, 5.14, 30.70, 81.18, 29.76),
    "hand": (0.00, 63.54, 91.62, 98.10, 63.83),
}


def table3_rows(bundle: DatasetBundle) -> list[dict]:
    """Per-slice pruning of one dataset in the Table-3 configuration
    (§6.3.3): dimensional split of size 4 across four nodes — pure
    dimension partitioning, static slice order, so pipeline position k
    == dimension slice k."""
    cfg = bundle.cfg
    s = bundle.searcher("dimension").with_engine(schedule="static")
    res = s.search(bundle.queries, k=cfg.k, nprobe=cfg.nprobe)
    ratios = res.report.pruning_ratios() * 100.0
    row = {"dataset": bundle.name}
    for i in range(4):
        row[f"slice{i + 1}"] = float(ratios[i]) if i < len(ratios) else 0.0
    row["average"] = float(np.mean([row[f"slice{i + 1}"] for i in range(4)]))
    paper = PAPER_TABLE3.get(bundle.name)
    if paper:
        row["paper_average"] = paper[4]
    return [row]


# ---------------------------------------------------------------------------
# Table 4 — index memory comparison
# ---------------------------------------------------------------------------

PAPER_TABLE4 = {  # dataset -> (faiss, vector, dimension, harmony) in MB
    "star": (3276.8, 788, 815, 798),
    "msong": (1638.4, 411, 418, 413),
    "sift1m": (497, 126, 131, 128),
    "deep1m": (986, 245, 253, 250),
    "word2vec": (1228.8, 258, 295, 279),
    "hand": (6246.4, 1536, 1576.9, 1546.2),
    "glove1.2m": (921, 227, 238, 233),
    "glove2.2m": (2560, 660, 697, 686),
}


def table4_row(bundle: DatasetBundle) -> dict:
    """Index memory: single-node Faiss bytes vs per-node bytes (mean
    over the 4 nodes, the paper's single per-node figure) of each
    distribution, including the dimension-partition accumulator
    overhead (§6.4.2)."""
    faiss_b = bundle.ivf.memory_bytes()
    row = {"dataset": bundle.name, "faiss_mb": faiss_b / 1e6}
    for mode, col in (
        ("vector", "vector_mb"),
        ("dimension", "dimension_mb"),
        ("harmony", "harmony_mb"),
    ):
        s = bundle.searcher(mode)
        row[col] = float(s.di.node_memory_bytes().mean()) / 1e6
    return row


# ---------------------------------------------------------------------------
# Table 5 — peak query-time memory
# ---------------------------------------------------------------------------

PAPER_TABLE5 = {  # dataset -> (vector, harmony, dimension) in GB
    "star": (3.94, 4.01, 4.07),
    "msong": (1.15, 1.32, 1.46),
    "sift1m": (1.37, 1.72, 1.96),
    "deep1m": (1.23, 1.61, 1.88),
    "word2vec": (0.658, 0.723, 0.812),
    "hand": (11.06, 11.19, 11.33),
    "glove1.2m": (0.814, 0.932, 1.06),
    "glove2.2m": (1.64, 1.98, 2.23),
}


def table5_row(bundle: DatasetBundle) -> dict:
    """Peak per-node memory while serving the query workload: resident
    index + accumulators + peak transient stage buffers (mean over
    nodes, matching Table 4's per-node reporting)."""
    cfg = bundle.cfg
    row = {"dataset": bundle.name}
    for mode, col in (
        ("vector", "vector_mb"),
        ("harmony", "harmony_mb"),
        ("dimension", "dimension_mb"),
    ):
        s = bundle.searcher(mode)
        res = s.search(bundle.queries, k=cfg.k, nprobe=cfg.nprobe)
        peak = (
            s.di.node_memory_bytes() + res.report.metrics.peak_buffer_bytes
        )
        row[col] = float(peak.mean()) / 1e6
    return row


# ---------------------------------------------------------------------------
# Figure-level shape checks (headline claims, recorded in EXPERIMENTS.md)
# ---------------------------------------------------------------------------


def fig6_rows(bundle: DatasetBundle, nprobes=(2, 4, 8, 16)) -> list[dict]:
    """QPS-recall trade-off: simulated QPS of Faiss (1 node) vs the three
    Harmony modes (4 nodes) across an ``nprobe`` sweep (Fig. 6)."""
    cfg = bundle.cfg
    true_ids, _ = exact_knn(bundle.x, bundle.queries, cfg.k)
    rows = []
    for nprobe in nprobes:
        base = search_ivf_flat(bundle.ivf, bundle.queries, cfg.k, nprobe)
        row = {
            "dataset": bundle.name,
            "nprobe": nprobe,
            "recall": recall_at_k(base.ids, true_ids),
            "faiss_qps": qps(
                len(bundle.queries), base.simulated_seconds(MACHINE)
            ),
        }
        for mode in ("vector", "dimension", "harmony"):
            s = bundle.searcher(mode)
            res = s.search(bundle.queries, k=cfg.k, nprobe=nprobe)
            row[f"{mode}_qps"] = qps(
                len(bundle.queries), res.report.simulated_seconds(MACHINE)
            )
        rows.append(row)
    return rows


def fig7_rows(
    bundle: DatasetBundle, fracs=(0.0, 0.3, 0.6, 0.9)
) -> list[dict]:
    """QPS under increasing load imbalance (Fig. 7): a fraction ``frac``
    of queries is aimed at one node's shard. Vector partitioning should
    degrade sharply; dimension and harmony stay stable."""
    cfg = bundle.cfg
    rows = []
    for frac in fracs:
        queries = bundle.imbalanced_workload(frac)
        row = {"dataset": bundle.name, "hot_frac": frac}
        for mode in ("vector", "dimension", "harmony"):
            # Baseline modes keep their skew-blind (traditional) layout;
            # only adaptive harmony re-plans against the skewed profile.
            if mode == "harmony":
                s = bundle.searcher(mode, profile_queries=queries)
            else:
                s = bundle.searcher(mode)
            res = s.search(queries, k=cfg.k, nprobe=cfg.nprobe)
            row[f"{mode}_qps"] = qps(
                len(queries), res.report.simulated_seconds(MACHINE)
            )
            if mode == "vector":
                row["load_std"] = res.report.metrics.imbalance()
            if mode == "harmony":
                row["harmony_grid"] = (
                    f"{s.di.plan.b_vec}x{s.di.plan.b_dim}"
                )
        rows.append(row)
    return rows


def fig9_rows(bundle: DatasetBundle) -> list[dict]:
    """Optimization-contribution ablation (Fig. 9): speedup from balanced
    load, pipeline+async execution, and pruning, each isolated.

    ``pruning_speedup`` is the simulated-time ratio; for datasets whose
    distance energy concentrates in the first dimension block, the
    first block's node is a genuine hot spot that pruning cannot
    relieve, so ``pruning_ops_reduction`` (total distance-work saved —
    the quantity Table 3 measures) is reported alongside.
    """
    cfg = bundle.cfg
    queries = bundle.imbalanced_workload(0.5)

    def run(searcher, blocking=False):
        m = replace(MACHINE, blocking=True) if blocking else MACHINE
        res = searcher.search(queries, k=cfg.k, nprobe=cfg.nprobe)
        return (
            res.report.metrics.simulated_seconds(m),
            float(res.report.metrics.node_ops().sum()),
        )

    full = bundle.searcher("harmony", profile_queries=queries)
    t_full, ops_full = run(full)
    t_no_balance, _ = run(
        bundle.searcher("harmony", profile_queries=queries, balanced=False)
    )
    t_no_pipeline, _ = run(
        full.with_engine(schedule="static", n_waves=1), blocking=True
    )
    t_no_pruning, ops_no_pruning = run(
        full.with_engine(use_pruning=False)
    )
    return [
        {
            "dataset": bundle.name,
            "balanced_load_speedup": t_no_balance / t_full,
            "pipeline_async_speedup": t_no_pipeline / t_full,
            "pruning_speedup": t_no_pruning / t_full,
            "pruning_ops_reduction": ops_no_pruning / max(ops_full, 1.0),
        }
    ]


def fig11_rows(bundle: DatasetBundle, nodes=(2, 4, 8)) -> list[dict]:
    """Scalability (Fig. 11b): simulated speedup of each mode on ``n``
    nodes over 1-node faiss_lite, for each ``n`` in ``nodes``."""
    cfg = bundle.cfg
    t1 = bundle.faiss().simulated_seconds(MACHINE)
    rows = []
    for n in nodes:
        row = {"dataset": bundle.name, "nodes": n,
               "faiss_qps": qps(len(bundle.queries), t1)}
        for mode in ("vector", "dimension", "harmony"):
            s = bundle.searcher(mode, n_nodes=n)
            res = s.search(bundle.queries, k=cfg.k, nprobe=cfg.nprobe)
            row[f"{mode}_speedup"] = t1 / res.report.simulated_seconds(
                MACHINE
            )
        rows.append(row)
    return rows


def format_table(rows: list[dict]) -> str:
    """Plain-text table, floats to 2 places, for stdout / EXPERIMENTS.md."""
    if not rows:
        return "(no rows)"
    cols = list(rows[0].keys())
    out_rows = [cols]
    for r in rows:
        out_rows.append(
            [
                f"{v:.2f}" if isinstance(v, float) else str(v)
                for v in (r.get(c, "") for c in cols)
            ]
        )
    widths = [max(len(row[i]) for row in out_rows) for i in range(len(cols))]
    lines = []
    for i, row in enumerate(out_rows):
        lines.append(
            "  ".join(cell.rjust(w) for cell, w in zip(row, widths))
        )
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)
