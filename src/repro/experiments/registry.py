"""The experiment registry: every evaluation table and figure of paper §6.

Usage: ``python -m repro.experiments NAME... [--sf SF] [--datasets ...]``
where NAME is a key of :data:`EXPERIMENTS` or ``all``. Each experiment
writes ``results/<NAME>.txt`` and checks its shape; the exit status is 1
when a check fails. ``benchmarks/bench_experiments.py`` times the same
:func:`run`.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from typing import Callable

from pyspark.sql import SparkSession

from repro.experiments.report import write_table
from repro.experiments.runner import DatasetBundle, ExperimentConfig
from repro.experiments.tables import (
    PAPER_TABLE2,
    fig6_rows,
    fig7_rows,
    fig9_rows,
    fig11_rows,
    table2_rows,
    table3_rows,
    table4_row,
    table5_row,
)
from repro.sparkutil import get_session
from repro.vectors.specs import SMALL_DATASETS, SPECS

#: The datasets of the figure-level shape checks.
FIG_DATASETS = ("sift1m", "star", "glove1.2m")


@dataclass(frozen=True)
class Experiment:
    """One table or figure: its default datasets, its rows for one
    dataset's bundle, its title (``{sf}`` is the scale factor) and a
    shape check over all its rows."""

    datasets: tuple[str, ...]
    rows: Callable[[DatasetBundle], list[dict]]
    title: str
    check: Callable[[list[dict]], bool] = lambda rows: True


def _top(rows: list[dict], col: str) -> list[dict]:
    """The rows at the largest value of ``col``."""
    top = max(r[col] for r in rows)
    return [r for r in rows if r[col] == top]


EXPERIMENTS = {
    "table2": Experiment(
        tuple(PAPER_TABLE2),
        lambda b: table2_rows(b.cfg, (b.name,)),
        "Table 2 — dataset statistics (lite analogs)",
        lambda rows: len(rows) == len({r["dataset"] for r in rows}),
    ),
    "table3": Experiment(
        SMALL_DATASETS,
        table3_rows,
        "Table 3 — average pruning ratio across four nodes (%)",
        # slice 1 never prunes, later slices prune more
        lambda rows: all(
            r["slice1"] == 0.0 and r["slice2"] <= r["slice3"] <= r["slice4"]
            for r in rows
        ),
    ),
    "table4": Experiment(
        SMALL_DATASETS,
        lambda b: [table4_row(b)],
        "Table 4 — index memory (MB): single-node Faiss vs per-node mean "
        "of the distributed layouts",
        lambda rows: all(
            r["vector_mb"] < r["faiss_mb"] / 2
            and r["dimension_mb"] > r["vector_mb"]
            for r in rows
        ),
    ),
    "table5": Experiment(
        SMALL_DATASETS,
        lambda b: [table5_row(b)],
        "Table 5 — peak per-node memory during queries (MB)",
        lambda rows: all(r["vector_mb"] <= r["dimension_mb"] for r in rows),
    ),
    "fig6": Experiment(
        FIG_DATASETS,
        fig6_rows,
        "Fig. 6 shape check — simulated QPS vs recall "
        "(sf={sf}, 4 nodes vs 1-node faiss_lite)",
        # at the top nprobe some distributed mode beats the single-node
        # baseline (scalability claim)
        lambda rows: all(
            max(r["vector_qps"], r["dimension_qps"], r["harmony_qps"])
            > r["faiss_qps"]
            for r in _top(rows, "nprobe")
        ),
    ),
    "fig7": Experiment(
        FIG_DATASETS,
        fig7_rows,
        "Fig. 7 shape check — simulated QPS under load imbalance",
        # under the heaviest imbalance the traditional vector layout is
        # well below Harmony (some datasets — e.g. glove — are already
        # skewed at frac 0, so compare against harmony rather than
        # requiring further degradation)
        lambda rows: all(
            r["vector_qps"] < 0.85 * r["harmony_qps"]
            for r in _top(rows, "hot_frac")
        ),
    ),
    "fig9": Experiment(
        FIG_DATASETS,
        fig9_rows,
        "Fig. 9 shape check — per-technique speedup ablation",
    ),
    "fig11": Experiment(
        ("sift1m",),
        fig11_rows,
        "Fig. 11b shape check — speedup over 1-node faiss_lite by node count",
    ),
}


def run(
    spark: SparkSession,
    names: list[str],
    cfg: ExperimentConfig,
    bundles: dict[str, DatasetBundle],
    datasets: list[str] | None = None,
) -> list[str]:
    """Run each experiment in ``names`` on ``datasets`` (default: its
    own), write its table and return the names whose check failed.

    ``bundles`` caches one bundle per dataset across the experiments;
    the caller owns it and closes its bundles.
    """
    failed = []
    for name in names:
        exp = EXPERIMENTS[name]
        rows = []
        for d in datasets or exp.datasets:
            if d not in bundles:
                bundles[d] = DatasetBundle(spark, d, cfg)
            rows.extend(exp.rows(bundles[d]))
        print(write_table(name, rows, exp.title.format(sf=cfg.sf)))
        if not exp.check(rows):
            failed.append(name)
    return failed


def main(argv: list[str] | None = None) -> int:
    """Command-line entry point; returns the exit status."""
    p = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures into "
        "results/*.txt and check their shape.",
    )
    p.add_argument("names", nargs="+", metavar="NAME",
                   choices=[*EXPERIMENTS, "all"],
                   help=f"one of {', '.join(EXPERIMENTS)}, or all")
    p.add_argument("--sf", type=float, default=ExperimentConfig.sf,
                   help="scale factor (paper size x sf vectors)")
    p.add_argument("--datasets", nargs="+", choices=sorted(SPECS),
                   metavar="DATASET",
                   help="datasets to run instead of each experiment's own")
    args = p.parse_args(argv)
    names = list(EXPERIMENTS) if "all" in args.names else args.names
    owned = SparkSession.getActiveSession() is None
    spark = get_session("repro-experiments")
    bundles: dict[str, DatasetBundle] = {}
    try:
        failed = run(spark, names, ExperimentConfig(sf=args.sf), bundles,
                     args.datasets)
    finally:
        for b in bundles.values():
            b.close()
        if owned:
            spark.stop()
    for name in failed:
        print(f"shape check failed: {name}", file=sys.stderr)
    return 1 if failed else 0
