"""Persist regenerated tables under ``results/`` for EXPERIMENTS.md."""
from __future__ import annotations

import os

from repro.experiments.tables import format_table

#: Output directory (repo-root relative unless REPRO_RESULTS overrides).
RESULTS_DIR = os.environ.get("REPRO_RESULTS", "results")


def write_table(name: str, rows: list[dict], header: str) -> str:
    """Write ``header`` and ``rows`` as a plain-text table to
    ``results/<name>.txt`` (also returns the rendered text for stdout)."""
    text = header.rstrip() + "\n\n" + format_table(rows)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.txt")
    with open(path, "w") as f:
        f.write(text + "\n")
    return text
