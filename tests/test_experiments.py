"""Experiment harness: table row generators produce the paper's shapes."""
import numpy as np
import pytest

import repro.cluster.layout
import repro.ivf.index
from repro.experiments import report
from repro.experiments.registry import EXPERIMENTS, main
from repro.experiments.runner import DatasetBundle, ExperimentConfig, qps
from repro.experiments.tables import (
    PAPER_TABLE2,
    PAPER_TABLE3,
    PAPER_TABLE4,
    PAPER_TABLE5,
    fig6_rows,
    fig7_rows,
    fig9_rows,
    fig11_rows,
    format_table,
    table2_rows,
    table4_row,
    table5_row,
)
from repro.ivf.kmeans import kmeans

CFG = ExperimentConfig(sf=0.002, nlist=16, nprobe=6, k=5,
                       prewarm_per_cluster=8)


@pytest.fixture(scope="module")
def bundle(spark):
    b = DatasetBundle(spark, "sift1m", CFG)
    yield b
    b.close()


def test_paper_constants_cover_eight_small_sets():
    assert len(PAPER_TABLE3) == len(PAPER_TABLE4) == len(PAPER_TABLE5) == 8
    assert len(PAPER_TABLE2) == 10


def test_table2_rows_complete():
    rows = table2_rows(CFG)
    assert len(rows) == 10
    for r in rows:
        assert r["dim"] == r["paper_dim"]  # dims preserved exactly
        assert 0 < r["size"] < r["paper_size"]
        assert 16 <= r["queries"] <= 256


def test_table3_row_shape(bundle):
    (row,) = EXPERIMENTS["table3"].rows(bundle)
    assert row["slice1"] == 0.0
    slices = [row[f"slice{i}"] for i in range(1, 5)]
    assert all(0 <= s <= 100 for s in slices)
    assert slices == sorted(slices)  # later slices prune more
    assert row["average"] == pytest.approx(np.mean(slices))


def test_table4_row_shape(bundle):
    row = table4_row(bundle)
    # distributed per-node memory ~ 1/4 of the single-node index
    for col in ("vector_mb", "dimension_mb", "harmony_mb"):
        assert row[col] < row["faiss_mb"] / 2
    # dimension partitioning carries the accumulator overhead
    assert row["dimension_mb"] > row["vector_mb"]
    # harmony sits near the fixed modes (paper: within a few % of them)
    assert row["harmony_mb"] <= row["dimension_mb"] * 1.05
    assert row["harmony_mb"] >= row["vector_mb"] * 0.90


def test_table5_row_shape(bundle):
    row = table5_row(bundle)
    # dimension partitioning always carries the largest peak (partial
    # buffers + accumulators); harmony sits with the fixed modes
    assert row["vector_mb"] <= row["dimension_mb"]
    assert row["vector_mb"] * 0.95 <= row["harmony_mb"]
    assert row["harmony_mb"] <= row["dimension_mb"] * 1.05


def test_fig6_rows(bundle):
    rows = fig6_rows(bundle, nprobes=(2, CFG.nlist))
    assert len(rows) == 2
    # recall grows with nprobe; full probe is exact
    assert rows[1]["recall"] >= rows[0]["recall"]
    assert rows[1]["recall"] > 0.99
    for r in rows:
        for col in ("faiss_qps", "vector_qps", "dimension_qps",
                    "harmony_qps"):
            assert r[col] > 0


def test_fig6_distributed_beats_single_node(bundle):
    rows = fig6_rows(bundle, nprobes=(CFG.nlist,))
    r = rows[0]
    best = max(r["vector_qps"], r["dimension_qps"], r["harmony_qps"])
    assert best > r["faiss_qps"]


def test_fig7_vector_degrades_dimension_stable(bundle):
    rows = fig7_rows(bundle, fracs=(0.0, 0.9))
    v0, v9 = rows[0]["vector_qps"], rows[1]["vector_qps"]
    d0, d9 = rows[0]["dimension_qps"], rows[1]["dimension_qps"]
    assert v9 < v0  # traditional vector partitioning collapses
    assert abs(d9 - d0) / d0 < 0.25  # dimension stays stable
    assert rows[1]["load_std"] > rows[0]["load_std"]


def test_fig7_harmony_stable(bundle):
    rows = fig7_rows(bundle, fracs=(0.0, 0.9))
    h0, h9 = rows[0]["harmony_qps"], rows[1]["harmony_qps"]
    assert abs(h9 - h0) / h0 < 0.35


def test_fig9_speedups_positive(bundle):
    (row,) = fig9_rows(bundle)
    for c in ("balanced_load_speedup", "pipeline_async_speedup",
              "pruning_speedup"):
        assert row[c] > 0.8  # each technique never badly hurts


def test_fig11_harmony_speedup_rises_with_nodes(bundle):
    rows = fig11_rows(bundle, nodes=(2, 4))
    assert [r["nodes"] for r in rows] == [2, 4]
    assert rows[1]["harmony_speedup"] > rows[0]["harmony_speedup"]


def test_one_clustering_per_dataset(spark, monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return kmeans(*args, **kwargs)

    monkeypatch.setattr(repro.ivf.index, "kmeans", counted)
    monkeypatch.setattr(repro.cluster.layout, "kmeans", counted)
    b = DatasetBundle(spark, "sift1m", CFG)
    try:
        searchers = [b.searcher(m) for m in ("vector", "dimension",
                                             "harmony")]
        assert len(calls) == 1  # bundle.ivf, shared by the three modes
        for s in searchers:
            assert np.array_equal(s.di.centroids, b.ivf.centroids)
    finally:
        b.close()


def test_cli_writes_table(spark, monkeypatch, tmp_path):
    monkeypatch.setattr(report, "RESULTS_DIR", str(tmp_path))
    assert main(["table2", "--sf", "0.002"]) == 0
    text = (tmp_path / "table2.txt").read_text()
    assert text.startswith("Table 2 — dataset statistics (lite analogs)")
    assert len(text.splitlines()) == 2 + 2 + len(PAPER_TABLE2)


def test_cli_rejects_unknown_experiment():
    with pytest.raises(SystemExit) as e:
        main(["table9"])
    assert e.value.code != 0


def test_qps_helper():
    assert qps(10, 2.0) == 5.0
    assert qps(10, 0.0) == float("inf")


def test_format_table_renders():
    s = format_table([{"a": 1, "b": 2.5}, {"a": 10, "b": 0.123}])
    assert "a" in s and "10" in s and "0.12" in s
    assert format_table([]) == "(no rows)"


def test_bundle_caches_searchers(bundle):
    s1 = bundle.searcher("vector")
    s2 = bundle.searcher("vector")
    assert s1 is s2
    # Keyed by the profile queries' contents, not by the array object.
    assert (bundle.searcher("harmony", profile_queries=bundle.queries.copy())
            is bundle.searcher("harmony"))


def test_imbalanced_workload_properties(bundle):
    w = bundle.imbalanced_workload(0.5)
    assert w.shape == bundle.queries.shape
    # tail (natural) queries untouched
    np.testing.assert_array_equal(
        w[len(w) // 2 + 1:], bundle.queries[len(w) // 2 + 1:]
    )
    assert not np.array_equal(w[0], bundle.queries[0])
    np.testing.assert_array_equal(
        bundle.imbalanced_workload(0.0), bundle.queries
    )
