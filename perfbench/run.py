"""Search benchmark of the HARMONY Spark reproduction.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sift-vec --seed 1 --seconds 10 \\
        --trace 0

One run starts Spark (``local[4]``), builds the workload's
``HarmonySearcher`` three times (``setup_s`` is the median build), then
drives ``HarmonySearcher.search`` from one closed-loop client with one
query batch in flight for about ``--seconds`` seconds. Query batches come
from ``queries_numpy`` seeded by ``--seed``; the base vectors are the
fixed dataset. After the timed loop every batch is checked against
``search_ivf_flat`` over the searcher's own clustering. Batch 0, which
every run completes, also gives the figures that must repeat bit for bit
for a seed: recall against exact KNN, the simulated counts and QPS, node
memory and a checksum of the distances. They are compared with those of
earlier runs of the same code and seed.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` records spans
at the public layer boundaries (see ``spans.py``) and prints the
per-layer metrics. The last stdout line is the JSON result. A fuller
record of each run, and the spans of a traced run, go to ``.perfbench/``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from statistics import median

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

MASTER = "local[4]"
SF = 0.01
N_NODES = 4
NLIST = 48
K = 10
#: Timed builds per run; ``setup_s`` is their median. The first follows
#: only the Spark warm-up jobs, so it also pays the JVM's first-use costs.
N_BUILDS = 3
#: Empty 4-partition Python jobs timed for the Spark floor.
FLOOR_JOBS = 3
#: Tolerance of the distance check (the test suite's).
RTOL = ATOL = 1e-4


@dataclass(frozen=True)
class Workload:
    """One seeded search workload (BENCHMARK.json says why each exists)."""

    dataset: str
    nprobe: int
    batch: int


WORKLOADS = {
    "sift-vec": Workload("sift1m", nprobe=8, batch=256),
    "glove-wide": Workload("glove1.2m", nprobe=16, batch=512),
    # Not in BENCHMARK.json: its three builds make a run too long for the
    # benchmark's time budget. Run it by hand to check a claim on a
    # strongly pruning dimension-partitioned workload.
    "star-dim": Workload("star", nprobe=8, batch=80),
}

#: Per-layer figures read off batch 0's SearchReport: name -> unit.
REPORT_METRICS = {
    "engine.stages": "count",
    "engine.pairs": "count",
    "engine.pruned_frac": "ratio",
    "sim.ops": "ops",
    "sim.bytes": "bytes",
    "sim.msgs": "count",
    "sim.comp_s": "s",
    "sim.comm_s": "s",
    "sim.imbalance": "ops",
}


def batch_queries(spec, wl: Workload, seed: int, i: int) -> np.ndarray:
    """Query batch ``i`` of the run seeded ``seed``."""
    from repro.vectors.generate import queries_numpy

    parts, n, j = [], 0, 0
    while n < wl.batch:
        s = int(np.random.SeedSequence([seed, i, j]).generate_state(1)[0])
        parts.append(queries_numpy(spec, SF, seed=s))
        n += len(parts[-1])
        j += 1
    return np.concatenate(parts)[: wl.batch]


# -- Spark lifecycle -----------------------------------------------------
def start_spark(tmp: Path):
    """A ``local[4]`` session whose scratch files stay under ``tmp``."""
    from pyspark.sql import SparkSession

    os.environ["PYSPARK_SUBMIT_ARGS"] = f"--master {MASTER} pyspark-shell"
    spark = (
        SparkSession.builder.master(MASTER).appName("perfbench")
        .config("spark.driver.memory", "2g")
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.local.dir", str(tmp))
        .config("spark.sql.warehouse.dir", str(tmp / "warehouse"))
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.sql.shuffle.partitions", "4")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop Spark and wait for its JVM to exit."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is None:
        return
    gateway.shutdown()
    proc = getattr(gateway, "proc", None)
    if proc is not None:
        proc.stdin.close()  # the JVM exits when its stdin closes
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def _noop(it):
    return [0]


def empty_job_seconds(sc) -> float:
    """Median wall time of an empty 4-partition Python job, after one
    untimed warm-up job: the Spark floor every search stage pays."""
    times = []
    for _ in range(FLOOR_JOBS + 1):
        t0 = time.perf_counter()
        sc.parallelize(range(4), 4).mapPartitions(_noop).collect()
        times.append(time.perf_counter() - t0)
    return float(median(times[1:]))


# -- checks --------------------------------------------------------------
def code_digest() -> str:
    """Hash of the program's and the benchmark's sources: fingerprints
    are compared only between runs of the same code."""
    h = hashlib.sha256()
    for p in sorted([*SRC.rglob("*.py"), *BENCH.glob("*.py")]):
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def report_figures(report, model) -> dict[str, float]:
    """The REPORT_METRICS of one batch, plus its simulated seconds."""
    m = report.metrics
    return {
        "engine.stages": float(len(m.stages)),
        "engine.pairs": float(report.pairs_total),
        "engine.pruned_frac": float(
            report.skipped_at_position.sum()
            / max(report.pairs_total * report.b_dim, 1)),
        "sim.ops": float(m.node_ops().sum() + m.client_ops),
        "sim.bytes": m.total_bytes(),
        "sim.msgs": m.total_msgs(),
        "sim.comp_s": m.comp_seconds(model),
        "sim.comm_s": m.comm_seconds(model),
        "sim.imbalance": m.imbalance(),
        "sim.seconds": report.simulated_seconds(model),
    }


def fingerprint_matches(key: str, fp: dict) -> bool:
    """Compare ``fp`` with the fingerprint earlier runs recorded under
    ``key`` (workload, seed and code digest), or record it."""
    path = STATE / "fingerprints.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    if key in known:
        return known[key] == fp
    known[key] = fp
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}")
    tmp.write_text(json.dumps(known, indent=1))
    tmp.replace(path)
    return True


def tail_latency(lat: list[float]) -> tuple[float, float]:
    """``(percentile, seconds)``: the highest percentile with at least ten
    batches beyond it, when that lies above the median; otherwise the
    slowest batch (percentile 100)."""
    n = len(lat)
    p = 100.0 * (n - 10) / n
    if p <= 50.0:
        return 100.0, float(max(lat))
    return p, float(np.percentile(lat, p))


# -- the run -------------------------------------------------------------
def search_loop(searcher, spec, wl, seed: int, seconds: float, call):
    """Closed loop, one batch in flight. Batch 0 always runs; another
    starts only if it should end within ``seconds``. Returns the query
    batches, their results (None for a batch that raised) and their
    latencies."""
    batches, results, lat = [], [], []
    t_start = time.perf_counter()
    while not lat or time.perf_counter() - t_start + median(lat) <= seconds:
        i = len(batches)
        batches.append(batch_queries(spec, wl, seed, i))
        t0 = time.perf_counter()
        try:
            res = call(f"b{i}", searcher.search, batches[i], k=K,
                       nprobe=wl.nprobe)
        except Exception:  # a failed batch is counted, the loop goes on
            traceback.print_exc()
            res = None
        lat.append(time.perf_counter() - t0)
        results.append(res)
    return batches, results, lat


def run(spark, name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the result object to print."""
    from repro.baseline.exact import exact_knn, recall_at_k
    from repro.baseline.faiss_lite import search_ivf_flat
    from repro.cluster.machine import MachineModel
    from repro.core.searcher import HarmonyConfig, HarmonySearcher
    from repro.ivf.index import IVFIndex
    from repro.vectors.generate import base_numpy, base_spark, queries_numpy
    from repro.vectors.specs import get_spec
    from spans import BATCH_METRICS, BUILD_METRICS, Tracer, medians

    wl = WORKLOADS[name]
    sc = spark.sparkContext
    spec = get_spec(wl.dataset)
    model = MachineModel()
    phase_s, last = {}, [time.perf_counter()]

    def lap(phase: str) -> None:
        now = time.perf_counter()
        phase_s[phase], last[0] = now - last[0], now

    floor_s = empty_job_seconds(sc)
    lap("floor")
    x = base_numpy(spec, SF)
    df = base_spark(spark, spec, SF)
    cfg = HarmonyConfig(n_nodes=N_NODES, mode="harmony", nlist=NLIST)
    # The planner profiles the dataset's fixed query sample, so the grid
    # does not depend on the seed.
    profile = queries_numpy(spec, SF)
    tracer = Tracer(sc) if trace else None
    call = tracer.run if tracer else (lambda _, fn, *a, **kw: fn(*a, **kw))
    if tracer:
        tracer.install()

    build_s, searcher = [], None
    for b in range(N_BUILDS):
        if searcher is not None:
            searcher.di.unpersist()
        t0 = time.perf_counter()
        searcher = call(f"build{b}", HarmonySearcher.build, spark, df, cfg,
                        profile)
        build_s.append(time.perf_counter() - t0)
    lap("build")
    batches, results, lat = search_loop(searcher, spec, wl, seed, seconds,
                                        call)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    lap("search")
    if tracer:
        tracer.uninstall()
        layers = medians([tracer.batch_metrics(f"b{i}")
                          for i, r in enumerate(results) if r is not None]
                         or [dict.fromkeys(BATCH_METRICS, 0.0)])
        layers.update(medians([tracer.build_metrics(f"build{b}")
                               for b in range(N_BUILDS)]))
        tracer.dump(STATE / "traces" / f"{name}-seed{seed}.json")
    lap("trace")

    # Every batch: distances equal to faiss_lite over the same clustering.
    di = searcher.di
    ivf = IVFIndex(di.centroids, di.cluster_ids,
                   [np.ascontiguousarray(x[ids]) for ids in di.cluster_ids])
    ok = [res is not None and bool(np.allclose(
              res.dists, search_ivf_flat(ivf, q, K, wl.nprobe).dists,
              rtol=RTOL, atol=ATOL))
          for q, res in zip(batches, results)]
    failed = ok.count(False)
    # Batch 0: the figures that repeat exactly for a seed.
    fp, recall, node_peak, figures = {}, 0.0, 0.0, {}
    if ok[0]:
        r0 = results[0]
        figures = report_figures(r0.report, model)
        fp = {**figures, "dists_sha256": hashlib.sha256(
            np.ascontiguousarray(r0.dists).tobytes()).hexdigest()}
        recall = recall_at_k(r0.ids, exact_knn(x, batches[0], K)[0])
        node_peak = float((di.node_memory_bytes()
                           + r0.report.metrics.peak_buffer_bytes).max())
    same_fp = ok[0] and fingerprint_matches(
        f"{name}/seed{seed}/{code_digest()}", fp)
    good_lat = [t for t, g in zip(lat, ok) if g] or lat
    tail_p, tail_s = tail_latency(good_lat)
    answered = sum(len(q) for q, g in zip(batches, ok) if g)
    e2e = {
        "qps": (answered / sum(lat), "1/s"),
        "latency_p50_s": (float(median(good_lat)), "s"),
        "latency_tail_s": (tail_s, "s"),
        "recall_at_10": (recall, "ratio"),
        "sim_qps": (wl.batch / figures["sim.seconds"] if figures else 0.0,
                    "1/s"),
        "setup_s": (float(median(build_s)), "s"),
        "node_peak_mb": (node_peak / 2**20, "MB"),
        "driver_peak_rss_mb": (peak_rss_mb, "MB"),
        "answered_frac": (1.0 - failed / len(batches), "ratio"),
    }
    lap("check")
    if tracer:
        metrics = {k: (v, BATCH_METRICS.get(k) or BUILD_METRICS[k])
                   for k, v in layers.items()}
        metrics.update((k, (figures.get(k, 0.0), u))
                       for k, u in REPORT_METRICS.items())
        metrics.update({
            "spark.empty_job_s": (floor_s, "s"),
            "plan.b_vec": (float(di.plan.b_vec), "count"),
            "plan.b_dim": (float(di.plan.b_dim), "count"),
            "trace.qps": e2e["qps"],
        })
    else:
        metrics = e2e
    di.unpersist()

    record = {
        "workload": name, "dataset": wl.dataset, "seed": seed,
        "trace": int(trace), "master": MASTER, "sf": SF,
        "n": int(len(x)), "dim": int(x.shape[1]), "batch": wl.batch,
        "nprobe": wl.nprobe, "grid": [di.plan.b_vec, di.plan.b_dim],
        "spark_empty_job_s": floor_s, "build_s": build_s,
        "batch_latency_s": lat, "batch_ok": ok, "tail_percentile": tail_p,
        "tail_samples": len(good_lat), "fingerprint": fp,
        "fingerprint_consistent": same_fp, "phase_s": phase_s,
        "metrics": {k: v for k, (v, _) in metrics.items()},
    }
    runs = STATE / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    (runs / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1))
    print(f"{name} seed={seed} grid={di.plan.b_vec}x{di.plan.b_dim} "
          f"batches={len(batches)} tail=p{tail_p:.0f} of {len(good_lat)} "
          f"floor={floor_s:.3f}s builds={[round(b, 2) for b in build_s]}")
    return {
        "correct": failed == 0 and same_fp,
        "attempted": len(batches),
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u}
                    for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: the program's sources are missing ({SRC})",
              file=sys.stderr)
        return 2
    tmp = STATE / "tmp" / str(os.getpid())
    tmp.mkdir(parents=True, exist_ok=True)
    # Spark's Python workers import repro (search) and spans (task timing).
    os.environ["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH)])
    os.environ["TMPDIR"] = str(tmp)
    # Every JVM, the spark-submit launcher too, keeps its files in ``tmp``.
    os.environ["JAVA_TOOL_OPTIONS"] = (
        f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData")
    sys.path.insert(0, str(SRC))
    spark = start_spark(tmp)
    try:
        out = run(spark, args.workload, args.seed, args.seconds,
                  bool(args.trace))
    finally:
        stop_spark(spark)
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
