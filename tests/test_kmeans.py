"""k-means trainer (IVF "Train" stage) and its one BLAS product."""
import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.ivf.kmeans import kmeans, loaded_openblas, pairwise_sq_l2
from repro.sparkutil import spark_task
from tests.conftest import TEST_K, TEST_NPROBE

SRC = Path(repro.__file__).resolve().parents[1]

needs_openblas = pytest.mark.skipif(not loaded_openblas(),
                                    reason="numpy has no OpenBLAS loaded")


def _blobs(n=300, k=4, dim=8, seed=0, spread=5.0):
    g = np.random.default_rng(seed)
    centers = g.standard_normal((k, dim)) * spread
    x = centers[g.integers(0, k, n)] + g.standard_normal((n, dim)) * 0.3
    return x.astype(np.float32), centers


def test_pairwise_sq_l2_matches_naive():
    g = np.random.default_rng(0)
    a = g.standard_normal((7, 5)).astype(np.float32)
    b = g.standard_normal((9, 5)).astype(np.float32)
    got = pairwise_sq_l2(a, b)
    want = ((a[:, None, :] - b[None, :, :]) ** 2).sum(-1)
    np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-4)


def test_pairwise_sq_l2_nonnegative():
    g = np.random.default_rng(1)
    a = g.standard_normal((50, 16)).astype(np.float32) * 100
    assert pairwise_sq_l2(a, a).min() >= 0.0


def test_pairwise_sq_l2_self_diagonal_zero():
    g = np.random.default_rng(2)
    a = g.standard_normal((20, 8)).astype(np.float32)
    np.testing.assert_allclose(np.diag(pairwise_sq_l2(a, a)), 0.0,
                               atol=1e-3)


def test_kmeans_shape_dtype():
    x, _ = _blobs()
    c = kmeans(x, 4)
    assert c.shape == (4, 8) and c.dtype == np.float32


def test_kmeans_deterministic():
    x, _ = _blobs()
    np.testing.assert_array_equal(kmeans(x, 4, seed=3), kmeans(x, 4, seed=3))


def test_kmeans_seed_changes_result():
    x, _ = _blobs(n=500, k=6)
    assert not np.array_equal(kmeans(x, 6, seed=0), kmeans(x, 6, seed=1))


def test_kmeans_recovers_separated_blobs():
    x, centers = _blobs(n=600, k=4, spread=20.0)
    c = kmeans(x, 4)
    # every true center has a learned centroid nearby
    d = pairwise_sq_l2(centers.astype(np.float32), c)
    assert d.min(axis=1).max() < 1.0


def test_kmeans_k_clamped_to_n():
    x = np.random.default_rng(0).standard_normal((3, 4)).astype(np.float32)
    c = kmeans(x, 10)
    assert c.shape == (3, 4)


def test_kmeans_single_cluster():
    x, _ = _blobs(n=50)
    c = kmeans(x, 1)
    np.testing.assert_allclose(c[0], x.mean(axis=0), rtol=1e-2, atol=1e-2)


def test_kmeans_no_nan_with_duplicates():
    x = np.ones((100, 4), dtype=np.float32)
    c = kmeans(x, 4)
    assert np.isfinite(c).all()


@pytest.mark.parametrize("k", [2, 8, 16])
def test_kmeans_quantization_error_reasonable(k):
    x, _ = _blobs(n=400, k=8, spread=10.0)
    c = kmeans(x, k)
    err = pairwise_sq_l2(x, c).min(axis=1).mean()
    base = ((x - x.mean(0)) ** 2).sum(1).mean()
    assert err < base  # better than a single global centroid


#: Prints the SHA-256 of one BLAS-form product whose M·N·K (9.6M) is far
#: above OpenBLAS's threading threshold.
_HASH_PRODUCT = """
import hashlib
import numpy as np
from repro.ivf.kmeans import pairwise_sq_l2
g = np.random.default_rng(0)
a = g.standard_normal((1000, 200)).astype(np.float32)
b = g.standard_normal((48, 200)).astype(np.float32)
print(hashlib.sha256(pairwise_sq_l2(a, b).tobytes()).hexdigest())
"""


@needs_openblas
def test_pairwise_sq_l2_bits_do_not_depend_on_thread_count():
    digests = set()
    for threads in ("4", "1"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=str(SRC))
        out = subprocess.run([sys.executable, "-c", _HASH_PRODUCT], env=env,
                             capture_output=True, text=True, check=True)
        digests.add(out.stdout.strip())
    assert len(digests) == 1


def _blas_threads():
    return [getattr(lib, name.replace("_set_", "_get_"))()
            for lib, name in loaded_openblas()]


@needs_openblas
def test_driver_and_workers_run_one_blas_thread(spark, built, ds):
    built["harmony"].search(ds["q"], k=TEST_K, nprobe=TEST_NPROBE)
    assert _blas_threads() == [1] * len(loaded_openblas())

    def threads(it):
        # The worker has not imported this test module.
        from repro.ivf.kmeans import loaded_openblas, pairwise_sq_l2
        pairwise_sq_l2(np.ones((2, 2)), np.ones((2, 2)))
        yield [getattr(lib, name.replace("_set_", "_get_"))()
               for lib, name in loaded_openblas()]

    got = (spark.sparkContext.parallelize(range(4), 4)
           .mapPartitions(spark_task(threads)).collect())
    assert len(got) == 4
    assert all(counts and set(counts) == {1} for counts in got)


_BLAS_NUMPY = {"dot", "matmul", "einsum", "tensordot", "linalg"}


def _blas_sites(source):
    """``(line, what)`` of each BLAS-backed product in ``source`` outside
    a function named ``pairwise_sq_l2``."""
    tree = ast.parse(source)
    allowed = {id(n) for f in ast.walk(tree)
               if isinstance(f, ast.FunctionDef) and f.name == "pairwise_sq_l2"
               for n in ast.walk(f)}
    for node in ast.walk(tree):
        if id(node) in allowed:
            continue
        if (isinstance(node, (ast.BinOp, ast.AugAssign))
                and isinstance(node.op, ast.MatMult)):
            yield node.lineno, "@"
        elif (isinstance(node, ast.Attribute) and node.attr in _BLAS_NUMPY
              and isinstance(node.value, ast.Name)
              and node.value.id in ("np", "numpy")):
            yield node.lineno, f"{node.value.id}.{node.attr}"
        elif isinstance(node, ast.ImportFrom) and (
                node.module == "numpy.linalg"
                or (node.module == "numpy"
                    and any(a.name in _BLAS_NUMPY for a in node.names))):
            yield node.lineno, f"from {node.module} import"


def test_blas_site_scan_sees_each_form():
    src = ("from numpy import dot\n"
           "def f(a, b):\n"
           "    a @= b\n"
           "    return (a @ b, np.dot(a, b), np.matmul(a, b),\n"
           "            np.einsum('ij,jk', a, b), numpy.tensordot(a, b),\n"
           "            np.linalg.norm(a))\n"
           "def pairwise_sq_l2(a, b):\n"
           "    return a @ b.T\n")
    assert sorted(_blas_sites(src)) == [
        (1, "from numpy import"), (3, "@"), (4, "@"), (4, "np.dot"),
        (4, "np.matmul"), (5, "np.einsum"), (5, "numpy.tensordot"),
        (6, "np.linalg")]


def test_every_blas_product_in_src_is_pairwise_sq_l2():
    # The one-thread pin in pairwise_sq_l2 covers all BLAS work only while
    # it is the only place that calls BLAS.
    files = sorted(SRC.rglob("*.py"))
    assert SRC / "repro/ivf/kmeans.py" in files
    assert [f"{p.relative_to(SRC)}:{line} {what}" for p in files
            for line, what in _blas_sites(p.read_text())] == []
