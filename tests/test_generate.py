"""Synthetic vector generation: determinism, shapes, spectral profile."""
import hashlib

import numpy as np
import pytest

from repro.vectors.generate import (
    BLOCK,
    base_numpy,
    base_spark,
    block_rows,
    dim_scales,
    mixture_centers,
    queries_numpy,
)
from repro.vectors.specs import SMALL_DATASETS, get_spec

SPEC = get_spec("sift1m")


def test_dim_scales_normalized():
    s = dim_scales(SPEC)
    assert s.shape == (SPEC.dim,)
    np.testing.assert_allclose(np.mean(s.astype(np.float64) ** 2), 1.0,
                               rtol=1e-5)


def test_dim_scales_decreasing():
    s = dim_scales(SPEC)
    assert np.all(np.diff(s) <= 0)


def test_dim_scales_isotropic_when_no_decay():
    s = dim_scales(get_spec("glove1.2m"))
    assert s.max() / s.min() < 1.6  # near-flat


@pytest.mark.parametrize("name", SMALL_DATASETS)
def test_energy_concentration_orders_with_decay(name):
    # Cumulative first-quarter energy fraction grows with decay — the
    # property that drives Table 3's per-dataset pruning ordering.
    spec = get_spec(name)
    s = dim_scales(spec).astype(np.float64) ** 2
    f1 = s[: spec.dim // 4].sum() / s.sum()
    if spec.decay >= 1.0:
        assert f1 > 0.5
    if spec.decay <= 0.15:
        assert f1 < 0.35


def test_mixture_centers_shape_and_determinism():
    a = mixture_centers(SPEC, 0)
    b = mixture_centers(SPEC, 0)
    assert a.shape == (SPEC.n_centers, SPEC.dim)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, mixture_centers(SPEC, 1))


def test_block_rows_deterministic():
    c = mixture_centers(SPEC, 0)
    ids1, x1 = block_rows(SPEC, c, 3, 100, seed=0)
    ids2, x2 = block_rows(SPEC, c, 3, 100, seed=0)
    np.testing.assert_array_equal(x1, x2)
    np.testing.assert_array_equal(ids1, ids2)


def test_block_rows_differ_across_blocks():
    c = mixture_centers(SPEC, 0)
    _, x1 = block_rows(SPEC, c, 0, 50, seed=0)
    _, x2 = block_rows(SPEC, c, 1, 50, seed=0)
    assert not np.array_equal(x1, x2)


def test_base_numpy_shape_dtype():
    x = base_numpy(SPEC, 0.0005)
    assert x.shape == (500, SPEC.dim)
    assert x.dtype == np.float32
    for name in SMALL_DATASETS:
        spec = get_spec(name)
        x = base_numpy(spec, 0.0005)
        assert x.shape == (spec.n_base(0.0005), spec.dim)
        assert x.dtype == np.float32


def test_base_numpy_spans_blocks():
    # > BLOCK rows exercises multi-block concatenation.
    spec = get_spec("spacev1b")
    n = BLOCK + 100
    x = base_numpy(spec, n / spec.paper_size)
    assert len(x) == n
    # block boundary rows come from different RNG streams
    assert not np.array_equal(x[BLOCK - 1], x[BLOCK])


def test_queries_numpy_shape():
    q = queries_numpy(SPEC, 0.001)
    assert q.shape == (SPEC.n_query(0.001), SPEC.dim)


def test_queries_differ_from_base():
    x = base_numpy(SPEC, 0.0002)
    q = queries_numpy(SPEC, 0.0002)
    assert not np.array_equal(x[0], q[0])


#: SHA-256 of the generated float32 bytes. Any change to the RNG streams
#: (a draw added, removed or reordered; ``choice`` called without ``p``)
#: changes every vector and every result, and shows here first. sift1m at
#: SF 0.01 spans two generation blocks.
DIGESTS = {
    ("sift1m", 0.01, "base"):
        "c3c4e8d51603b190ffdfe2da5a297827f2aca667a7847ac23ead4bbc1a8bf0c6",
    ("sift1m", 0.01, "queries"):
        "b883c636658da74cb1f4203694e08ee69e6521e8c89723ace2adaa260e852bf9",
    ("glove1.2m", 0.001, "base"):
        "30d71b640eef2bd891215f5f11fa513853117db855a5d2476113afbd293159fa",
    ("glove1.2m", 0.001, "queries"):
        "6ca4d12c03d50904875e7849ad2b1b7936d288126c5c3e655a0e172a55173787",
}


@pytest.mark.parametrize("name,sf,kind", sorted(DIGESTS))
def test_generated_vectors_are_pinned(name, sf, kind):
    gen = base_numpy if kind == "base" else queries_numpy
    x = gen(get_spec(name), sf)
    assert hashlib.sha256(x.tobytes()).hexdigest() == DIGESTS[name, sf, kind]


def test_radial_spread_widens_distances():
    from dataclasses import replace

    spec0 = replace(SPEC, radial_sigma=0.0)
    spec1 = replace(SPEC, radial_sigma=0.8)
    x0 = base_numpy(spec0, 0.0005)
    x1 = base_numpy(spec1, 0.0005)
    n0 = ((x0 - x0.mean(0)) ** 2).sum(1)
    n1 = ((x1 - x1.mean(0)) ** 2).sum(1)
    assert n1.std() / n1.mean() > n0.std() / n0.mean()


def test_base_spark_matches_numpy(spark):
    df = base_spark(spark, SPEC, 0.0003)
    pdf = df.toPandas().sort_values("id")
    x_spark = np.asarray(list(pdf["vec"]), dtype=np.float32)
    x_np = base_numpy(SPEC, 0.0003)
    assert len(pdf) == len(x_np)
    np.testing.assert_array_equal(x_spark, x_np)


def test_base_spark_schema(spark):
    df = base_spark(spark, SPEC, 0.0002)
    assert [f.name for f in df.schema.fields] == ["id", "vec"]
    assert df.count() == 200
