"""Deterministic synthetic vector generation (numpy + Spark paths).

Vectors are drawn from a Gaussian mixture whose per-dimension scales follow
the spec's variance-decay profile. Generation is *block-wise deterministic*:
row block ``b`` (8192 rows) is produced by an RNG seeded with
``(seed, b)``, so the numpy path and the Spark ``mapInPandas`` path yield
bit-identical vectors regardless of how Spark partitions the id range.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import types as T

from repro.sparkutil import spark_task
from repro.vectors.specs import DatasetSpec

#: Rows per deterministic generation block.
BLOCK = 8192


def dim_scales(spec: DatasetSpec) -> np.ndarray:
    """Per-dimension standard deviations implementing the decay profile.

    Dimension ``j`` gets scale ``(1+j)**(-decay/2)``, renormalized so the
    mean *squared* scale is 1 (total expected energy is comparable across
    datasets; only its distribution over dimensions differs).
    """
    j = np.arange(spec.dim, dtype=np.float64)
    s = (1.0 + j) ** (-spec.decay / 2.0)
    s /= np.sqrt(np.mean(s**2))
    return s.astype(np.float32)


def mixture_centers(spec: DatasetSpec, seed: int = 0) -> np.ndarray:
    """The mixture's component means, shape ``(n_centers, dim)``."""
    g = np.random.default_rng([seed, 0xC3])
    return (g.standard_normal((spec.n_centers, spec.dim)) *
            dim_scales(spec)).astype(np.float32)


def block_rows(
    spec: DatasetSpec,
    centers: np.ndarray,
    blk: int,
    n_rows: int,
    seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Generate rows for block ``blk``: ``(center_ids, X_float32)``.

    Deterministic in ``(spec, seed, blk)``; ``n_rows`` ≤ ``BLOCK`` is the
    number of rows of this (possibly last, partial) block.
    """
    g = np.random.default_rng([seed, blk])
    # Uniform mixture weights, passed as ``p``: without it ``choice``
    # draws from another stream and every vector changes.
    n = spec.n_centers
    cids = g.choice(n, size=n_rows, p=np.full(n, 1.0 / n))
    noise = g.standard_normal((n_rows, spec.dim)).astype(np.float32)
    # Per-point radial factor: spreads candidate distances the way real
    # (non-shell) embedding clouds do — see DatasetSpec.radial_sigma.
    radius = np.exp(
        g.normal(0.0, spec.radial_sigma, n_rows).astype(np.float32)
    )[:, None]
    x = centers[cids] + noise * radius * (
        spec.cluster_std * dim_scales(spec)
    )
    return cids, x


def base_numpy(spec: DatasetSpec, sf: float, seed: int = 0) -> np.ndarray:
    """All base vectors at scale ``sf`` as an ``(n, dim)`` float32 array."""
    n = spec.n_base(sf)
    # Mixture centers are always the seed-0 set: base and query streams
    # share one underlying distribution, only their noise streams differ.
    centers = mixture_centers(spec, 0)
    parts = []
    for blk in range((n + BLOCK - 1) // BLOCK):
        rows = min(BLOCK, n - blk * BLOCK)
        parts.append(block_rows(spec, centers, blk, rows, seed)[1])
    return np.concatenate(parts, axis=0)


def queries_numpy(spec: DatasetSpec, sf: float, seed: int = 1) -> np.ndarray:
    """Query vectors at scale ``sf``."""
    nq = spec.n_query(sf)
    # Queries share the base mixture (seed-0 centers) but use their own
    # noise stream, offset so query blocks never collide with base blocks.
    centers = mixture_centers(spec, 0)
    parts = []
    for blk in range((nq + BLOCK - 1) // BLOCK):
        rows = min(BLOCK, nq - blk * BLOCK)
        parts.append(block_rows(spec, centers, blk + (1 << 20), rows, seed)[1])
    return np.concatenate(parts, axis=0)


#: Spark schema for generated vector tables.
VEC_SCHEMA = T.StructType(
    [
        T.StructField("id", T.LongType(), False),
        T.StructField("vec", T.ArrayType(T.FloatType(), False), False),
    ]
)


def base_spark(
    spark: SparkSession, spec: DatasetSpec, sf: float, seed: int = 0
) -> DataFrame:
    """Base vectors as a Spark DataFrame ``(id: long, vec: array<float>)``.

    Implemented as ``spark.range(n)`` + ``mapInPandas`` with the same
    block-deterministic generator as :func:`base_numpy`, so both paths
    produce identical vectors for a given ``(spec, sf, seed)``.
    """
    n = spec.n_base(sf)
    spec_ref, seed_ref = spec, seed

    @spark_task
    def gen(batches):
        centers = mixture_centers(spec_ref, 0)
        for pdf in batches:
            ids = pdf["id"].to_numpy()
            out_ids, out_vecs = [], []
            for blk in np.unique(ids // BLOCK):
                rows = min(BLOCK, n - int(blk) * BLOCK)
                _, x = block_rows(spec_ref, centers, int(blk), rows, seed_ref)
                sel = ids[(ids // BLOCK) == blk]
                off = sel - int(blk) * BLOCK
                out_ids.append(sel)
                out_vecs.extend(list(x[off]))
            yield pd.DataFrame(
                {"id": np.concatenate(out_ids), "vec": out_vecs}
            )

    return spark.range(n).mapInPandas(gen, schema=VEC_SCHEMA)
