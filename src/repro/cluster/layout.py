"""Distributed index layout on Spark (the paper's "Pre-assign" stage).

One simulated worker node = one Spark RDD partition. Grid cell ``(v, b)``
(vector shard ``v`` × dimension block ``b``) is routed to partition
``plan.cell_node(v, b)`` by a **custom partitioner** over cell keys —
the Spark analog of Harmony assigning index blocks to MPI ranks. Each
partition materializes a :class:`CellStore` holding its clusters' vector
rows restricted to its dimension block, as one contiguous matrix; the
driver keeps the client-side routing table (centroids, per-cluster id
lists, prewarm sample).
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
from pyspark import StorageLevel
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.core.partition import PartitionPlan
from repro.ivf.kmeans import kmeans
from repro.sparkutil import spark_task

#: Bytes per element of the per-node partial-distance accumulator that
#: dimension-partitioned layouts pre-allocate (8B float64 running sum +
#: 4B int32 survivor slot) — the "initialize intermediate results" space
#: the paper attributes to the Pre-assign stage (§6.4.1, Table 4 note).
ACCUM_BYTES_PER_VECTOR = 12


@dataclass
class CellStore:
    """One grid cell's storage on its worker node.

    ``mat`` is one contiguous ``(rows, block_dims)`` float32 matrix of the
    cell's vectors restricted to its dimension block. It holds the
    clusters ``cluster_list`` in ascending order, cluster
    ``cluster_list[i]`` at rows ``offsets[i]:offsets[i + 1]``, and each
    cluster's rows sorted by ascending vector id (the canonical order
    shared with the driver's routing table, so row positions line up).
    ``clusters[c]`` is cluster ``c``'s view into ``mat``."""

    vblock: int
    dimblock: int
    mat: np.ndarray = field(repr=False)
    cluster_list: np.ndarray = field(repr=False)
    offsets: np.ndarray = field(repr=False)

    @property
    def clusters(self) -> dict[int, np.ndarray]:
        """``{cluster: (size_c, block_dims) view into mat}``."""
        return {
            int(c): self.mat[a:b]
            for c, a, b in zip(
                self.cluster_list, self.offsets[:-1], self.offsets[1:]
            )
        }

    def nbytes(self) -> int:
        """Bytes of vector data stored in this cell."""
        return int(self.mat.nbytes)


@dataclass
class DistributedIndex:
    """A plan-laid-out IVF index: worker cells on Spark + client metadata."""

    plan: PartitionPlan
    centroids: np.ndarray
    #: Per-cluster vector ids, ascending — row ``p`` of a cell's cluster
    #: matrix is the vector ``cluster_ids[c][p]`` (client routing table).
    cluster_ids: list[np.ndarray]
    #: Client-side prewarm sample: first rows of each cluster, full dims.
    prewarm_rows: dict[int, np.ndarray]
    rdd: object  # RDD[CellStore], one partition per node
    node_index_bytes: np.ndarray
    build_seconds: dict[str, float]

    @property
    def nlist(self) -> int:
        """Number of IVF clusters."""
        return len(self.centroids)

    @property
    def dim(self) -> int:
        """Vector dimensionality."""
        return int(self.centroids.shape[1])

    def cluster_sizes(self) -> np.ndarray:
        """Per-cluster vector counts."""
        return np.array([len(i) for i in self.cluster_ids])

    def shard_rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(row0, base, ids)``: where each cluster's rows sit.

        Every cell of vector shard ``v`` stores the shard's clusters in
        ascending order (see :class:`CellStore`), so cluster ``c`` is rows
        ``row0[c]:row0[c] + size_c`` of them. ``ids[base[v] + row]`` is
        the vector id of row ``row`` of shard ``v``."""
        c2v = np.asarray(self.plan.cluster_to_vblock)
        sizes = self.cluster_sizes()
        order = np.lexsort((np.arange(self.nlist), c2v))
        row = np.empty(self.nlist, dtype=np.int64)
        row[order] = np.cumsum(sizes[order]) - sizes[order]
        shard = np.bincount(c2v, weights=sizes, minlength=self.plan.b_vec)
        base = (np.cumsum(shard) - shard).astype(np.int64)
        ids = np.concatenate([self.cluster_ids[c] for c in order])
        return row - base[c2v], base, ids

    def node_accumulator_bytes(self) -> np.ndarray:
        """Pre-allocated partial-result buffer per node (0 when
        ``B_dim = 1`` — vector partitioning needs no accumulators)."""
        out = np.zeros(self.plan.n_nodes)
        if self.plan.b_dim == 1:
            return out
        sizes = self.cluster_sizes()
        shard_count = np.zeros(self.plan.b_vec)
        for c, v in enumerate(self.plan.cluster_to_vblock):
            shard_count[v] += sizes[c]
        for n in range(self.plan.n_nodes):
            v, _ = self.plan.node_cell(n)
            out[n] = ACCUM_BYTES_PER_VECTOR * shard_count[v]
        return out

    def node_memory_bytes(self) -> np.ndarray:
        """Per-node resident index memory: cell data + accumulators.
        ``max()`` of this is the Table 4 per-method figure."""
        return self.node_index_bytes + self.node_accumulator_bytes()

    def unpersist(self) -> None:
        """Release the cached worker cells."""
        self.rdd.unpersist()


def train_centroids(
    df: DataFrame, nlist: int, seed: int = 0, sample_cap: int = 65_536
) -> np.ndarray:
    """Train IVF centroids from a Spark vector DataFrame ("Train" stage).

    Takes a deterministic id-prefix sample (≤ ``sample_cap`` rows) to the
    driver and runs seeded k-means, exactly as Faiss trains on a sample.
    """
    rows = df.where(F.col("id") < sample_cap).select("vec").collect()
    x = np.asarray([r[0] for r in rows], dtype=np.float32)
    return kmeans(x, nlist, seed=seed)


def assign_vectors(
    spark: SparkSession, df: DataFrame, centroids: np.ndarray
) -> DataFrame:
    """Nearest-centroid assignment ("Add" stage): DataFrame
    ``(id, cluster, vec)`` via ``mapInPandas`` over broadcast centroids."""
    import pandas as pd
    from pyspark.sql import types as T

    bc = spark.sparkContext.broadcast(centroids)

    @spark_task
    def assign(batches):
        from repro.ivf.index import assign_clusters

        for pdf in batches:
            x = np.asarray(list(pdf["vec"]), dtype=np.float32)
            pdf = pdf.copy()
            pdf["cluster"] = assign_clusters(bc.value, x)
            yield pd.DataFrame(
                {"id": pdf["id"], "cluster": pdf["cluster"], "vec": pdf["vec"]}
            )

    schema = T.StructType(
        [
            T.StructField("id", T.LongType(), False),
            T.StructField("cluster", T.LongType(), False),
            T.StructField("vec", T.ArrayType(T.FloatType(), False), False),
        ]
    )
    return df.mapInPandas(assign, schema=schema)


def distribute(
    spark: SparkSession,
    assigned: DataFrame,
    plan: PartitionPlan,
    prewarm_per_cluster: int = 32,
    train_seconds: float = 0.0,
    add_seconds: float = 0.0,
    centroids: np.ndarray | None = None,
) -> DistributedIndex:
    """Lay an assigned vector table out on the simulated cluster.

    Splits every row into ``B_dim`` dimension slices keyed by grid cell,
    then ``partitionBy(n_nodes, cell→node)`` — the custom partitioner —
    places each cell on its node, where slices are merged into a
    :class:`CellStore` (rows id-sorted). Also collects the client-side
    routing table and prewarm sample. Timed as the "Pre-assign" stage.
    """
    t0 = time.perf_counter()
    sc = spark.sparkContext
    c2v = np.asarray(plan.cluster_to_vblock)
    bounds = plan.dim_bounds
    b_dim = plan.b_dim

    # Client routing table: per-cluster ascending id lists.
    map_pdf = assigned.select("cluster", "id").toPandas()
    nlist = len(c2v)
    cluster_ids: list[np.ndarray] = []
    grouped = map_pdf.sort_values("id").groupby("cluster")["id"]
    by_cluster = {int(c): v.to_numpy(dtype=np.int64) for c, v in grouped}
    for c in range(nlist):
        cluster_ids.append(by_cluster.get(c, np.empty(0, dtype=np.int64)))

    # Prewarm sample: first rows of every cluster, full dimensionality.
    want: dict[int, np.ndarray] = {
        c: ids[:prewarm_per_cluster] for c, ids in enumerate(cluster_ids)
    }
    want_ids = np.concatenate([v for v in want.values() if len(v)])
    rows = (
        assigned.where(F.col("id").isin([int(i) for i in want_ids]))
        .select("id", "vec")
        .collect()
    )
    vec_by_id = {int(r[0]): np.asarray(r[1], dtype=np.float32) for r in rows}
    prewarm_rows = {
        c: np.stack([vec_by_id[int(i)] for i in ids])
        for c, ids in want.items()
        if len(ids)
    }

    # Worker cells via the custom cell->node partitioner.
    @spark_task
    def to_slices(rows_iter):
        ids, cs, vecs = [], [], []
        for r in rows_iter:
            ids.append(r["id"])
            cs.append(r["cluster"])
            vecs.append(r["vec"])
        if not ids:
            return
        ids_a = np.asarray(ids, dtype=np.int64)
        cs_a = np.asarray(cs, dtype=np.int64)
        x = np.asarray(vecs, dtype=np.float32)
        for c in np.unique(cs_a):
            m = cs_a == c
            v = int(c2v[c])
            for b, (lo, hi) in enumerate(bounds):
                yield (
                    (v, b),
                    (int(c), ids_a[m], np.ascontiguousarray(x[m, lo:hi])),
                )

    @spark_task
    def build_cells(kv_iter):
        chunks: dict[tuple[int, int], dict[int, list]] = {}
        for (v, b), (c, ids_a, mat) in kv_iter:
            chunks.setdefault((v, b), {}).setdefault(c, []).append(
                (ids_a, mat)
            )
        for (v, b), per_cluster in chunks.items():
            cluster_list = np.array(sorted(per_cluster), dtype=np.int64)
            mats = []
            for c in cluster_list:
                parts = per_cluster[int(c)]
                ids_a = np.concatenate([p[0] for p in parts])
                mat = np.concatenate([p[1] for p in parts], axis=0)
                mats.append(mat[np.argsort(ids_a)])  # id-ascending rows
            offsets = np.cumsum([0] + [len(m) for m in mats])
            yield CellStore(v, b, np.concatenate(mats, axis=0),
                            cluster_list, offsets)

    rdd = (
        assigned.rdd.mapPartitions(to_slices)
        .partitionBy(plan.n_nodes, lambda key: key[0] * b_dim + key[1])
        .mapPartitions(build_cells)
        .persist(StorageLevel.MEMORY_ONLY)
    )

    @spark_task
    def cell_bytes(cells):
        for cell in cells:
            yield cell.vblock * b_dim + cell.dimblock, cell.nbytes()

    per_node = dict(rdd.mapPartitions(cell_bytes).collect())
    node_bytes = np.array(
        [float(per_node.get(n, 0)) for n in range(plan.n_nodes)]
    )
    if centroids is None:
        raise ValueError("distribute() requires the trained centroids")
    return DistributedIndex(
        plan=plan,
        centroids=centroids,
        cluster_ids=cluster_ids,
        prewarm_rows=prewarm_rows,
        rdd=rdd,
        node_index_bytes=node_bytes,
        build_seconds={
            "train": train_seconds,
            "add": add_seconds,
            "preassign": time.perf_counter() - t0,
        },
    )
