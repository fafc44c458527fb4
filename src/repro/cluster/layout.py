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

from dataclasses import dataclass, field

import numpy as np
from pyspark import StorageLevel
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.core.partition import PartitionPlan
from repro.ivf import index as ivf_index
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
    #: Seconds of the Train, Add and Pre-assign stages (set by the build).
    build_seconds: dict[str, float] = field(default_factory=dict)

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


def train_centroids(df: DataFrame, nlist: int, seed: int = 0) -> np.ndarray:
    """Train IVF centroids from a Spark vector DataFrame ("Train" stage).

    Takes the id-prefix sample ``id < TRAIN_SAMPLE_CAP`` (the rule
    :func:`repro.ivf.index.build_ivf` also follows) to the driver through
    Arrow and runs seeded k-means, exactly as Faiss trains on a sample.
    """
    sample = df.where(F.col("id") < ivf_index.TRAIN_SAMPLE_CAP).select("vec")
    x = np.stack(sample.toPandas()["vec"].to_numpy())
    return kmeans(x.astype(np.float32, copy=False), nlist, seed=seed)


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


def routing_table(assigned: DataFrame, nlist: int) -> list[np.ndarray]:
    """The client routing table: per-cluster vector ids, ascending, from
    one ``(cluster, id)`` collection of an assigned vector table."""
    pdf = assigned.select("cluster", "id").toPandas()
    grouped = pdf.sort_values("id").groupby("cluster")["id"]
    by_cluster = {int(c): v.to_numpy(dtype=np.int64) for c, v in grouped}
    return [by_cluster.get(c, np.empty(0, dtype=np.int64))
            for c in range(nlist)]


def distribute(
    assigned: DataFrame,
    plan: PartitionPlan,
    centroids: np.ndarray,
    cluster_ids: list[np.ndarray],
    prewarm_per_cluster: int = 32,
) -> DistributedIndex:
    """Lay an assigned vector table out on the simulated cluster.

    Splits every row into ``B_dim`` dimension slices keyed by grid cell,
    then ``partitionBy(n_nodes, cell→node)`` — the custom partitioner —
    places each cell on its node, where slices are merged into a
    :class:`CellStore` (rows id-sorted). The one job that materialises the
    cells also returns each cell's size and the first
    ``prewarm_per_cluster`` rows of each of its clusters, which the driver
    joins across dimension blocks into the client's prewarm sample. The
    "Pre-assign" stage; ``cluster_ids`` is :func:`routing_table`'s.
    """
    c2v = np.asarray(plan.cluster_to_vblock)
    bounds = plan.dim_bounds
    b_dim = plan.b_dim

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
        # A cluster's view ends at its last row, so a head never runs into
        # the next cluster.
        for cell in cells:
            yield (cell.vblock * b_dim + cell.dimblock, cell.nbytes(),
                   {c: m[:prewarm_per_cluster]
                    for c, m in cell.clusters.items()})

    node_bytes = np.zeros(plan.n_nodes)
    heads = {}
    for node, nbytes, cell_heads in rdd.mapPartitions(cell_bytes).collect():
        node_bytes[node] = nbytes
        heads[plan.node_cell(node)] = cell_heads
    # Prewarm sample: first rows of every cluster, full dimensionality.
    prewarm_rows = {
        c: np.hstack([heads[c2v[c], b][c] for b in range(b_dim)])
        for c, ids in enumerate(cluster_ids) if len(ids)
    }
    return DistributedIndex(
        plan=plan,
        centroids=centroids,
        cluster_ids=cluster_ids,
        prewarm_rows=prewarm_rows,
        rdd=rdd,
        node_index_bytes=node_bytes,
    )
