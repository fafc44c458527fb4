"""Distributed index layout on Spark (the paper's "Pre-assign" stage).

One simulated worker node = one Spark RDD partition. Grid cell ``(v, b)``
(vector shard ``v`` × dimension block ``b``) is routed to partition
``plan.cell_node(v, b)`` by a **custom partitioner** over node keys —
the Spark analog of Harmony assigning index blocks to MPI ranks. Partition
``n`` holds one float32 matrix, cell ``plan.node_cell(n)``: its shard's
vector rows restricted to its dimension block, in the order
:func:`shard_rows` fixes; the driver keeps the client-side routing table
(centroids, per-cluster id lists, prewarm sample).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from pyspark import StorageLevel, TaskContext
from pyspark.sql import DataFrame
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
class DistributedIndex:
    """A plan-laid-out IVF index: worker cells on Spark + client metadata."""

    plan: PartitionPlan
    centroids: np.ndarray
    #: Per-cluster vector ids, ascending (client routing table); cell rows
    #: follow it in :func:`shard_rows` order.
    cluster_ids: list[np.ndarray]
    #: Client-side prewarm sample: first rows of each cluster, full dims.
    prewarm_rows: dict[int, np.ndarray]
    rdd: object  # one float32 cell matrix per partition = node
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
        """:func:`shard_rows` of this index."""
        return shard_rows(self.plan, self.cluster_ids)

    def _node_cells(self) -> tuple[np.ndarray, np.ndarray]:
        """Per node: its cell's rows (its shard's size, as floats) and
        columns (its block's width)."""
        _, base, ids = self.shard_rows()
        v, b = self.plan.node_cell(np.arange(self.plan.n_nodes))
        shard = np.diff(base, append=len(ids)).astype(float)
        return shard[v], self.plan.widths[b]

    @property
    def node_index_bytes(self) -> np.ndarray:
        """Vector data per node: its shard's rows × its block's width ×
        4 bytes (float32)."""
        rows, width = self._node_cells()
        return rows * (width * 4)

    def node_accumulator_bytes(self) -> np.ndarray:
        """Pre-allocated partial-result buffer per node (0 when
        ``B_dim = 1`` — vector partitioning needs no accumulators)."""
        if self.plan.b_dim == 1:
            return np.zeros(self.plan.n_nodes)
        return ACCUM_BYTES_PER_VECTOR * self._node_cells()[0]

    def node_memory_bytes(self) -> np.ndarray:
        """Per-node resident index memory: cell data + accumulators.
        Table 4 reports the mean of this over the nodes."""
        return self.node_index_bytes + self.node_accumulator_bytes()

    def unpersist(self) -> None:
        """Release the cached worker cells."""
        self.rdd.unpersist()


def shard_rows(
    plan: PartitionPlan, cluster_ids: list[np.ndarray]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(row0, base, ids)``: the one rule for where each vector lives.

    Vector shard ``v`` holds its clusters in ascending order, each
    cluster's rows in ``cluster_ids`` order, so cluster ``c`` is rows
    ``row0[c]:row0[c] + size_c`` of its shard, and ``ids[base[v] + row]``
    is the vector id of row ``row`` of shard ``v`` in every cell of the
    shard."""
    c2v = np.asarray(plan.cluster_to_vblock)
    sizes = np.array([len(i) for i in cluster_ids])
    order = np.argsort(c2v, kind="stable")
    row = np.empty(len(sizes), dtype=np.int64)
    row[order] = np.cumsum(sizes[order]) - sizes[order]
    shard = np.bincount(c2v, weights=sizes, minlength=plan.b_vec)
    base = (np.cumsum(shard) - shard).astype(np.int64)
    ids = np.concatenate([cluster_ids[c] for c in order])
    return row - base[c2v], base, ids


def train_centroids(df: DataFrame, nlist: int) -> np.ndarray:
    """Train IVF centroids from a Spark vector DataFrame ("Train" stage).

    Takes the id-prefix sample ``id < TRAIN_SAMPLE_CAP`` (the rule
    :func:`repro.ivf.index.build_ivf` also follows) to the driver through
    Arrow and runs k-means with ``build_ivf``'s default seed 0, exactly as
    Faiss trains on a sample.
    """
    sample = df.where(F.col("id") < ivf_index.TRAIN_SAMPLE_CAP).select("vec")
    x = np.stack(sample.toPandas()["vec"].to_numpy())
    return kmeans(x.astype(np.float32, copy=False), nlist, seed=0)


def assign_vectors(df: DataFrame, centroids: np.ndarray) -> list[np.ndarray]:
    """Nearest-centroid assignment ("Add" stage): the client routing
    table, per-cluster vector ids ascending, from one collection of the
    ``(id, cluster)`` pairs a ``mapInPandas`` over broadcast centroids
    yields."""
    import pandas as pd

    bc = df.sparkSession.sparkContext.broadcast(centroids)

    @spark_task
    def assign(batches):
        from repro.ivf.index import assign_clusters

        for pdf in batches:
            x = np.asarray(list(pdf["vec"]), dtype=np.float32)
            yield pd.DataFrame(
                {"id": pdf["id"], "cluster": assign_clusters(bc.value, x)}
            )

    pdf = df.mapInPandas(assign, "id long, cluster long").toPandas()
    ids, cluster = pdf["id"].to_numpy(), pdf["cluster"].to_numpy()
    sizes = np.bincount(cluster, minlength=len(centroids))
    return np.split(ids[np.lexsort((ids, cluster))], np.cumsum(sizes)[:-1])


def distribute(
    df: DataFrame,
    plan: PartitionPlan,
    centroids: np.ndarray,
    cluster_ids: list[np.ndarray],
    prewarm_per_cluster: int = 32,
) -> DistributedIndex:
    """Lay a base vector table ``(id, vec)`` out on the simulated cluster
    (the "Pre-assign" stage; ``cluster_ids`` is :func:`assign_vectors`').

    A ``mapInPandas`` over ``df`` emits, per Arrow batch, one record per
    grid cell: the batch rows' positions in their shard (:func:`shard_rows`,
    looked up by id) and their slice of the cell's dimension block.
    ``partitionBy(n_nodes)`` — the custom partitioner, keyed by node —
    sends each record to its cell's node, which scatters the rows into its
    cell matrix (an empty shard's is ``(0, width)``). The one job that
    materialises the cells also returns the first ``prewarm_per_cluster``
    rows of each cell's clusters, which the driver joins across dimension
    blocks into the client's prewarm sample.
    """
    import pandas as pd

    c2v = np.asarray(plan.cluster_to_vblock)
    bounds, b_dim = plan.dim_bounds, plan.b_dim
    row0, base, ids = shard_rows(plan, cluster_ids)
    shard_size = np.diff(base, append=len(ids))
    # Workers find a vector's shard position by id: the sorted ids, and
    # the position of each.
    by_id = np.argsort(ids)
    lookup = df.sparkSession.sparkContext.broadcast((ids[by_id], by_id))

    @spark_task
    def cell_parts(batches):
        sorted_ids, pos_of = lookup.value
        for pdf in batches:
            pos = pos_of[np.searchsorted(sorted_ids, pdf["id"].to_numpy())]
            shard = np.searchsorted(base, pos, "right") - 1
            x = np.asarray(list(pdf["vec"]), dtype=np.float32)
            parts = []
            for v in np.unique(shard):
                m = shard == v
                rows = (pos[m] - base[v]).tobytes()
                parts += [(plan.cell_node(v, b),
                           [rows, np.ascontiguousarray(x[m, lo:hi]).tobytes()])
                          for b, (lo, hi) in enumerate(bounds)]
            yield pd.DataFrame(parts, columns=["node", "cell"])

    @spark_task
    def build_cells(parts):
        v, b = plan.node_cell(TaskContext.get().partitionId())
        mat = np.empty((shard_size[v], plan.widths[b]), dtype=np.float32)
        for _, (rows, block) in parts:
            rows = np.frombuffer(rows, dtype=np.int64)
            mat[rows] = np.frombuffer(block, np.float32).reshape(len(rows), -1)
        yield mat

    rdd = (
        df.mapInPandas(cell_parts, "node long, cell array<binary>").rdd
        .partitionBy(plan.n_nodes, lambda node: node)
        .mapPartitions(build_cells)
        .persist(StorageLevel.MEMORY_ONLY)
    )
    sizes = np.array([len(i) for i in cluster_ids])
    # A short cluster's head stops at its last row, not in the next one.
    head = np.minimum(sizes, prewarm_per_cluster)

    @spark_task
    def cell_heads(cells):
        v, _ = plan.node_cell(TaskContext.get().partitionId())
        for mat in cells:
            yield {int(c): mat[row0[c]:row0[c] + head[c]]
                   for c in plan.clusters_of_vblock(v)}

    # One dict per partition, so ``heads[n]`` is node n's.
    heads = rdd.mapPartitions(cell_heads).collect()
    # Prewarm sample: first rows of every cluster, full dimensionality.
    prewarm_rows = {
        c: np.hstack([heads[plan.cell_node(c2v[c], b)][c]
                      for b in range(b_dim)])
        for c, n in enumerate(sizes) if n
    }
    return DistributedIndex(
        plan=plan,
        centroids=centroids,
        cluster_ids=cluster_ids,
        prewarm_rows=prewarm_rows,
        rdd=rdd,
    )
