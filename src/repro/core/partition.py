"""Multi-granularity partition plans (paper §4.2, Figure 4).

A :class:`PartitionPlan` lays the IVF index out on a ``B_vec × B_dim``
grid: clusters are packed into ``B_vec`` vector shards (load-aware LPT
packing) and the dimension axis is split into ``B_dim`` contiguous blocks.
Grid cell ``(v, b)`` — shard ``v``'s vectors restricted to dimension block
``b`` — lives on exactly one node, so ``B_vec · B_dim = n_nodes`` and
every base vector is stored once (§4.3 space complexity, no replication).
The plan alone fixes which node hosts each cell and how wide each block
is; the layout, the engine, its workers and the cost model read both
from it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PartitionPlan:
    """Immutable description of one grid layout ``π``.

    * ``dim_bounds[b] = (lo, hi)`` — dimension block ``b`` covers
      columns ``lo:hi``.
    * ``cluster_to_vblock[c]`` — vector shard holding cluster ``c``.
    """

    n_nodes: int
    b_vec: int
    b_dim: int
    dim_bounds: tuple[tuple[int, int], ...]
    cluster_to_vblock: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.b_vec < 1 or self.b_dim < 1:
            raise ValueError(
                f"grid {self.b_vec}x{self.b_dim} needs b_vec, b_dim >= 1")
        if self.b_vec * self.b_dim != self.n_nodes:
            raise ValueError(
                f"grid {self.b_vec}x{self.b_dim} != n_nodes={self.n_nodes}"
            )
        if len(self.dim_bounds) != self.b_dim:
            raise ValueError("dim_bounds length must equal b_dim")

    def cell_node(self, v, b):
        """Node id hosting grid cell ``(v, b)`` — the custom-partitioner
        key of the Spark layout. The one numbering every layer reads;
        elementwise on arrays."""
        return v * self.b_dim + b

    def node_cell(self, n):
        """Inverse of :meth:`cell_node`: ``(v, b)`` of node ``n``."""
        return divmod(n, self.b_dim)

    @property
    def widths(self) -> np.ndarray:
        """Width (number of columns) of each dimension block."""
        return np.diff(np.asarray(self.dim_bounds), axis=1)[:, 0]

    def clusters_of_vblock(self, v: int) -> np.ndarray:
        """Cluster ids packed into vector shard ``v``."""
        a = np.asarray(self.cluster_to_vblock)
        return np.nonzero(a == v)[0]


def split_dims(dim: int, b_dim: int) -> tuple[tuple[int, int], ...]:
    """Contiguous, near-equal dimension blocks covering ``[0, dim)``."""
    if not 1 <= b_dim <= dim:
        raise ValueError(f"b_dim={b_dim} out of range for dim={dim}")
    edges = np.linspace(0, dim, b_dim + 1).round().astype(int)
    return tuple((int(edges[i]), int(edges[i + 1])) for i in range(b_dim))


def pack_clusters(
    weights: np.ndarray, b_vec: int, balanced: bool = True
) -> tuple[int, ...]:
    """Assign clusters to ``b_vec`` shards.

    ``balanced=True`` uses longest-processing-time greedy packing on the
    per-cluster load ``weights`` (size × expected probe frequency) — the
    paper's load-aware distribution. ``balanced=False`` is the naive
    round-robin-by-id layout used as the "w/o balanced load" ablation
    (Fig. 9).
    """
    weights = np.asarray(weights, dtype=np.float64)
    if not balanced:
        return tuple(int(c % b_vec) for c in range(len(weights)))
    order = np.argsort(-weights, kind="stable")
    load = np.zeros(b_vec)
    out = np.zeros(len(weights), dtype=int)
    for c in order:
        tgt = int(load.argmin())
        out[c] = tgt
        load[tgt] += weights[c]
    return tuple(int(v) for v in out)


def make_plan(
    n_nodes: int,
    b_vec: int,
    b_dim: int,
    dim: int,
    cluster_weights: np.ndarray,
    balanced: bool = True,
) -> PartitionPlan:
    """Construct a validated plan for the given grid shape."""
    return PartitionPlan(
        n_nodes=n_nodes,
        b_vec=b_vec,
        b_dim=b_dim,
        dim_bounds=split_dims(dim, b_dim),
        cluster_to_vblock=pack_clusters(cluster_weights, b_vec, balanced),
    )


def grid_options(n_nodes: int, dim: int) -> list[tuple[int, int]]:
    """All ``(b_vec, b_dim)`` grids with ``b_vec·b_dim = n_nodes`` and
    ``b_dim ≤ dim`` — the search space of the cost model."""
    return [
        (n_nodes // bd, bd)
        for bd in range(1, n_nodes + 1)
        if n_nodes % bd == 0 and bd <= dim
    ]
