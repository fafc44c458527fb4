"""Harmony's cost model (paper §4.2.1, Table 1).

Implements the paper's objective

    C(π, Q) = Σ_{q∈Q} C_q(π) + α · I(π)

where ``C_q`` sums per-block computation and communication costs over the
dimension-based and vector-based components of plan ``π``, ``Load(n, π)``
is node ``n``'s total computation cost, and the imbalance factor ``I(π)``
is the standard deviation of per-node loads. ``choose_plan`` enumerates
every admissible ``B_vec × B_dim`` grid and returns the cheapest — this is
the "fine-grained query planner" that makes Harmony adaptive.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.machine import MachineModel
from repro.core.partition import PartitionPlan, grid_options, make_plan
from repro.ivf.index import probe_clusters

#: Bytes of one stored vector component (float32).
BYTES_PER_SCALAR = 4
#: Bytes of one transmitted partial distance (float64 accumulator).
BYTES_PER_PARTIAL = 8
#: Bytes of one (id, distance) result entry.
BYTES_PER_RESULT = 12
#: Bytes of one transmitted survivor position (int32).
BYTES_PER_POSITION = 4


@dataclass(frozen=True)
class CostParams:
    """Weights of the cost model: a machine model plus the user-defined
    imbalance weight α (paper's ``-α`` CLI parameter).

    ``pruning_prior`` is the planner's expectation of the asymptotic
    fraction of distance work that dimension-level early stopping skips
    (paper §3.1 measures 50-97% on real data; Table 3 averages ~45%).
    It lets the planner credit ``B_dim > 1`` grids for their pruning
    savings.
    """

    machine: MachineModel = MachineModel()
    alpha: float = 1.0
    pruning_prior: float = 0.6


def expected_keep_fraction(b_dim: int, prior: float) -> float:
    """Planner's estimate of the fraction of scan ops actually executed
    with ``b_dim`` staged blocks: later blocks skip progressively more
    candidates, saturating at ``prior``; one block can skip nothing."""
    if b_dim <= 1:
        return 1.0
    return 1.0 - prior * (b_dim - 1) / (b_dim + 1)


@dataclass
class QueryProfile:
    """Workload statistics the planner consumes.

    * ``probe_counts[c]`` — how many queries of the (sample) workload
      probe cluster ``c``; captures skew.
    * ``cluster_sizes[c]`` — vectors per cluster.
    """

    dim: int
    k: int
    probe_counts: np.ndarray
    cluster_sizes: np.ndarray

    @classmethod
    def from_queries(
        cls,
        centroids: np.ndarray,
        cluster_sizes: np.ndarray,
        queries: np.ndarray,
        nprobe: int,
        k: int = 10,
    ) -> "QueryProfile":
        """Profile an actual (sample) query batch by probing centroids."""
        probes = probe_clusters(centroids, queries, nprobe)
        counts = np.bincount(probes.ravel(), minlength=len(centroids))
        return cls(
            dim=centroids.shape[1],
            k=k,
            probe_counts=counts.astype(np.float64),
            cluster_sizes=np.asarray(cluster_sizes, dtype=np.float64),
        )

    @classmethod
    def uniform(
        cls,
        nlist: int,
        dim: int,
        cluster_sizes: np.ndarray,
        n_queries: int,
        nprobe: int,
        k: int = 10,
    ) -> "QueryProfile":
        """A skew-free profile: every cluster probed equally often."""
        counts = np.full(nlist, n_queries * nprobe / nlist)
        return cls(dim, k, counts, np.asarray(cluster_sizes, dtype=np.float64))


@dataclass
class CostBreakdown:
    """Components of ``C(π, Q)`` in seconds (comp/comm are workload sums,
    imbalance is ``I(π)`` before the α weight)."""

    comp: float
    comm: float
    imbalance: float
    alpha: float
    node_loads: np.ndarray

    @property
    def total(self) -> float:
        """The paper's overall objective ``Σ C_q + α·I``."""
        return self.comp + self.comm + self.alpha * self.imbalance


def plan_cost(
    plan: PartitionPlan, profile: QueryProfile, params: CostParams
) -> CostBreakdown:
    """Evaluate ``C(π, Q)`` for one plan.

    Per probed cluster ``c`` (expected ``probe_counts[c]`` visits):

    * computation — ``size_c × dims_b`` scalar ops on each node hosting a
      dimension block of ``c``'s shard (``c_comp``, summed over blocks the
      total work is plan-invariant);
    * communication — per visit each dimension block receives the query
      slice (``dims_b × 4`` bytes; totals ``D × 4`` regardless of
      ``B_dim``, the §4.2.2 invariant); intermediate blocks additionally
      receive the survivor set (``4`` bytes/candidate) and return one
      partial sum per candidate (``8`` bytes each), while the final
      block returns only the top-``k`` results (a vector-partitioned
      worker reduces locally). Message count grows ``B_dim``-fold —
      exactly the latency-vs-balance trade the model arbitrates, and why
      ``B_dim = 1`` plans have near-zero communication (paper Fig. 8).
    """
    m = params.machine
    nlist = len(profile.cluster_sizes)
    node_loads = np.zeros(plan.n_nodes)
    comp = 0.0
    comm = 0.0
    keep = expected_keep_fraction(plan.b_dim, params.pruning_prior)
    widths = plan.widths.tolist()  # Python ints: bit-identical float sums
    for c in range(nlist):
        visits = profile.probe_counts[c]
        if visits == 0:
            continue
        size_c = profile.cluster_sizes[c]
        v = plan.cluster_to_vblock[c]
        for b, w in enumerate(widths):
            ops = visits * size_c * w * keep
            node_loads[plan.cell_node(v, b)] += m.comp_time(ops)
            comp += m.comp_time(ops)
            down = w * BYTES_PER_SCALAR
            if b > 0:  # survivor set resent; pruning shrinks it
                down += size_c * keep * BYTES_PER_POSITION
            if plan.b_dim == 1:
                up = profile.k * BYTES_PER_RESULT
            else:
                up = size_c * keep * BYTES_PER_PARTIAL
            comm += visits * m.comm_time(down + up, msgs=1)
    imbalance = float(node_loads.std())
    return CostBreakdown(comp, comm, imbalance, params.alpha, node_loads)


def choose_plan(
    n_nodes: int,
    profile: QueryProfile,
    params: CostParams = CostParams(),
    balanced: bool = True,
) -> tuple[PartitionPlan, CostBreakdown]:
    """Enumerate all grids and return the argmin plan with its cost.

    Cluster→shard packing weights each cluster by its expected load
    ``probe_counts × cluster_sizes`` so the LPT packer sees the same skew
    the imbalance factor penalizes. Ties prefer fewer dimension blocks
    (cheaper communication at equal cost).
    """
    weights = profile.probe_counts * profile.cluster_sizes
    best: tuple[PartitionPlan, CostBreakdown] | None = None
    for b_vec, b_dim in sorted(grid_options(n_nodes, profile.dim),
                               key=lambda g: g[1]):
        plan = make_plan(n_nodes, b_vec, b_dim, profile.dim, weights,
                         balanced=balanced)
        cost = plan_cost(plan, profile, params)
        if best is None or cost.total < best[1].total - 1e-15:
            best = (plan, cost)
    assert best is not None
    return best
