"""Query load distribution and dimension-order scheduling (§4.2.2, §4.3).

Routing happens in three steps mirroring Figure 4(b): queries are mapped
to probed clusters on the client, clusters to vector shards by the plan,
and each (query, shard) visit is split across the shard's dimension
blocks. The *dimension order* in which a query walks the blocks is the
pipeline's scheduling knob:

* ``static`` — every query walks blocks 0,1,…; only one node of a shard
  is busy per stage (the non-pipelined ablation, and the configuration of
  the paper's Table 3 pruning measurement);
* ``rotate`` — query ``i`` starts at block ``i mod B_dim`` (Fig. 5b's
  staggering), keeping all nodes busy in every stage;
* ``load_aware`` — blocks are ordered so the most-loaded node's block is
  deferred to the latest stage, where pruning has already removed most
  candidates (§4.3 "Load Balancing Strategies").
"""
from __future__ import annotations

import numpy as np

from repro.core.partition import PartitionPlan

#: Valid scheduling policies.
POLICIES = ("static", "rotate", "load_aware")


def queries_per_vblock(
    plan: PartitionPlan, probes: np.ndarray
) -> np.ndarray:
    """The vector shard of each probe: ``(Q, nprobe)``, like ``probes``,
    the output of centroid assignment. This is the blue-table mapping of
    Figure 4(b)."""
    return np.asarray(plan.cluster_to_vblock)[probes]


def assign_query_groups(
    n_queries: int, b_vec: int
) -> np.ndarray:
    """Split queries into ``b_vec`` round-robin groups for the vector-level
    pipeline (Fig. 5a): in round ``r`` group ``g`` visits shard
    ``(g + r) mod b_vec``, so shards are never contended."""
    return np.arange(n_queries) % b_vec


def dim_order(
    policy: str,
    q: int | np.ndarray,
    b_dim: int,
    node_loads_of_blocks: np.ndarray | None = None,
) -> np.ndarray:
    """Dimension-block visit orders of queries ``q`` under ``policy``.

    ``q`` is a query id or an array of ``n``; the result is one order of
    ``B_dim`` blocks per query, shape ``(n, B_dim)`` for an array.
    ``node_loads_of_blocks[..., b]`` is the accumulated load of the node
    hosting block ``b`` in each query's shard (needed by ``load_aware``).
    """
    if policy not in POLICIES:
        raise ValueError(f"unknown schedule {policy!r}; one of {POLICIES}")
    q = np.asarray(q)[..., None]
    if policy == "static":
        return np.arange(b_dim) + np.zeros_like(q)
    stagger = (np.arange(b_dim) + q) % b_dim
    if policy == "rotate":
        return stagger
    # load_aware: least-loaded node's block first, most-loaded last;
    # stagger ties by query id so concurrent queries still spread out.
    loads = (
        np.zeros(stagger.shape)
        if node_loads_of_blocks is None
        else np.asarray(node_loads_of_blocks, dtype=np.float64)
    )
    return np.lexsort((stagger, loads), axis=-1)
