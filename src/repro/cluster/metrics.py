"""Per-node and per-stage metering for the simulated cluster.

The engine records, for every pipeline stage, how many distance operations
each node executed and how many bytes/messages it exchanged with the
client. :class:`ClusterMetrics` aggregates these into the quantities the
paper reports: computation/communication breakdowns (Fig. 2b, Fig. 8),
load imbalance (§4.2.1 ``I(π)``), simulated elapsed time / QPS (Figs. 6-7)
and peak per-node memory (Table 5).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cluster.machine import MachineModel


@dataclass
class StageRecord:
    """Counts for one synchronized stage, arrays indexed by node id."""

    label: str
    ops: np.ndarray
    bytes_down: np.ndarray  # client -> node (query slices, survivor sets)
    bytes_up: np.ndarray  # node -> client (partial sums, results)
    msgs: np.ndarray

    def to_dict(self) -> dict:
        """JSON-safe copy: the label and per-node lists."""
        return {"label": self.label, "ops": self.ops.tolist(),
                "bytes_down": self.bytes_down.tolist(),
                "bytes_up": self.bytes_up.tolist(),
                "msgs": self.msgs.tolist()}

    def comp_seconds(self, model: MachineModel) -> float:
        """Stage compute span: the slowest node's compute time."""
        return model.comp_time(float(self.ops.max(initial=0.0)))

    def comm_seconds(self, model: MachineModel) -> float:
        """Stage communication span: the busiest link's transfer time."""
        per_link = model.comm_time(self.bytes_down + self.bytes_up, self.msgs)
        return float(per_link.max(initial=0.0))


@dataclass
class ClusterMetrics:
    """Accumulated metering for one search (or workload) run."""

    n_nodes: int
    stages: list[StageRecord] = field(default_factory=list)
    client_ops: float = 0.0

    def record_stage(self, label: str, ops, bytes_down, bytes_up,
                     msgs) -> None:
        """Append one stage; all arguments are length-``n_nodes`` arrays."""
        self.stages.append(StageRecord(
            label,
            np.asarray(ops, dtype=np.float64),
            np.asarray(bytes_down, dtype=np.float64),
            np.asarray(bytes_up, dtype=np.float64),
            np.asarray(msgs, dtype=np.float64),
        ))

    @property
    def peak_buffer_bytes(self) -> np.ndarray:
        """Per-node peak transient buffer bytes: the most a node sends and
        receives (``bytes_down + bytes_up``) in any one stage."""
        per_stage = [s.bytes_down + s.bytes_up for s in self.stages]
        return np.max(np.reshape(per_stage, (-1, self.n_nodes)), axis=0,
                      initial=0.0)

    # ---- aggregations -------------------------------------------------

    def node_ops(self) -> np.ndarray:
        """Total distance ops per node across all stages."""
        out = np.zeros(self.n_nodes)
        for s in self.stages:
            out += s.ops
        return out

    def total_bytes(self) -> float:
        """All bytes moved over the network in both directions."""
        return float(
            sum(s.bytes_down.sum() + s.bytes_up.sum() for s in self.stages)
        )

    def total_msgs(self) -> float:
        """All messages exchanged."""
        return float(sum(s.msgs.sum() for s in self.stages))

    def imbalance(self) -> float:
        """Std-dev of per-node total ops — the paper's ``I(π)`` measured
        on actual (not estimated) load."""
        return float(self.node_ops().std())

    def comp_seconds(self, model: MachineModel) -> float:
        """Sum of per-stage compute spans (critical-path compute)."""
        return sum(s.comp_seconds(model) for s in self.stages)

    def comm_seconds(self, model: MachineModel) -> float:
        """Sum of per-stage communication spans."""
        return sum(s.comm_seconds(model) for s in self.stages)

    def node_seconds(self, model: MachineModel) -> np.ndarray:
        """Per-node busy time: total compute and total communication of
        each node, composed by the model's overlap rule."""
        n_bytes = sum((s.bytes_down + s.bytes_up for s in self.stages),
                      np.zeros(self.n_nodes))
        msgs = sum((s.msgs for s in self.stages), np.zeros(self.n_nodes))
        return model.stage_time(model.comp_time(self.node_ops()),
                                model.comm_time(n_bytes, msgs))

    def simulated_seconds(self, model: MachineModel) -> float:
        """Simulated elapsed time of the query batch.

        * ``blocking`` mode models the synchronized baseline: global
          barriers between stages, so time is the sum of per-stage spans
          (compute + communication).
        * non-blocking mode models Harmony's pipelined/async execution:
          no global barriers — work streams through the nodes, so the
          batch finishes when the *bottleneck node* drains (lower-
          bounded by the longest single stage, which cannot be split).

        Client compute (centroid assignment, prewarm) precedes the
        distributed phase and is added serially in both modes.
        """
        t_client = model.comp_time(self.client_ops)
        spans = [model.stage_time(s.comp_seconds(model), s.comm_seconds(model))
                 for s in self.stages]
        if model.blocking:
            return t_client + sum(spans)
        return t_client + max(float(self.node_seconds(model).max()),
                              max(spans, default=0.0))
