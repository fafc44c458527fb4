"""Machine model for the simulated cluster.

The paper's testbed is 20 nodes (56-thread Xeon Gold 6258R, AVX-512, MKL)
on 100 Gb/s links. We cannot run on that hardware, so per-node *counts*
(distance ops, bytes, messages) are metered exactly by the engine and this
model converts them into simulated seconds. The defaults preserve the
bandwidth disparity the paper leans on (§1: "transmission up to 100 Gb/s
vs computation hundreds of GB/s"), so which strategy wins — and roughly by
what factor — is determined by the same ratios as on the real cluster.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class MachineModel:
    """Per-node performance constants for the simulated cluster.

    * ``ops_per_sec`` — fused (sub, mul, add) scalar distance operations
      per second per node. 5e9 models a well-vectorized MKL scan loop per
      paper-node; the absolute value only scales all simulated times.
    * ``bandwidth_bytes`` — link bandwidth (100 Gb/s = 12.5e9 B/s).
    * ``latency_sec`` — fixed per-message cost (MPI small-message latency).
    * ``blocking`` — if True, a stage's time is compute + communication
      (paper's "B" mode, Fig. 2b); otherwise ``MPI_Isend/Irecv`` overlap
      hides most — but not all — of the shorter of the two ("NB"): the
      pipeline's stage *dependency* (partials → master prune → survivor
      broadcast) keeps a residual fraction ``1 - overlap`` on the
      critical path, which is why Fig. 2b still shows communication
      segments in NB mode.
    * ``overlap`` — fraction of the overlappable time actually hidden in
      non-blocking mode.
    """

    ops_per_sec: float = 5e9
    bandwidth_bytes: float = 12.5e9
    latency_sec: float = 2e-6
    blocking: bool = False
    overlap: float = 0.75

    def comp_time(self, ops: float) -> float:
        """Seconds to execute ``ops`` distance operations on one node."""
        return ops / self.ops_per_sec

    def comm_time(self, n_bytes: float, msgs: float) -> float:
        """Seconds to move ``n_bytes`` in ``msgs`` messages over one link."""
        return msgs * self.latency_sec + n_bytes / self.bandwidth_bytes

    def stage_time(self, comp_sec, comm_sec):
        """Elapsed seconds of one synchronized pipeline stage (elementwise
        for arrays)."""
        if self.blocking:
            return comp_sec + comm_sec
        return (np.maximum(comp_sec, comm_sec)
                + (1.0 - self.overlap) * np.minimum(comp_sec, comm_sec))
