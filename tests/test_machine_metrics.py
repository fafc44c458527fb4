"""Machine model + cluster metrics (the simulated-cluster substrate)."""
import numpy as np
import pytest

from repro.cluster.machine import MachineModel
from repro.cluster.metrics import ClusterMetrics, StageRecord


def test_comp_time_linear():
    m = MachineModel(ops_per_sec=1e9)
    assert m.comp_time(1e9) == pytest.approx(1.0)
    assert m.comp_time(0) == 0.0


def test_comm_time_latency_plus_bandwidth():
    m = MachineModel(bandwidth_bytes=1e9, latency_sec=1e-3)
    assert m.comm_time(1e9, msgs=2) == pytest.approx(1.002)


def test_stage_time_blocking_adds():
    m = MachineModel(blocking=True)
    assert m.stage_time(1.0, 0.5) == pytest.approx(1.5)


def test_stage_time_nonblocking_overlaps():
    m = MachineModel(blocking=False, overlap=0.75)
    # hides 75% of the shorter side
    assert m.stage_time(1.0, 0.4) == pytest.approx(1.0 + 0.25 * 0.4)
    assert m.stage_time(0.4, 1.0) == pytest.approx(1.0 + 0.25 * 0.4)


def test_nonblocking_never_beats_max():
    m = MachineModel(blocking=False)
    assert m.stage_time(2.0, 3.0) >= 3.0


def _metrics():
    cm = ClusterMetrics(2)
    cm.record_stage("a", ops=[100, 300], bytes_down=[10, 20],
                    bytes_up=[5, 5], msgs=[2, 2])
    cm.record_stage("b", ops=[200, 0], bytes_down=[0, 0],
                    bytes_up=[8, 0], msgs=[1, 0])
    return cm


def test_node_ops_accumulates():
    np.testing.assert_array_equal(_metrics().node_ops(), [300, 300])


def test_total_bytes_and_msgs():
    cm = _metrics()
    assert cm.total_bytes() == 10 + 20 + 5 + 5 + 8
    assert cm.total_msgs() == 5


def test_imbalance_is_std_of_node_ops():
    cm = _metrics()
    assert cm.imbalance() == pytest.approx(np.std([300, 300]))
    cm.record_stage("c", [100, 0], [0, 0], [0, 0], [0, 0])
    assert cm.imbalance() == pytest.approx(np.std([400, 300]))


def test_stage_comp_span_is_max_node():
    rec = StageRecord("s", np.array([100.0, 300.0]), np.zeros(2),
                      np.zeros(2), np.zeros(2))
    m = MachineModel(ops_per_sec=100.0)
    assert rec.comp_seconds(m) == pytest.approx(3.0)


def test_stage_comm_span_busiest_link():
    rec = StageRecord("s", np.zeros(2), np.array([0.0, 1e9]),
                      np.array([0.0, 1e9]), np.array([0.0, 4.0]))
    m = MachineModel(bandwidth_bytes=1e9, latency_sec=0.25)
    assert rec.comm_seconds(m) == pytest.approx(2.0 + 1.0)


def test_stage_comm_span_is_slowest_link_not_most_bytes():
    # Node A moves 100 kB in 1 message (10 µs), node B 50 kB in 10
    # messages (24 µs): B's link is the busiest.
    rec = StageRecord("s", np.zeros(2), np.array([1e5, 5e4]), np.zeros(2),
                      np.array([1.0, 10.0]))
    assert rec.comm_seconds(MachineModel()) == pytest.approx(24e-6)


def test_simulated_seconds_includes_client():
    cm = ClusterMetrics(1)
    cm.client_ops = 5e9
    m = MachineModel(ops_per_sec=5e9)
    assert cm.simulated_seconds(m) == pytest.approx(1.0)


def test_simulated_seconds_sums_stage_spans():
    cm = _metrics()
    m = MachineModel(ops_per_sec=100.0, bandwidth_bytes=1e12,
                     latency_sec=0.0, blocking=True)
    # stage a span 3.0 (node1), stage b span 2.0 (node0)
    assert cm.simulated_seconds(m) == pytest.approx(5.0, rel=1e-6)


def test_peak_buffer_tracks_max():
    cm = _metrics()
    np.testing.assert_array_equal(cm.peak_buffer_bytes, [15, 25])


def test_empty_metrics_zero():
    cm = ClusterMetrics(3)
    assert cm.simulated_seconds(MachineModel()) == 0.0
    assert cm.imbalance() == 0.0
    assert cm.total_bytes() == 0.0
