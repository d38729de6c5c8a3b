"""Unit tests for metrics collection, workload aggregation, formatting."""

import numpy as np
import pytest

from repro.metrics import (
    MetricsCollector,
    aggregate_workload,
    format_series,
    format_table,
    lifespan_ratios,
)
from repro.net import NetworkFabric
from repro.sim import Environment
from repro.storage import IOKind, IORequest, SSDevice


class _FakeEnv:
    def __init__(self):
        self.now = 0.0


def test_collector_iops_over_span():
    env = _FakeEnv()
    mc = MetricsCollector(env)
    for t in (1.0, 1.5, 2.0, 3.0):
        env.now = t
        mc.record_update(0.001, 4096)
    assert mc.aggregate_iops("updates") == pytest.approx(4 / 2.0)
    assert mc.updates.bytes == 4 * 4096


def test_collector_single_op_iops():
    env = _FakeEnv()
    mc = MetricsCollector(env)
    env.now = 1.0
    mc.record_update(0.001, 4096)
    assert mc.aggregate_iops("updates") == 1.0


def test_latency_stats():
    env = _FakeEnv()
    mc = MetricsCollector(env)
    for lat in (0.001, 0.002, 0.003, 0.010):
        mc.record_read(lat, 1)
    stats = mc.latency_stats("reads")
    assert stats["count"] == 4
    assert stats["mean"] == pytest.approx(0.004)
    assert stats["max"] == pytest.approx(0.010)
    assert stats["p50"] == pytest.approx(0.0025)


def test_latency_stats_empty():
    mc = MetricsCollector(_FakeEnv())
    assert mc.latency_stats("updates")["count"] == 0


def test_iops_series_windows():
    env = _FakeEnv()
    mc = MetricsCollector(env)
    for t in np.linspace(0.0, 9.99, 100):
        env.now = float(t)
        mc.record_update(0.001, 1)
    centers, iops = mc.iops_series(window=1.0)
    assert len(centers) == 10
    assert iops.sum() == pytest.approx(100.0)


def test_iops_series_empty():
    mc = MetricsCollector(_FakeEnv())
    centers, iops = mc.iops_series()
    assert centers.size == 0 and iops.size == 0


def test_rebalance_stats_bytes_and_bandwidth():
    env = _FakeEnv()
    mc = MetricsCollector(env)
    assert mc.rebalance_stats()["bandwidth"] == 0.0
    env.now = 1.0
    mc.record_rebalance(1000)
    env.now = 3.0
    mc.record_rebalance(3000)
    assert mc.rebalance_stats() == {
        "moved_blocks": 2.0,
        "moved_bytes": 4000.0,
        "time_to_balanced": 2.0,
        "bandwidth": pytest.approx(2000.0),
    }


# --------------------------------------------------------------- workload
def test_aggregate_workload_sums_devices():
    env = Environment()

    class _OSD:
        def __init__(self, dev):
            self.device = dev

    devs = [SSDevice(env, f"s{i}") for i in range(2)]
    net = NetworkFabric(env)
    net.add_node("a")
    net.add_node("b")

    def io():
        for dev in devs:
            yield env.process(
                dev.submit(IORequest(IOKind.WRITE, 1 << 28, 4096, stream="x", overwrite=True))
            )
        yield from net.transfer("a", "b", 12345)

    env.run(env.process(io()))
    report = aggregate_workload([_OSD(d) for d in devs], net)
    assert report.rw_ops == 2
    assert report.overwrite_ops == 2
    assert report.network_bytes == 12345
    assert report.page_programs == 2
    row = report.row()
    assert row["OVERWRITE Num."] == 2


# --------------------------------------------------------------- lifespan
def test_lifespan_ratios():
    ratios = lifespan_ratios({"tsue": 10.0, "fo": 130.0, "pl": 25.0})
    assert ratios["tsue"] == 1.0
    assert ratios["fo"] == pytest.approx(13.0)
    assert ratios["pl"] == pytest.approx(2.5)


def test_lifespan_zero_reference():
    ratios = lifespan_ratios({"tsue": 0.0, "fo": 5.0})
    assert ratios["fo"] == float("inf")


def test_lifespan_missing_reference():
    with pytest.raises(KeyError):
        lifespan_ratios({"fo": 1.0})


# -------------------------------------------------------------- formatting
def test_format_table_alignment_and_values():
    text = format_table(
        {"row1": {"A": 1.5, "B": 2}, "row2": {"A": 10.25}},
        title="T",
    )
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "A" in lines[1] and "B" in lines[1]
    assert "1.50" in text
    assert "-" in lines[-1]  # missing B in row2 shown as dash


def test_format_table_empty():
    assert format_table({}, title="empty") == "empty"


def test_format_series():
    text = format_series([1.0, 2.0], [10.0, 20.0], "x", "y", title="S")
    assert text.startswith("S")
    assert "10.000" in text
