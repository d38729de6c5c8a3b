"""Ablations beyond the paper's figures.

* DataLog replication count: 2-copy vs 3-copy front end (latency cost of
  durability),
* log-unit size: 16 MB -> 8 MB halves residence (§5.3.5's claim, scaled),
* read-cache effect: hot reads served from the log index vs the device.
"""

import pytest

from repro.cluster import ClusterConfig, ECFS
from repro.common.units import KiB
from repro.harness.runner import ExperimentConfig, run_experiment
from repro.traces import TraceReplayer, generate_trace, tencloud_spec
from repro.update.tsue import TSUEOptions


def test_ablation_replica_count_costs_latency():
    latency = {}
    for replicas in (1, 2):
        cfg = ExperimentConfig(
            method="tsue",
            trace="tencloud",
            n_clients=16,
            n_ops=800,
            method_options={
                "options": TSUEOptions(datalog_replicas=replicas)
            },
        )
        res = run_experiment(cfg)
        latency[replicas] = res.latency["mean"]
    print(f"\nmean update latency: 2-copy={latency[1]*1e6:.1f}us "
          f"3-copy={latency[2]*1e6:.1f}us")
    # an extra synchronous replica hop costs latency, but not 2x
    assert latency[2] > latency[1]
    assert latency[2] < 2.0 * latency[1]


def test_ablation_unit_size_halves_residence():
    """§5.3.5: halving the log unit size roughly halves the buffer
    residence interval (scaled units here)."""
    residence = {}
    for unit in (512 * KiB, 256 * KiB):
        cfg = ExperimentConfig(
            method="tsue",
            trace="tencloud",
            n_clients=32,
            n_ops=2500,
            log_unit_size=unit,
            log_pools=1,
        )
        res = run_experiment(cfg, keep_cluster=True)
        stats = res.ecfs.method.residence_stats()
        residence[unit] = stats["datalog"]["buffer"]
    big, small = residence[512 * KiB], residence[256 * KiB]
    print(f"\ndatalog buffer residence: 512K unit={big*1e3:.2f}ms "
          f"256K unit={small*1e3:.2f}ms")
    assert small < big
    assert small == pytest.approx(big / 2, rel=0.6)  # "roughly halves"


def test_ablation_read_cache_serves_hot_reads():
    """Reads of freshly updated data hit the log index, not the device."""
    ecfs = ECFS(
        ClusterConfig(n_osds=10, k=4, m=2, block_size=64 * KiB),
        method="tsue",
    )
    files = ecfs.populate(n_files=1, stripes_per_file=2, fill="zeros")
    (client,) = ecfs.add_clients(1)
    env = ecfs.env

    def flow():
        for i in range(20):
            yield env.process(client.update(files[0], i * 4096, 4096))
        for i in range(20):
            yield env.process(client.read(files[0], i * 4096, 4096))

    env.run(env.process(flow()))
    pools = [
        pool
        for osd in ecfs.osds
        for _p, pool in ecfs.method.built_pools(osd.name, "datalog")
    ]
    hits = sum(p.cache_hits for p in pools)
    misses = sum(p.cache_misses for p in pools)
    print(f"\nread-cache: {hits} hits, {misses} misses")
    assert hits == 20  # every hot read served from the in-memory index
