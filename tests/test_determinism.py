"""Determinism regression: one seed => byte-identical runs.

Runs the Fig. 5 experiment pipeline twice with the same seed and asserts
identical event counts and canonical metric digests (which cover the sim
clock, op counts, latency sums, per-device counters, network totals, and a
hash of every block's bytes).  Any nondeterminism in the DES event order,
RNG plumbing, or data movement changes the digest.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.fault.digest import cluster_digest, content_digest
from repro.harness.runner import ExperimentConfig, run_experiment


def _small_cfg(seed: int = 4242) -> ExperimentConfig:
    return ExperimentConfig(
        method="tsue",
        trace="tencloud",
        k=4,
        m=2,
        n_osds=10,
        n_clients=4,
        n_ops=200,
        block_size=1 << 16,
        log_unit_size=1 << 17,
        n_files=2,
        stripes_per_file=2,
        seed=seed,
        verify=True,
    )


def test_fig5_pipeline_deterministic():
    a = run_experiment(_small_cfg(), keep_cluster=True)
    b = run_experiment(_small_cfg(), keep_cluster=True)
    # event counts
    assert a.ecfs.metrics.updates.count == b.ecfs.metrics.updates.count
    assert a.ecfs.metrics.reads.count == b.ecfs.metrics.reads.count
    assert a.ecfs.net.total_msgs == b.ecfs.net.total_msgs
    assert a.ecfs.net.total_bytes == b.ecfs.net.total_bytes
    assert a.ecfs.env.now == b.ecfs.env.now
    assert a.iops == b.iops
    assert a.latency == b.latency
    # byte-identical metric digest (includes block content hash)
    assert cluster_digest(a.ecfs) == cluster_digest(b.ecfs)


def test_different_seed_changes_digest():
    a = run_experiment(_small_cfg(seed=1), keep_cluster=True)
    b = run_experiment(_small_cfg(seed=2), keep_cluster=True)
    assert cluster_digest(a.ecfs) != cluster_digest(b.ecfs)


@pytest.mark.parametrize("method", ["fo", "pl", "tsue"])
def test_determinism_across_methods(method):
    def digest():
        cfg = _small_cfg()
        cfg.method = method
        cfg.n_ops = 120
        return content_digest(run_experiment(cfg, keep_cluster=True).ecfs)

    assert digest() == digest()


# ------------------------------------------------------ across hash seeds
_OFFSETS_SNIPPET = """
import json
from repro.cluster import ClusterConfig, ECFS
from repro.storage.base import StorageDevice

offsets = []
submit = StorageDevice.submit

def recording_submit(device, req):
    offsets.append([device.name, req.tag, req.offset])
    return submit(device, req)

StorageDevice.submit = recording_submit
for method in ("fl", "parix"):
    ecfs = ECFS(
        ClusterConfig(n_osds=10, k=4, m=2, block_size=1 << 16, seed=5),
        method=method,
    )
    files = ecfs.populate(n_files=1, stripes_per_file=1, fill="zeros")
    (client,) = ecfs.add_clients(1)
    # FL: a read of a logged range merges the log region in; PARIX: the
    # first update of an address writes an index page at each parity node
    ecfs.env.run(ecfs.env.process(client.update(files[0], 12345, 4000)))
    ecfs.env.run(ecfs.env.process(client.read(files[0], 12345, 4000)))
print(json.dumps(offsets))
"""


def _offsets_under(hash_seed: str) -> list:
    src_dir = pathlib.Path(__file__).parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", _OFFSETS_SNIPPET],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(src_dir), PYTHONHASHSEED=hash_seed),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout)


def test_device_addresses_do_not_move_with_the_hash_seed():
    """Every simulated device address (the input of the sequential-or-random
    classification, i.e. of service time) is the same under any
    ``PYTHONHASHSEED`` — in particular the four that used to come from
    ``hash()`` of something holding a ``str``: FL's log-region reads, PARIX's
    index-page writes and every log stream's base address."""
    one, two = _offsets_under("1"), _offsets_under("2")
    tags = {tag for _device, tag, _offset in one}
    assert {"fl-append", "fl-read-merge", "parix-append", "parix-index"} <= tags
    assert one == two
