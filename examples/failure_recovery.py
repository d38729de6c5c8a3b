#!/usr/bin/env python
"""Fail a storage node mid-workload and measure recovery.

Demonstrates the §4.2 recovery story: a node dies with logs outstanding;
the cluster settles surviving logs, replays the victim's replicated
DataLog, rebuilds every lost block by Reed-Solomon decode, and re-homes
them — after which the whole cluster verifies byte-for-byte.

Compares TSUE (real-time recycle, tiny log debt) against PL (deferred
recycle, large debt) — the Fig. 8b effect.

Run:  python examples/failure_recovery.py
"""

from repro import ClusterConfig, ECFS, RecoveryManager, TraceReplayer
from repro.common.units import KiB, fmt_bytes, fmt_time
from repro.traces import generate_trace, tencloud_spec


def run(method: str) -> None:
    config = ClusterConfig(n_osds=16, k=6, m=4, block_size=256 * KiB)
    ecfs = ECFS(config, method=method)
    files = ecfs.populate(n_files=4, stripes_per_file=6, fill="random")
    trace = generate_trace(
        tencloud_spec(), 800, files, ecfs.mds.lookup(files[0]).size, seed=3
    )
    TraceReplayer(ecfs, trace).run(n_clients=16)

    debt = ecfs.total_log_debt()
    print(f"[{method}] log debt at failure: {fmt_bytes(debt)}")

    manager = RecoveryManager(ecfs)
    report = ecfs.env.run(
        ecfs.env.process(manager.fail_and_recover(0), name="recovery")
    )
    print(
        f"[{method}] rebuilt {report.blocks_rebuilt} blocks "
        f"({fmt_bytes(report.bytes_rebuilt)}): "
        f"log settlement {fmt_time(report.prepare_seconds)}, "
        f"rebuild {fmt_time(report.rebuild_seconds)}, "
        f"bandwidth {report.bandwidth / 1e6:.1f} MB/s"
    )

    # the cluster must be fully consistent again
    ecfs.drain()
    stripes = ecfs.verify()
    print(f"[{method}] verified {stripes} stripes post-recovery\n")


def main() -> None:
    for method in ("tsue", "pl", "fo"):
        run(method)


if __name__ == "__main__":
    main()
