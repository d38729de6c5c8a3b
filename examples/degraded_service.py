#!/usr/bin/env python
"""Operating through a failure: heartbeats, degraded reads, auto-recovery.

A cluster serves updates while one node stops mid-run (``ECFS.stop_osd``:
it goes silent and the update method is not told).  The heartbeat service
declares it dead, recovery starts automatically — crashing the stopped node
first, so its unrecycled logs are stashed and replayed — and client reads
targeting the dead node are served degraded (on-the-fly decode from k
survivors) until the blocks are re-homed.

Run:  python examples/degraded_service.py
"""

from repro import ClusterConfig, ECFS, RecoveryManager
from repro.cluster import HeartbeatService
from repro.common.units import KiB, fmt_time


def main() -> None:
    config = ClusterConfig(n_osds=12, k=4, m=2, block_size=128 * KiB)
    ecfs = ECFS(config, method="tsue")
    files = ecfs.populate(n_files=2, stripes_per_file=4, fill="random")
    (client,) = ecfs.add_clients(1)
    env = ecfs.env

    manager = RecoveryManager(ecfs)
    reports = []

    def auto_recover(osd_idx: int) -> None:
        print(f"  [t={fmt_time(env.now)}] MDS declared osd{osd_idx} failed "
              f"-> recovery launched")

        def job():
            report = yield env.process(manager.fail_and_recover(osd_idx))
            reports.append(report)
            print(f"  [t={fmt_time(env.now)}] recovery done: "
                  f"{report.blocks_rebuilt} blocks at "
                  f"{report.bandwidth / 1e6:.1f} MB/s")

        env.process(job(), name="auto-recovery")

    hb = HeartbeatService(ecfs, interval=0.2, timeout=0.7, on_failure=auto_recover)
    hb.start()

    # locate a block on the node we will kill, so reads hit the degraded path
    victim = 0
    target = next(
        b for b in sorted(ecfs.known_blocks)
        if ecfs.placement.osd_of(b) == victim and b.idx < ecfs.rs.k
    )
    file_off = (
        target.stripe * ecfs.rs.k + target.idx
    ) * config.block_size

    def workload():
        yield env.process(client.update(target.file_id, file_off, 4 * KiB))
        print(f"[t={fmt_time(env.now)}] update to {target} acked")
        ecfs.stop_osd(victim)
        print(f"[t={fmt_time(env.now)}] osd{victim} just stopped "
              f"(holds {target})")
        # this read arrives before recovery re-homes the block: degraded
        yield env.timeout_us(50_000)
        t0 = env.now
        data = yield env.process(client.read(target.file_id, file_off, 4 * KiB))
        print(f"[t={fmt_time(env.now)}] degraded read served in "
              f"{fmt_time(env.now - t0)} ({data.shape[0]} bytes, decoded "
              f"from {ecfs.rs.k} survivors)")

    env.process(workload(), name="workload")
    env.run(until=30.0)
    hb.stop()

    ecfs.drain()
    stripes = ecfs.verify()
    print(f"\nfinal state verified: {stripes} stripes consistent, "
          f"{len(reports)} recovery completed")


if __name__ == "__main__":
    main()
