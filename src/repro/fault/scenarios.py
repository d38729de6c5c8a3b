"""The named scenario catalog (``python -m repro scenario --list``).

Each entry is a factory returning a fresh :class:`ScenarioSpec`; all specs
end with the cluster-wide stripe-verify oracle and a canonical metric
digest, and every one is seed-deterministic.  To add a scenario, write a
``_spec_<name>()`` factory composing a workload + :class:`FaultSchedule` +
invariant checks, and register it in :data:`SCENARIOS`.
"""

from __future__ import annotations

from typing import Callable

from repro.background.config import BackgroundConfig
from repro.common.units import KiB, MiB
from repro.fault.events import (
    BounceOSD,
    CorruptBlock,
    CrashOSD,
    DegradeNIC,
    FaultSchedule,
    OSDDecommission,
    OSDJoin,
    PartitionNet,
    ScrubPass,
    SlowDisk,
    StickDisk,
    WeightChange,
    after_drain,
    after_ops,
    after_recycles,
    mid_rebalance,
)
from repro.fault.runner import ScenarioSpec

__all__ = ["SCENARIOS", "get_scenario"]


# ------------------------------------------------------------------- checks
def _expect_recoveries(n: int):
    def check(ecfs, injector):
        if len(injector.recovery_reports) != n:
            raise AssertionError(
                f"expected {n} recoveries, saw {len(injector.recovery_reports)}"
            )
        for report in injector.recovery_reports:
            if report.blocks_rebuilt <= 0:
                raise AssertionError("a recovery rebuilt nothing")

    return check


def _expect_no_recovery(ecfs, injector):
    if injector.recovery_reports:
        raise AssertionError("no rebuild expected in this scenario")


def _expect_all_ops_served(ecfs, injector):
    # outages may fail individual ops; a pure-degradation scenario must not
    total = ecfs.metrics.updates.count + ecfs.metrics.reads.count
    if total <= 0:
        raise AssertionError("workload did not run")


def _expect_scrub_repaired(n: int):
    def check(ecfs, injector):
        repaired = sum(len(r.repaired) for r in injector.scrub_reports)
        if repaired != n:
            raise AssertionError(f"expected {n} repaired blocks, saw {repaired}")
        for osd in ecfs.osds:
            if osd.store.corrupted:
                raise AssertionError(f"{osd.name} still has latent errors")

    return check


def _expect_rebalanced(n_events: int = 1, max_move_factor: float | None = 1.5):
    """Every topology event ran a rebalance to completion: all blocks sit at
    their epoch-ideal homes, and (for minimal-movement policies) the moved
    bytes stay within ``max_move_factor / n`` of stored bytes."""

    def check(ecfs, injector):
        if len(injector.rebalance_reports) != n_events:
            raise AssertionError(
                f"expected {n_events} rebalances, saw "
                f"{len(injector.rebalance_reports)}"
            )
        if not ecfs.placement.balanced():
            raise AssertionError(
                f"{len(ecfs.placement.remapped)} blocks still off their "
                "epoch-ideal homes after the rebalance"
            )
        if max_move_factor is not None:
            total = len(ecfs.known_blocks) * ecfs.config.block_size
            n = len([o for o in ecfs.osds if not o.failed]) or len(ecfs.osds)
            bound = max_move_factor / n * total
            moved = sum(r.moved_bytes for r in injector.rebalance_reports)
            if moved > bound:
                raise AssertionError(
                    f"rebalance moved {moved} bytes, above the minimal-"
                    f"movement bound {bound:.0f} ({max_move_factor}/{n} "
                    "of stored bytes)"
                )

    return check


def _expect_epoch(n: int):
    def check(ecfs, injector):
        if ecfs.placement.epoch != n:
            raise AssertionError(
                f"expected placement epoch {n}, at {ecfs.placement.epoch}"
            )

    return check


# ---------------------------------------------------------------- scenarios
def _spec_crash_mid_update() -> ScenarioSpec:
    """Single OSD crashes with updates in flight; heartbeat detects it, the
    cluster rebuilds, clients ride out the outage (Fig. 8b's story)."""

    def faults(spec: ScenarioSpec) -> FaultSchedule:
        # recovery starts only after the heartbeat monitor had time to
        # notice the silence (timeout + a couple of monitor ticks)
        return FaultSchedule().when(
            after_ops(spec.n_ops // 3),
            CrashOSD(
                osd=0, recover=True,
                detect_delay=spec.hb_timeout + 2 * spec.hb_interval,
            ),
        )

    return ScenarioSpec(
        name="crash-mid-update",
        description="single OSD crash mid-update; heartbeat-detected rebuild",
        method="tsue",
        heartbeat=True,
        n_ops=180,
        build_faults=faults,
        checks=[_expect_recoveries(1)],
    )


def _spec_double_failure() -> ScenarioSpec:
    """Two overlapping failures inside RS(6,3)'s tolerance: the second node
    dies while the first rebuild may still be running — rebuild workers
    retry against freshly chosen survivors."""

    def faults(spec: ScenarioSpec) -> FaultSchedule:
        return (
            FaultSchedule()
            .when(after_ops(spec.n_ops // 4), CrashOSD(osd=2, recover=True))
            .when(after_ops(spec.n_ops // 2), CrashOSD(osd=7, recover=True))
        )

    return ScenarioSpec(
        name="double-failure",
        description="two crashes within RS(6,3) tolerance, overlapping rebuilds",
        method="tsue",
        n_osds=12,
        k=6,
        m=3,
        n_ops=160,
        build_faults=faults,
        checks=[_expect_recoveries(2)],
    )


def _spec_crash_during_recycle() -> ScenarioSpec:
    """Crash lands while the three-layer log pipeline is actively recycling
    (DataLog/DeltaLog/ParityLog units in flight): exactly-once replay from
    the stash + dedup tokens keeps every acked update durable."""

    def faults(spec: ScenarioSpec) -> FaultSchedule:
        return FaultSchedule().when(
            after_recycles(3),
            CrashOSD(osd=1, recover=True),
            poll=0.002,  # land close to the recycle activity
            deadline=None,
        )

    return ScenarioSpec(
        name="crash-during-recycle",
        description="OSD crash amid DataLog/DeltaLog/ParityLog recycling",
        method="tsue",
        log_unit_size=64 * KiB,  # block-sized units force frequent recycles
        n_ops=220,
        build_faults=faults,
        checks=[_expect_recoveries(1)],
    )


def _spec_rolling_restart() -> ScenarioSpec:
    """Three nodes bounce in sequence (transient downtime, contents intact,
    no rebuild): parity deltas addressed to a down node are buffered and
    replayed on restart, so the cluster verifies without any re-encode."""

    def faults(spec: ScenarioSpec) -> FaultSchedule:
        # short downtimes: the bounces stay (mostly) disjoint, so the
        # cluster never exceeds its m=2 concurrent-outage tolerance
        return (
            FaultSchedule()
            .when(after_ops(spec.n_ops // 4), BounceOSD(osd=0, downtime=0.01))
            .when(after_ops(spec.n_ops // 2), BounceOSD(osd=1, downtime=0.01))
            .when(after_ops(3 * spec.n_ops // 4), BounceOSD(osd=2, downtime=0.01))
        )

    return ScenarioSpec(
        name="rolling-restart",
        description="rolling restarts of three OSDs under load, no rebuild",
        method="tsue",
        n_ops=200,
        build_faults=faults,
        checks=[_expect_no_recovery],
    )


def _spec_partition_heal() -> ScenarioSpec:
    """A two-node island is cut off: heartbeats stop crossing the cut, the
    MDS declares the islanders dead, the partition heals, and the monitor
    readmits them — no data was lost, nothing is rebuilt."""

    def faults(spec: ScenarioSpec) -> FaultSchedule:
        return FaultSchedule().when(
            after_ops(spec.n_ops // 4),
            PartitionNet(group=("osd0", "osd1"), heal_after=spec.hb_timeout + 2.0),
        )

    def check_detected(ecfs, injector):
        # the islanders must have been declared failed and later readmitted
        if ecfs.mds.failed & {0, 1}:
            raise AssertionError("islanders were not readmitted after the heal")

    return ScenarioSpec(
        name="partition-heal",
        description="network partition detected by heartbeats, then healed",
        method="tsue",
        heartbeat=True,
        n_ops=160,
        build_faults=faults,
        checks=[_expect_no_recovery, check_detected],
    )


def _spec_scrub_repair() -> ScenarioSpec:
    """Latent sector corruption strikes one data and one parity block after
    the workload settles; the scrubber's checksum pass localizes both,
    reconstructs them by RS decode, and rewrites them in place."""

    def faults(spec: ScenarioSpec) -> FaultSchedule:
        settled = lambda e: after_ops(spec.n_ops)(e) and after_drain(e)  # noqa: E731
        corrupted = lambda e: any(  # noqa: E731
            osd.store.corrupted for osd in e.osds
        )
        return (
            FaultSchedule()
            .when(settled, CorruptBlock(nth=1, kind="data", offset=4096, nbytes=512))
            .when(settled, CorruptBlock(nth=2, kind="parity", offset=0, nbytes=2048))
            .when(corrupted, ScrubPass(repair=True))
        )

    return ScenarioSpec(
        name="scrub-repair",
        description="latent sector corruption found and repaired by scrub",
        method="tsue",
        n_ops=120,
        build_faults=faults,
        checks=[_expect_scrub_repaired(2), _expect_no_recovery],
    )


def _spec_slow_disk() -> ScenarioSpec:
    """Gray failure: one node's disk slows 6x and briefly hangs while its
    NIC loses packets and adds latency — service degrades but every op
    completes and the cluster stays consistent."""

    def faults(spec: ScenarioSpec) -> FaultSchedule:
        return (
            FaultSchedule()
            .when(after_ops(spec.n_ops // 5), SlowDisk(osd=3, factor=6.0))
            .when(
                after_ops(spec.n_ops // 5),
                DegradeNIC(
                    node="osd3", bw_factor=0.5, extra_latency=2e-4, loss_prob=0.02
                ),
            )
            .when(after_ops(spec.n_ops // 2), StickDisk(osd=3, duration=0.05))
        )

    return ScenarioSpec(
        name="slow-disk",
        description="gray failure: slow/stuck disk + degraded lossy NIC",
        method="tsue",
        n_ops=160,
        build_faults=faults,
        checks=[_expect_all_ops_served, _expect_no_recovery],
    )


# ------------------------------------------------- topology (policy x event)
# The elastic-topology grid: every cell pairs a placement policy with a
# membership event and rides the same concurrent workload.  Sweepable as
#   python -m repro sweep --scenarios topo-join-crush,topo-join-rotation ...
_TOPO_GEOMETRY = dict(
    # (k+m)/n = 0.375: CRUSH's collision-retry cascade stays well inside the
    # 1.5/n minimal-movement bound (see repro.placement.crush); enough
    # stripes that the bound is statistically comfortable at any seed
    n_osds=16,
    k=4,
    m=2,
    n_files=4,
    stripes_per_file=6,
    n_ops=160,
)


def _spec_topo_join_crush() -> ScenarioSpec:
    """A 17th OSD joins mid-workload under CRUSH: the epoch advances, the
    rebalancer migrates ~1/n of blocks (bandwidth-capped) onto the newcomer
    while updates keep flowing, and the cluster verifies byte-clean."""

    def faults(spec: ScenarioSpec) -> FaultSchedule:
        return FaultSchedule().when(
            after_ops(spec.n_ops // 3),
            OSDJoin(weight=1.0, bw_cap=256 * MiB, parallel=2),
        )

    return ScenarioSpec(
        name="topo-join-crush",
        description="OSD joins under CRUSH: minimal-movement rebalance under load",
        method="tsue",
        placement="crush",
        build_faults=faults,
        checks=[
            _expect_rebalanced(1, max_move_factor=1.5),
            _expect_epoch(1),
            _expect_no_recovery,
        ],
        **_TOPO_GEOMETRY,
    )


def _spec_topo_join_rotation() -> ScenarioSpec:
    """The same join under the rotation policy: correctness holds (epoch
    remaps + rebalance + verify), but rotation re-rotates nearly every
    stripe — the movement contrast that motivates CRUSH (no minimal-
    movement bound is asserted here, only completion)."""

    def faults(spec: ScenarioSpec) -> FaultSchedule:
        return FaultSchedule().when(
            after_ops(spec.n_ops // 3),
            OSDJoin(weight=1.0, bw_cap=256 * MiB, parallel=2),
        )

    return ScenarioSpec(
        name="topo-join-rotation",
        description="OSD joins under rotation: full reshuffle, still verifies",
        method="tsue",
        placement="rotation",
        build_faults=faults,
        checks=[
            _expect_rebalanced(1, max_move_factor=None),
            _expect_epoch(1),
            _expect_no_recovery,
        ],
        **_TOPO_GEOMETRY,
    )


def _spec_topo_crash_mid_rebalance() -> ScenarioSpec:
    """An OSD crashes while the join-rebalance is mid-flight: moves that
    touch the victim skip to recovery, committed moves stand, shipped or
    settled log content survives the re-home — and the runner's stripe
    oracle proves the rebuild byte-identical.  The `mid_rebalance`
    predicate (>=2 blocks moved, moves outstanding) pins the crash inside
    the migration window; the low ``bw_cap`` stretches that window so the
    predicate's poll cannot miss it."""

    def faults(spec: ScenarioSpec) -> FaultSchedule:
        return (
            FaultSchedule()
            .when(
                after_ops(spec.n_ops // 3),
                OSDJoin(weight=1.0, bw_cap=64 * MiB, parallel=2),
            )
            .when(
                mid_rebalance(min_moved=2),
                CrashOSD(osd=3, recover=True),
                poll=0.0002,
            )
        )

    return ScenarioSpec(
        name="topo-crash-mid-rebalance",
        description="OSD crash mid-migration: epoch remaps + rebuild stay byte-exact",
        method="tsue",
        placement="crush",
        build_faults=faults,
        checks=[
            _expect_recoveries(1),
            _expect_epoch(1),
        ],
        **_TOPO_GEOMETRY,
    )


def _spec_topo_decommission_crush() -> ScenarioSpec:
    """Graceful removal under CRUSH: the victim's blocks drain to survivors
    at a bandwidth cap, the node retires empty, and no rebuild ever runs —
    the planned counterpart of the crash scenarios."""

    def faults(spec: ScenarioSpec) -> FaultSchedule:
        return FaultSchedule().when(
            after_ops(spec.n_ops // 3),
            OSDDecommission(osd=5, retire=True, bw_cap=256 * MiB, parallel=2),
        )

    def check_retired(ecfs, injector):
        if not ecfs.osds[5].failed:
            raise AssertionError("decommissioned osd5 was not retired")
        still = [
            b for b in ecfs.known_blocks if ecfs.placement.home_of(b) == 5
        ]
        if still:
            raise AssertionError(f"osd5 still homes {len(still)} blocks")

    return ScenarioSpec(
        name="topo-decommission-crush",
        description="graceful OSD decommission: drain, retire, no rebuild",
        method="tsue",
        placement="crush",
        build_faults=faults,
        checks=[
            # the drain must move exactly the victim's holdings; with a
            # scenario-sized population that can exceed 1.5/n by balance
            # granularity, so the byte bound here is looser (the planner
            # property tests assert the tight bound at scale)
            _expect_rebalanced(1, max_move_factor=2.5),
            _expect_epoch(1),
            _expect_no_recovery,
            check_retired,
        ],
        **_TOPO_GEOMETRY,
    )


def _spec_topo_weight_crush() -> ScenarioSpec:
    """A device is reweighted to a quarter capacity (pre-failure drain):
    CRUSH sheds a proportional share of its blocks and load follows the
    new weights."""

    def faults(spec: ScenarioSpec) -> FaultSchedule:
        return FaultSchedule().when(
            after_ops(spec.n_ops // 3),
            WeightChange(osd=2, weight=0.25, bw_cap=256 * MiB, parallel=2),
        )

    def check_shed(ecfs, injector):
        loads = ecfs.placement_loads()
        mean = sum(loads.values()) / len(loads)
        if loads[2] >= mean:
            raise AssertionError(
                f"reweighted osd2 still holds {loads[2]} blocks "
                f"(cluster mean {mean:.1f})"
            )

    return ScenarioSpec(
        name="topo-weight-crush",
        description="device reweight under CRUSH: proportional block shed",
        method="tsue",
        placement="crush",
        build_faults=faults,
        checks=[
            _expect_rebalanced(1, max_move_factor=None),
            _expect_epoch(1),
            _expect_no_recovery,
            check_shed,
        ],
        **_TOPO_GEOMETRY,
    )


# ------------------------------------------------------- SLO (QoS x fault)
# The front-end grid: three tenants spanning the QoS classes ride the same
# open-loop arrival mix while one fault archetype plays out — crash (retries
# heal it), partition (hedged reads dodge it), and a join-rebalance
# (foreground latency during migration becomes a window series).  Sweepable
# as  python -m repro slo  or  python -m repro sweep --scenarios slo-...
def _slo_tenants():
    from repro.traces.replayer import TenantSpec

    return (
        TenantSpec(name="t-gold", qos="gold", rate=500.0, n_ops=60),
        TenantSpec(name="t-silver", qos="silver", rate=400.0, n_ops=60),
        TenantSpec(name="t-bronze", qos="bronze", rate=300.0, n_ops=60),
    )


_SLO_GEOMETRY = dict(
    n_osds=12,
    k=4,
    m=2,
    n_files=2,
    stripes_per_file=3,
    n_ops=180,  # drives the after_ops fault triggers (sum of tenant n_ops)
    frontend=True,
)


def _slo_availability_floor(floors: dict[str, float]):
    """Per-class availability floors over the whole run (the gold floor is
    the SLO story: it must stay high *through* the fault window)."""

    def check(ecfs, injector):
        summary = ecfs.frontend.slo.summary()
        by_class: dict[str, list[float]] = {}
        for who, stats in summary.items():
            by_class.setdefault(who.split("/")[1], []).append(stats["availability"])
        for qos, floor in floors.items():
            got = min(by_class.get(qos, [0.0]))
            if got < floor:
                raise AssertionError(
                    f"{qos} availability {got:.4f} under the {floor} floor"
                )

    return check


def _expect_frontend_served(ecfs, injector):
    stats = ecfs.frontend.stats()
    if stats["submitted"] <= 0 or stats["ok"] <= 0:
        raise AssertionError("front-end served nothing")


def _spec_slo_qos_crash() -> ScenarioSpec:
    """An OSD crashes and is rebuilt under open-loop multi-tenant load: the
    retry layer rides out the outage (UnavailableError -> backoff -> the
    recovered home), so availability dips instead of cratering."""

    def faults(spec: ScenarioSpec) -> FaultSchedule:
        # osd1 hosts data blocks of this population (so foreground updates
        # genuinely hit the outage); detection is fast enough that backoff
        # retries can bridge crash -> rebuilt-and-re-homed
        return FaultSchedule().when(
            after_ops(spec.n_ops // 6),
            CrashOSD(osd=1, recover=True, detect_delay=0.02),
        )

    def check_retried(ecfs, injector):
        if ecfs.frontend.stats()["retries"] <= 0:
            raise AssertionError("crash produced no front-end retries")

    return ScenarioSpec(
        name="slo-qos-crash",
        description="QoS grid vs. OSD crash: retries heal the outage window",
        method="tsue",
        tenants=_slo_tenants(),
        build_faults=faults,
        checks=[
            _expect_recoveries(1),
            _expect_frontend_served,
            check_retried,
            _slo_availability_floor({"gold": 0.75, "silver": 0.75}),
        ],
        **_SLO_GEOMETRY,
    )


def _spec_slo_qos_partition() -> ScenarioSpec:
    """A two-node island is cut mid-run: updates addressed into the island
    park until the heal (deadline misses), while hedged reads reconstruct
    from survivors outside the cut and keep read availability up."""

    def faults(spec: ScenarioSpec) -> FaultSchedule:
        return FaultSchedule().when(
            after_ops(spec.n_ops // 3),
            PartitionNet(group=("osd1", "osd2"), heal_after=0.3),
        )

    def check_hedged(ecfs, injector):
        stats = ecfs.frontend.stats()
        if stats["hedge_wins"] <= 0:
            raise AssertionError("no hedged read dodged the partition")

    return ScenarioSpec(
        name="slo-qos-partition",
        description="QoS grid vs. network partition: hedged reads dodge the cut",
        method="tsue",
        tenants=_slo_tenants(),
        build_faults=faults,
        checks=[
            _expect_no_recovery,
            _expect_frontend_served,
            check_hedged,
            _slo_availability_floor({"gold": 0.5}),
        ],
        **_SLO_GEOMETRY,
    )


def _spec_slo_qos_rebalance() -> ScenarioSpec:
    """An OSD joins and the rebalancer migrates under open-loop load: the
    windowed SLO series captures foreground latency during the migration —
    the ROADMAP's 'rebalance-aware SLO metrics' deferral."""

    def faults(spec: ScenarioSpec) -> FaultSchedule:
        # a tight bandwidth cap stretches the migration across most of the
        # arrival span, so the window series actually shows the interference
        return FaultSchedule().when(
            after_ops(spec.n_ops // 6),
            OSDJoin(weight=1.0, bw_cap=8 * MiB, parallel=2),
        )

    return ScenarioSpec(
        name="slo-qos-rebalance",
        description="QoS grid vs. join-rebalance: latency-during-migration series",
        method="tsue",
        placement="crush",
        tenants=_slo_tenants(),
        build_faults=faults,
        checks=[
            _expect_rebalanced(1, max_move_factor=None),
            _expect_epoch(1),
            _expect_no_recovery,
            _expect_frontend_served,
            _slo_availability_floor({"gold": 0.8, "silver": 0.6}),
        ],
        **_SLO_GEOMETRY,
    )


def _spec_slo_steady() -> ScenarioSpec:
    """The fault-free baseline of the SLO grid: every class should clear
    its availability target, so any dip in the fault cells is attributable
    to the fault, not the pipeline."""

    return ScenarioSpec(
        name="slo-steady",
        description="QoS grid, no faults: the availability baseline",
        method="tsue",
        tenants=_slo_tenants(),
        checks=[
            _expect_no_recovery,
            _expect_frontend_served,
            _slo_availability_floor({"gold": 0.9, "silver": 0.8, "bronze": 0.5}),
        ],
        **_SLO_GEOMETRY,
    )


# ------------------------------------------------- background (bg-* grid)
# The unified-maintenance-plane grid: every cell enables the per-OSD
# weighted-fair arbiter (repro.background) so recycle, scrub, repair, and
# rebalance draw from one governed budget while foreground traffic flows.
# Sweepable as  python -m repro background  or  python -m repro sweep
# --scenarios bg-...
def _expect_bg_drained(*streams: str):
    """Every named stream did work through the arbiter and drained fully
    (plus: no stream anywhere still has backlog) — the starvation-freedom
    acceptance shape of the ISSUE."""

    def check(ecfs, injector):
        stats = ecfs.background.stream_stats()
        for stream in streams:
            st = stats[stream]
            if st["granted_items"] <= 0:
                raise AssertionError(f"background stream {stream!r} did no work")
            if st["backlog_bytes"] != 0:
                raise AssertionError(
                    f"background stream {stream!r} left "
                    f"{st['backlog_bytes']:.0f}B of backlog"
                )
        if not ecfs.background.fully_drained:
            raise AssertionError("background backlog remains after settle")

    return check


def _expect_governor_engaged(ecfs, injector):
    gov = ecfs.background.governor_stats()
    if gov["breaches"] <= 0:
        raise AssertionError("the SLO governor never throttled")
    if gov["min_scale"] >= 1.0:
        raise AssertionError("governor breached but the token scale never moved")


def _expect_recovery_unstarved(ecfs, injector):
    """The recovery-priority-inversion contract: recovery-critical flushes
    jumped the governed recycle backlog instead of queueing behind it.
    Asserts (a) expedited grants actually fired — the crash found recycle
    work parked on paced grants and released it out-of-band — and (b) the
    recovery's preparation phase beat the time the floored token rate would
    have needed just to drain those grants."""
    sched = ecfs.background
    if sched.expedited_items <= 0:
        raise AssertionError(
            "recovery flush never expedited the recycle backlog"
        )
    if not injector.recovery_reports:
        raise AssertionError("no recovery ran")
    # counterfactual: the recycle bytes recovery jumped (expedited grants +
    # boost-time arbiter bypass), paced at the governor's floor — what the
    # old inversion would have charged the prepare phase
    jumped = sched.expedited_bytes + getattr(
        ecfs.method, "recovery_bypass_bytes", 0
    )
    floored_seconds = jumped / (sched.config.bandwidth * sched.config.floor)
    for report in injector.recovery_reports:
        if report.prepare_seconds >= floored_seconds:
            raise AssertionError(
                f"recovery prepare took {report.prepare_seconds:.4f}s, no "
                f"faster than the floored recycle drain "
                f"({floored_seconds:.4f}s) — the priority inversion is back"
            )


def _spec_bg_scrub_under_load() -> ScenarioSpec:
    """Continuous-scrub story (the ROADMAP's 'scrub scheduling as a
    background process'): a full verify pass runs in freeze mode *while*
    the workload updates, paced by the scrub stream's weighted-fair share —
    every checked stripe is captured consistent (no false mismatches) and
    foreground service never stops."""

    def faults(spec: ScenarioSpec) -> FaultSchedule:
        return FaultSchedule().when(
            after_ops(spec.n_ops // 3), ScrubPass(repair=True, freeze=True)
        )

    def check_scrubbed(ecfs, injector):
        report = injector.scrub_reports[0]
        if report.stripes_checked <= 0:
            raise AssertionError("the under-load scrub checked nothing")
        if report.mismatches:
            raise AssertionError(
                f"under-load scrub reported {len(report.mismatches)} torn-"
                "capture mismatches; the freeze discipline failed"
            )

    return ScenarioSpec(
        name="bg-scrub-under-load",
        description="full scrub pass under live updates via the scrub stream",
        method="tsue",
        n_osds=12,
        k=4,
        m=2,
        n_files=3,
        stripes_per_file=4,
        n_ops=180,
        background=BackgroundConfig(enabled=True, bandwidth=128 * MiB),
        build_faults=faults,
        checks=[
            _expect_all_ops_served,
            _expect_no_recovery,
            check_scrubbed,
            _expect_bg_drained("scrub", "recycle"),
        ],
    )


def _spec_bg_recycle_vs_recovery() -> ScenarioSpec:
    """Recycle-vs-recovery contention: tiny log units keep the recycle
    stream busy when a crash adds a repair storm on the same arbiter —
    repair's heavier weight wins the shared budget, yet recycle keeps
    making progress (weighted-fair, not strict-priority)."""

    def faults(spec: ScenarioSpec) -> FaultSchedule:
        return FaultSchedule().when(
            after_recycles(3),
            CrashOSD(osd=1, recover=True),
            poll=0.002,
            deadline=None,
        )

    return ScenarioSpec(
        name="bg-recycle-vs-recovery",
        description="crash rebuild and hot recycling share one arbitrated budget",
        method="tsue",
        log_unit_size=64 * KiB,
        n_ops=220,
        background=BackgroundConfig(enabled=True, bandwidth=128 * MiB),
        build_faults=faults,
        checks=[
            _expect_recoveries(1),
            _expect_bg_drained("recycle", "repair"),
        ],
    )


def _recycle_parked(ecfs) -> bool:
    """A recycle grant is queued (not in service) in some OSD lane — the
    exact state the recovery-priority inversion needs to manifest."""
    return any(
        item.stream == "recycle" and not grant.triggered
        for lane in ecfs.background._lanes.values()
        for _vft, _seq, grant, item in lane.heap
    )


def _spec_bg_storm_crash_recovery() -> ScenarioSpec:
    """Maintenance-storm crash: tiny log units seal constantly, a 3-pass
    freeze scrub keeps OSD lanes busy with multi-MiB grants, and the tight
    p99 target drives the governor to its floor — so recycle grants park
    behind in-service maintenance.  The crash lands, by predicate, at an
    instant with recycle grants provably queued; recovery's prepare/
    finalize flushes must then complete AHEAD of that backlog (recyclers
    skip the arbiter while boosted, parked grants are expedited), not at
    the floor's trickle."""

    def faults(spec: ScenarioSpec) -> FaultSchedule:
        min_ops = after_ops(spec.n_ops // 8)
        return (
            FaultSchedule()
            .when(
                after_ops(spec.n_ops // 10),
                ScrubPass(repair=False, freeze=True, passes=3),
            )
            .when(
                lambda ecfs: min_ops(ecfs) and _recycle_parked(ecfs),
                CrashOSD(osd=1, recover=True),
                poll=0.0005,
            )
        )

    return ScenarioSpec(
        name="bg-storm-crash-recovery",
        description="crash amid a floored maintenance storm: recovery outruns the recycle backlog",
        method="tsue",
        n_osds=12,
        k=4,
        m=2,
        block_size=1 * MiB,
        log_unit_size=64 * KiB,
        n_files=3,
        stripes_per_file=8,
        n_ops=360,
        frontend=True,
        placement="crush",
        tenants=_bg_gov_tenants(),
        background=BackgroundConfig(
            enabled=True,
            bandwidth=256 * MiB,
            governor=True,
            p99_target=0.0005,
            window=0.03,
            interval=0.01,
            floor=0.02,
        ),
        build_faults=faults,
        checks=[
            _expect_recoveries(1),
            _expect_recovery_unstarved,
            _expect_bg_drained("recycle", "repair"),
        ],
    )


# governor on/off pair: identical geometry, tenants, and maintenance storm
# (a join-rebalance AND a 3-pass freeze-mode scrub land mid-window while
# all three tenants stream arrivals); the only difference is the
# SLO-pressure governor.  Foreground tail inflation comes from the
# channels priority lanes cannot protect — stripe settle/freeze windows on
# zipf-hot stripes and big-block channel occupancy — and the governor's
# win is *timing*: throttled to the floor, most maintenance grants land
# after the arrival window instead of inside it.  The acceptance criterion
# (overall foreground p99 strictly better with the governor on, every
# stream still drained) is asserted across the pair in
# tests/test_background.py.
_BG_GOV_GEOMETRY = dict(
    n_osds=12,
    k=4,
    m=2,
    # big blocks make each maintenance grant (6-block scrub scan, 1-block
    # move) expensive relative to the small foreground appends — the
    # regime where an ungoverned storm visibly inflates the tail
    block_size=1 * MiB,
    log_unit_size=1 * MiB,
    n_files=3,
    stripes_per_file=8,
    n_ops=360,
    frontend=True,
    placement="crush",
)


def _bg_gov_tenants():
    from repro.traces.replayer import TenantSpec

    return (
        TenantSpec(name="t-gold", qos="gold", rate=900.0, n_ops=120),
        TenantSpec(name="t-silver", qos="silver", rate=700.0, n_ops=120),
        TenantSpec(name="t-bronze", qos="bronze", rate=500.0, n_ops=120),
    )


def _bg_gov_config(governor: bool) -> BackgroundConfig:
    return BackgroundConfig(
        enabled=True,
        bandwidth=1024 * MiB,  # ungoverned, the storm floods the window
        governor=governor,
        p99_target=0.0005,  # ~2x the steady-state p99 on this geometry
        window=0.03,
        interval=0.01,
        floor=0.05,
    )


def _bg_gov_faults(spec: ScenarioSpec) -> FaultSchedule:
    return (
        FaultSchedule()
        .when(
            after_ops(spec.n_ops // 8),
            ScrubPass(repair=False, freeze=True, passes=3),
        )
        .when(
            after_ops(spec.n_ops // 6),
            OSDJoin(weight=1.0, bw_cap=None, parallel=4),
        )
    )


def _spec_bg_rebalance_governor_on() -> ScenarioSpec:
    return ScenarioSpec(
        name="bg-rebalance-governor-on",
        description="maintenance storm (rebalance + scrub) under load, governor on",
        method="tsue",
        tenants=_bg_gov_tenants(),
        background=_bg_gov_config(governor=True),
        build_faults=_bg_gov_faults,
        checks=[
            _expect_rebalanced(1, max_move_factor=None),
            _expect_epoch(1),
            _expect_no_recovery,
            _expect_frontend_served,
            _expect_governor_engaged,
            _expect_bg_drained("rebalance", "scrub", "recycle"),
        ],
        **_BG_GOV_GEOMETRY,
    )


def _spec_bg_rebalance_governor_off() -> ScenarioSpec:
    return ScenarioSpec(
        name="bg-rebalance-governor-off",
        description="the same maintenance storm with the governor disabled (control)",
        method="tsue",
        tenants=_bg_gov_tenants(),
        background=_bg_gov_config(governor=False),
        build_faults=_bg_gov_faults,
        checks=[
            _expect_rebalanced(1, max_move_factor=None),
            _expect_epoch(1),
            _expect_no_recovery,
            _expect_frontend_served,
            _expect_bg_drained("rebalance", "scrub", "recycle"),
        ],
        **_BG_GOV_GEOMETRY,
    )


def _spec_slo_adaptive_brownout() -> ScenarioSpec:
    """AIMD admission under a brownout: one disk slows 8x mid-run; the
    adaptive controller cuts tenant rates on the windowed-p99 breach and
    recovers them when the disk heals — shedding at the door instead of
    timing out in the queues."""
    from repro.frontend.admission import AdmissionConfig

    def faults(spec: ScenarioSpec) -> FaultSchedule:
        # a cluster-wide brownout (every disk slows) so the pressure is
        # seed-independent: whichever OSDs the arrival mix hits, the
        # trailing-window p99 breaches the AIMD target
        schedule = FaultSchedule()
        for osd in range(spec.n_osds):
            schedule.when(
                after_ops(spec.n_ops // 6),
                SlowDisk(osd=osd, factor=12.0, duration=0.1),
            )
        return schedule

    def check_adapted(ecfs, injector):
        stats = ecfs.frontend.stats()
        if stats.get("admission_backoffs", 0) <= 0:
            raise AssertionError("AIMD admission never backed off")
        if stats.get("admission_min_rate_scale", 1.0) >= 1.0:
            raise AssertionError("AIMD backed off but the rate never moved")

    return ScenarioSpec(
        name="slo-adaptive-brownout",
        description="AIMD admission reacts to a slow-disk brownout",
        method="tsue",
        tenants=_slo_tenants(),
        admission=AdmissionConfig(
            # steady-state served p99 on this geometry is ~0.15 ms; the
            # brownout pushes the trailing window past this threshold
            adaptive=True, aimd_p99_target=0.0005, aimd_window=0.04
        ),
        build_faults=faults,
        checks=[
            _expect_no_recovery,
            _expect_frontend_served,
            check_adapted,
        ],
        **_SLO_GEOMETRY,
    )


_FACTORIES = [
    _spec_crash_mid_update,
    _spec_double_failure,
    _spec_crash_during_recycle,
    _spec_rolling_restart,
    _spec_partition_heal,
    _spec_scrub_repair,
    _spec_slow_disk,
    _spec_topo_join_crush,
    _spec_topo_join_rotation,
    _spec_topo_crash_mid_rebalance,
    _spec_topo_decommission_crush,
    _spec_topo_weight_crush,
    _spec_slo_steady,
    _spec_slo_qos_crash,
    _spec_slo_qos_partition,
    _spec_slo_qos_rebalance,
    _spec_slo_adaptive_brownout,
    _spec_bg_scrub_under_load,
    _spec_bg_recycle_vs_recovery,
    _spec_bg_storm_crash_recovery,
    _spec_bg_rebalance_governor_on,
    _spec_bg_rebalance_governor_off,
]

SCENARIOS: dict[str, Callable[[], ScenarioSpec]] = {
    factory().name: factory for factory in _FACTORIES
}


def get_scenario(name: str) -> ScenarioSpec:
    try:
        return SCENARIOS[name]()
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; available: {', '.join(sorted(SCENARIOS))}"
        ) from None
