"""The named scenario catalog (``python -m repro scenario --list``).

Each scenario is a :class:`ScenarioSpec` row of ``_CATALOG``: a workload
shape, a :class:`FaultSchedule` literal built once with the row, and
invariant checks (the module-level functions below).  Every run ends with
the stripe-verify oracle and a seed-deterministic digest, pinned per row in
``tests/golden/digests.json``.  :func:`get_scenario` returns a copy.
"""

from __future__ import annotations

import copy
from dataclasses import replace

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
    Trigger,
    WeightChange,
    after_drain,
    after_ops,
    after_recycles,
    mid_rebalance,
)
from repro.fault.runner import HB_INTERVAL, HB_TIMEOUT, ScenarioSpec
from repro.frontend.admission import AdmissionConfig
from repro.traces.replayer import TenantSpec

__all__ = ["SCENARIOS", "get_scenario"]


# ------------------------------------------------------------------- checks
def _expect_crashes_rebuilt(ecfs, injector):
    """Every scheduled ``CrashOSD(recover=True)`` ran one rebuild, and each
    rebuild rebuilt something."""
    crashes = sum(isinstance(e, CrashOSD) and e.recover for _, e in injector.schedule)
    rebuilt = [report.blocks_rebuilt for report in injector.recovery_reports]
    if len(rebuilt) != crashes or not all(rebuilt):
        raise AssertionError(f"{crashes} crashes, recoveries rebuilt {rebuilt}")


def _expect_all_ops_served(ecfs, injector):
    # outages may fail individual ops; a pure-degradation scenario must not
    total = ecfs.metrics.updates.count + ecfs.metrics.reads.count
    if total <= 0:
        raise AssertionError("workload did not run")


def _expect_corruption_repaired(ecfs, injector):
    corrupted = len(injector.corrupted)
    repaired = sum(len(r.repaired) for r in injector.scrub_reports)
    if not corrupted or repaired != corrupted:
        raise AssertionError(f"{corrupted} blocks corrupted, {repaired} repaired")
    for osd in ecfs.osds:
        if osd.store.corrupted:
            raise AssertionError(f"{osd.name} still has latent errors")


def _expect_one_epoch(ecfs, injector):
    if ecfs.placement.epoch != 1:
        raise AssertionError(f"expected placement epoch 1, at {ecfs.placement.epoch}")


def _expect_rebalanced(max_move_factor: float | None):
    """The one topology event advanced the epoch and rebalanced: all blocks
    sit at their epoch-ideal homes, and (for minimal-movement policies) the
    moved bytes stay within ``max_move_factor / n`` of stored bytes."""

    def check(ecfs, injector):
        _expect_one_epoch(ecfs, injector)
        if len(injector.rebalance_reports) != 1:
            raise AssertionError(
                f"expected one rebalance, saw {len(injector.rebalance_reports)}"
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


def _expect_islanders_readmitted(ecfs, injector):
    # the islanders must have been declared failed and later readmitted
    if ecfs.mds.failed & {0, 1}:
        raise AssertionError("islanders were not readmitted after the heal")


def _expect_osd5_retired(ecfs, injector):
    if not ecfs.osds[5].failed:
        raise AssertionError("decommissioned osd5 was not retired")
    still = [b for b in ecfs.known_blocks if ecfs.placement.home_of(b) == 5]
    if still:
        raise AssertionError(f"osd5 still homes {len(still)} blocks")


def _expect_osd2_shed(ecfs, injector):
    loads = ecfs.placement_loads()
    mean = sum(loads.values()) / len(loads)
    if loads[2] >= mean:
        raise AssertionError(f"osd2 still holds {loads[2]} blocks (mean {mean:.1f})")


def _slo_availability_floor(floors: dict[str, float]):
    """Per-class availability floors over the whole run (the gold floor is
    the SLO story: it must stay high *through* the fault window)."""

    def check(ecfs, injector):
        by_class: dict[str, list[float]] = {}
        for who, stats in ecfs.frontend.slo.summary().items():
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


def _expect_retried(ecfs, injector):
    # a seed whose arrivals all miss the outage serves every request
    # without a retry (seeds 41-43): only an unserved request needs one
    stats = ecfs.frontend.stats()
    if stats["retries"] <= 0 and stats["ok"] != stats["submitted"]:
        raise AssertionError("crash produced no front-end retries")


def _expect_hedged(ecfs, injector):
    # a seed whose reads never cross the cut issues no hedge at all (seed
    # 22): only a hedge that was issued has to win
    stats = ecfs.frontend.stats()
    if stats["hedge_wins"] <= 0 and stats["hedges"] > 0:
        raise AssertionError("no hedged read dodged the partition")


def _expect_aimd_adapted(ecfs, injector):
    stats = ecfs.frontend.stats()
    if stats.get("admission_backoffs", 0) <= 0:
        raise AssertionError("AIMD admission never backed off")
    if stats.get("admission_min_rate_scale", 1.0) >= 1.0:
        raise AssertionError("AIMD backed off but the rate never moved")


def _expect_bg_drained(*streams: str):
    """Every named stream did work through the arbiter and drained fully
    (plus: no stream anywhere still has backlog) — the maintenance plane's
    starvation-freedom contract."""

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


def _expect_scrub_consistent(ecfs, injector):
    report = injector.scrub_reports[0]
    if report.stripes_checked <= 0:
        raise AssertionError("the under-load scrub checked nothing")
    if report.mismatches:
        raise AssertionError(
            f"under-load scrub reported {len(report.mismatches)} torn-"
            "capture mismatches; the freeze discipline failed"
        )


def _expect_recovery_unstarved(ecfs, injector):
    """The recovery-priority-inversion contract: recovery-critical flushes
    jumped the governed recycle backlog instead of queueing behind it.  (a)
    Expedited grants fired — the crash found recycle work parked on paced
    grants and released it out-of-band — and (b) the recovery's prepare phase
    beat the time the floored token rate needed just to drain those grants."""
    sched = ecfs.background
    if sched.expedited_items <= 0:
        raise AssertionError("recovery flush never expedited the recycle backlog")
    # counterfactual: the recycle bytes recovery jumped (expedited grants +
    # boost-time arbiter bypass), paced at the governor's floor — what the
    # old inversion would have charged the prepare phase
    jumped = sched.expedited_bytes + getattr(ecfs.method, "recovery_bypass_bytes", 0)
    floored_seconds = jumped / (sched.config.bandwidth * sched.config.floor)
    for report in injector.recovery_reports:
        if report.prepare_seconds >= floored_seconds:
            raise AssertionError(
                f"recovery prepare took {report.prepare_seconds:.4f}s, no "
                f"faster than the floored recycle drain "
                f"({floored_seconds:.4f}s) — the priority inversion is back"
            )


# --------------------------------------------------------------- predicates
def _workload_settled(ecfs) -> bool:
    """scrub-repair's 120 ops completed and no log debt is left."""
    return after_ops(120)(ecfs) and after_drain(ecfs)


def _some_block_corrupted(ecfs) -> bool:
    return any(osd.store.corrupted for osd in ecfs.osds)


def _storm_recycle_parked(ecfs) -> bool:
    """Past bg-storm-crash-recovery's first 45 ops, a recycle grant is queued
    (not in service) in some OSD lane — the exact state the recovery-priority
    inversion needs to manifest."""
    return after_ops(360 // 8)(ecfs) and any(
        item.stream == "recycle" and not grant.triggered
        for lane in ecfs.background._lanes.values()
        for _vft, _seq, grant, item in lane.heap
    )


# ------------------------------------------------------------- shared cells
# topo-*: each cell pairs a placement policy with a membership event on the
# same concurrent workload.  (k+m)/n = 0.375 at the default RS(4,2): CRUSH's
# collision-retry cascade stays well inside the 1.5/n minimal-movement bound
# (see repro.placement.crush), with enough stripes that the bound is
# statistically comfortable at any seed.
_TOPO_GEOMETRY = dict(
    n_osds=16,
    n_files=4,
    stripes_per_file=6,
    n_ops=160,
)

# slo-*: three tenants spanning the QoS classes ride the same open-loop
# arrival mix while one fault archetype plays out; the rows' after_ops
# triggers count against the 3 x 60 = 180 arrivals.
_SLO_CELL = dict(
    n_osds=12,
    stripes_per_file=3,
    tenants=(
        TenantSpec(name="t-gold", qos="gold", rate=500.0, n_ops=60),
        TenantSpec(name="t-silver", qos="silver", rate=400.0, n_ops=60),
        TenantSpec(name="t-bronze", qos="bronze", rate=300.0, n_ops=60),
    ),
)

# bg-*: every cell enables the per-OSD weighted-fair arbiter
# (repro.background), so recycle, scrub, repair, and rebalance draw from one
# governed budget while foreground traffic flows.  The last three cells share
# one shape, whose triggers count against the 3 x 120 = 360 arrivals:
_BG_STORM_CELL = dict(
    n_osds=12,
    # big blocks make each maintenance grant (6-block scrub scan, 1-block
    # move) expensive relative to the small foreground appends — the
    # regime where an ungoverned storm visibly inflates the tail
    block_size=1 * MiB,
    n_files=3,
    stripes_per_file=8,
    placement="crush",
    tenants=(
        TenantSpec(name="t-gold", qos="gold", rate=900.0, n_ops=120),
        TenantSpec(name="t-silver", qos="silver", rate=700.0, n_ops=120),
        TenantSpec(name="t-bronze", qos="bronze", rate=500.0, n_ops=120),
    ),
)
_BG_GOVERNED = BackgroundConfig(
    enabled=True,
    bandwidth=1024 * MiB,  # ungoverned, the storm floods the window
    governor=True,
    p99_target=0.0005,  # ~2x the steady-state p99 on this geometry
    window=0.03,
    interval=0.01,
    floor=0.05,
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
_BG_GOV_STORM = (
    FaultSchedule()
    .when(after_ops(360 // 8), ScrubPass(repair=False, freeze=True, passes=3))
    .when(after_ops(360 // 6), OSDJoin(parallel=4))
)

# ------------------------------------------------------------------ catalog
_CATALOG = (
    # Fig. 8b's story: clients ride out a crash mid-update while the cluster
    # rebuilds.  Recovery starts only after the heartbeat monitor had time to
    # notice the silence (timeout + a couple of monitor ticks).
    ScenarioSpec(
        name="crash-mid-update",
        description="single OSD crash mid-update; heartbeat-detected rebuild",
        heartbeat=True,
        n_ops=180,
        faults=FaultSchedule().when(
            after_ops(180 // 3),
            CrashOSD(osd=0, detect_delay=HB_TIMEOUT + 2 * HB_INTERVAL),
        ),
        checks=[_expect_crashes_rebuilt],
    ),
    # The second node dies while the first rebuild may still be running:
    # rebuild workers retry against freshly chosen survivors.
    ScenarioSpec(
        name="double-failure",
        description="two crashes within RS(6,3) tolerance, overlapping rebuilds",
        n_osds=12,
        k=6,
        m=3,
        n_ops=160,
        faults=FaultSchedule()
        .when(after_ops(160 // 4), CrashOSD(osd=2))
        .when(after_ops(160 // 2), CrashOSD(osd=7)),
        checks=[_expect_crashes_rebuilt],
    ),
    # The crash lands (short poll) while log units are in flight: exactly-once
    # replay from the stash + dedup tokens keeps every acked update durable.
    ScenarioSpec(
        name="crash-during-recycle",
        description="OSD crash amid DataLog/DeltaLog/ParityLog recycling",
        log_unit_size=64 * KiB,  # block-sized units force frequent recycles
        n_ops=220,
        faults=FaultSchedule().when(after_recycles(3), CrashOSD(osd=1), poll=0.002),
        checks=[_expect_crashes_rebuilt],
    ),
    # Bounces keep contents: deltas for a down node are buffered and replayed
    # on restart, so nothing is re-encoded.  Short downtimes keep the bounces
    # (mostly) disjoint, within the m=2 concurrent-outage tolerance.
    ScenarioSpec(
        name="rolling-restart",
        description="rolling restarts of three OSDs under load, no rebuild",
        n_ops=200,
        faults=FaultSchedule()
        .when(after_ops(200 // 4), BounceOSD(osd=0, downtime=0.01))
        .when(after_ops(200 // 2), BounceOSD(osd=1, downtime=0.01))
        .when(after_ops(3 * 200 // 4), BounceOSD(osd=2, downtime=0.01)),
    ),
    # A bounce outlives the heartbeat timeout and is crashed and rebuilt
    # while down: its logs must be stashed and replayed like any crash's.
    ScenarioSpec(
        name="bounce-outlives-heartbeat",
        description="bounce outlasting the heartbeat timeout, crashed and rebuilt while down",
        heartbeat=True,
        n_ops=180,
        faults=FaultSchedule()
        .when(after_ops(180 // 4), BounceOSD(osd=0, downtime=5.0))
        .when(after_ops(180 // 2), CrashOSD(osd=0, detect_delay=0.0)),
        checks=[_expect_crashes_rebuilt],
    ),
    # Heartbeats stop crossing the cut, the MDS declares the islanders dead,
    # the partition heals, and the monitor readmits them: nothing is rebuilt.
    ScenarioSpec(
        name="partition-heal",
        description="network partition detected by heartbeats, then healed",
        heartbeat=True,
        n_ops=160,
        faults=FaultSchedule().when(
            after_ops(160 // 4),
            PartitionNet(group=("osd0", "osd1"), heal_after=HB_TIMEOUT + 2.0),
        ),
        checks=[_expect_islanders_readmitted],
    ),
    # One data and one parity block rot after the workload settles; the
    # scrubber's checksum pass localizes both, reconstructs them by RS
    # decode, and rewrites them in place.
    ScenarioSpec(
        name="scrub-repair",
        description="latent sector corruption found and repaired by scrub",
        n_ops=120,
        faults=FaultSchedule()
        .when(_workload_settled, CorruptBlock(nth=1, kind="data", offset=4096))
        .when(_workload_settled, CorruptBlock(nth=2, kind="parity", nbytes=2048))
        .when(_some_block_corrupted, ScrubPass()),
        checks=[_expect_corruption_repaired],
    ),
    # Gray failure: osd3's disk slows 6x and briefly hangs while its NIC
    # loses packets — service degrades, yet every op completes and verifies.
    ScenarioSpec(
        name="slow-disk",
        description="gray failure: slow/stuck disk + degraded lossy NIC",
        n_ops=160,
        faults=FaultSchedule()
        .when(after_ops(160 // 5), SlowDisk(osd=3, factor=6.0))
        .when(
            after_ops(160 // 5),
            DegradeNIC(node="osd3", bw_factor=0.5, extra_latency=2e-4, loss_prob=0.02),
        )
        .when(after_ops(160 // 2), StickDisk(osd=3)),
        checks=[_expect_all_ops_served],
    ),
    # A 17th OSD joins: the rebalancer migrates ~1/n of blocks
    # (bandwidth-capped) onto it while updates keep flowing.
    ScenarioSpec(
        name="topo-join-crush",
        description="OSD joins under CRUSH: minimal-movement rebalance under load",
        placement="crush",
        faults=FaultSchedule().when(after_ops(160 // 3), OSDJoin(bw_cap=256 * MiB)),
        checks=[_expect_rebalanced(max_move_factor=1.5)],
        **_TOPO_GEOMETRY,
    ),
    # The same join re-rotates nearly every stripe — the movement contrast
    # that motivates CRUSH; only completion is asserted, no movement bound.
    ScenarioSpec(
        name="topo-join-rotation",
        description="OSD joins under rotation: full reshuffle, still verifies",
        placement="rotation",
        faults=FaultSchedule().when(after_ops(160 // 3), OSDJoin(bw_cap=256 * MiB)),
        checks=[_expect_rebalanced(max_move_factor=None)],
        **_TOPO_GEOMETRY,
    ),
    # Moves that touch the victim skip to recovery, committed moves stand,
    # shipped or settled log content survives the re-home.  `mid_rebalance`
    # (>=2 blocks moved, moves outstanding) pins the crash inside the
    # migration window; the low ``bw_cap`` stretches that window so the
    # predicate's poll cannot miss it.
    ScenarioSpec(
        name="topo-crash-mid-rebalance",
        description="OSD crash mid-migration: epoch remaps + rebuild stay byte-exact",
        placement="crush",
        faults=FaultSchedule()
        .when(after_ops(160 // 3), OSDJoin(bw_cap=64 * MiB))
        .when(mid_rebalance(min_moved=2), CrashOSD(osd=3), poll=0.0002),
        checks=[_expect_crashes_rebuilt, _expect_one_epoch],
        **_TOPO_GEOMETRY,
    ),
    # The planned counterpart of a crash: the drain moves exactly the
    # victim's holdings, which at scenario size can exceed 1.5/n by balance
    # granularity — so the byte bound is looser here (the planner property
    # tests assert the tight bound at scale).
    ScenarioSpec(
        name="topo-decommission-crush",
        description="graceful OSD decommission: drain, retire, no rebuild",
        placement="crush",
        faults=FaultSchedule().when(
            after_ops(160 // 3), OSDDecommission(osd=5, bw_cap=256 * MiB)
        ),
        checks=[_expect_rebalanced(max_move_factor=2.5), _expect_osd5_retired],
        **_TOPO_GEOMETRY,
    ),
    # A pre-failure drain to a quarter weight: CRUSH sheds a proportional
    # share of the device's blocks.
    ScenarioSpec(
        name="topo-weight-crush",
        description="device reweight under CRUSH: proportional block shed",
        placement="crush",
        faults=FaultSchedule().when(
            after_ops(160 // 3), WeightChange(osd=2, weight=0.25, bw_cap=256 * MiB)
        ),
        checks=[_expect_rebalanced(max_move_factor=None), _expect_osd2_shed],
        **_TOPO_GEOMETRY,
    ),
    # Every class clears its target, so any dip in the fault cells is
    # attributable to the fault, not the pipeline.
    ScenarioSpec(
        name="slo-steady",
        description="QoS grid, no faults: the availability baseline",
        checks=[_slo_availability_floor({"gold": 0.9, "silver": 0.8, "bronze": 0.5})],
        **_SLO_CELL,
    ),
    # osd1 hosts data blocks of this population, so foreground updates
    # genuinely hit the outage; detection is fast enough that backoff retries
    # (UnavailableError -> backoff -> the recovered home) bridge crash ->
    # rebuilt-and-re-homed, and availability dips instead of cratering.
    ScenarioSpec(
        name="slo-qos-crash",
        description="QoS grid vs. OSD crash: retries heal the outage window",
        faults=FaultSchedule().when(
            after_ops(180 // 6), CrashOSD(osd=1, detect_delay=0.02)
        ),
        checks=[
            _expect_crashes_rebuilt,
            _expect_retried,
            _slo_availability_floor({"gold": 0.75, "silver": 0.75}),
        ],
        **_SLO_CELL,
    ),
    # Updates into the island park until the heal (deadline misses), while
    # hedged reads reconstruct from outside the cut.
    ScenarioSpec(
        name="slo-qos-partition",
        description="QoS grid vs. network partition: hedged reads dodge the cut",
        faults=FaultSchedule().when(
            after_ops(180 // 3), PartitionNet(group=("osd1", "osd2"), heal_after=0.3)
        ),
        checks=[_expect_hedged, _slo_availability_floor({"gold": 0.5})],
        **_SLO_CELL,
    ),
    # A tight bandwidth cap stretches the migration across most of the
    # arrival span, so the window series actually shows the interference.
    ScenarioSpec(
        name="slo-qos-rebalance",
        description="QoS grid vs. join-rebalance: latency-during-migration series",
        placement="crush",
        faults=FaultSchedule().when(after_ops(180 // 6), OSDJoin(bw_cap=8 * MiB)),
        checks=[
            _expect_rebalanced(max_move_factor=None),
            _slo_availability_floor({"gold": 0.8, "silver": 0.6}),
        ],
        **_SLO_CELL,
    ),
    # Every disk slows 12x for 0.1 s, so the pressure is seed-independent:
    # whichever OSDs the arrival mix hits, the trailing-window p99 breaches
    # the AIMD target (steady state is ~0.15 ms); the controller cuts tenant
    # rates, sheds at the door instead of timing out in the queues, and
    # recovers the rates when the disks heal.
    ScenarioSpec(
        name="slo-adaptive-brownout",
        description="AIMD admission reacts to a slow-disk brownout",
        admission=AdmissionConfig(
            adaptive=True, aimd_p99_target=0.0005, aimd_window=0.04
        ),
        faults=FaultSchedule(
            [
                (Trigger(when=after_ops(180 // 6)), SlowDisk(osd, 12.0, duration=0.1))
                for osd in range(12)
            ]
        ),
        checks=[_expect_frontend_served, _expect_aimd_adapted],
        **_SLO_CELL,
    ),
    # Continuous scrub: a freeze-mode verify pass, paced by the scrub
    # stream's weighted-fair share, captures every stripe consistent (no
    # false mismatches) while the workload keeps updating it.
    ScenarioSpec(
        name="bg-scrub-under-load",
        description="full scrub pass under live updates via the scrub stream",
        n_osds=12,
        n_files=3,
        stripes_per_file=4,
        n_ops=180,
        background=BackgroundConfig(enabled=True, bandwidth=128 * MiB),
        faults=FaultSchedule().when(after_ops(180 // 3), ScrubPass(freeze=True)),
        checks=[
            _expect_all_ops_served,
            _expect_scrub_consistent,
            _expect_bg_drained("scrub", "recycle"),
        ],
    ),
    # Tiny log units keep recycle busy when a crash adds a repair storm on
    # the same arbiter: repair's heavier weight wins the shared budget, yet
    # recycle keeps making progress (weighted-fair, not strict-priority).
    ScenarioSpec(
        name="bg-recycle-vs-recovery",
        description="crash rebuild and hot recycling share one arbitrated budget",
        log_unit_size=64 * KiB,
        n_ops=220,
        background=BackgroundConfig(enabled=True, bandwidth=128 * MiB),
        faults=FaultSchedule().when(after_recycles(3), CrashOSD(osd=1), poll=0.002),
        checks=[_expect_crashes_rebuilt, _expect_bg_drained("recycle", "repair")],
    ),
    # Tiny log units seal constantly, a 3-pass freeze scrub keeps OSD lanes
    # busy with multi-MiB grants, and the tight p99 target floors the
    # governor — so recycle grants park behind in-service maintenance.  The
    # crash lands when they provably do; recovery's prepare/finalize flushes
    # must then complete AHEAD of that backlog (recyclers skip the arbiter
    # while boosted, parked grants are expedited), not at the floor's trickle.
    ScenarioSpec(
        name="bg-storm-crash-recovery",
        description="crash amid a floored maintenance storm: recovery outruns the recycle backlog",
        log_unit_size=64 * KiB,
        background=replace(_BG_GOVERNED, bandwidth=256 * MiB, floor=0.02),
        faults=FaultSchedule()
        .when(after_ops(360 // 10), ScrubPass(repair=False, freeze=True, passes=3))
        .when(_storm_recycle_parked, CrashOSD(osd=1), poll=0.0005),
        checks=[
            _expect_crashes_rebuilt,
            _expect_recovery_unstarved,
            _expect_bg_drained("recycle", "repair"),
        ],
        **_BG_STORM_CELL,
    ),
    ScenarioSpec(
        name="bg-rebalance-governor-on",
        description="maintenance storm (rebalance + scrub) under load, governor on",
        log_unit_size=1 * MiB,
        background=_BG_GOVERNED,
        faults=_BG_GOV_STORM,
        checks=[
            _expect_rebalanced(max_move_factor=None),
            _expect_frontend_served,
            _expect_governor_engaged,
            _expect_bg_drained("rebalance", "scrub", "recycle"),
        ],
        **_BG_STORM_CELL,
    ),
    ScenarioSpec(
        name="bg-rebalance-governor-off",
        description="the same maintenance storm with the governor disabled (control)",
        log_unit_size=1 * MiB,
        background=replace(_BG_GOVERNED, governor=False),
        faults=_BG_GOV_STORM,
        checks=[
            _expect_rebalanced(max_move_factor=None),
            _expect_frontend_served,
            _expect_bg_drained("rebalance", "scrub", "recycle"),
        ],
        **_BG_STORM_CELL,
    ),
)

SCENARIOS: dict[str, ScenarioSpec] = {row.name: row for row in _CATALOG}


def get_scenario(name: str) -> ScenarioSpec:
    """The named row, copied with its own ``checks`` and fault entries (a
    shallow copy: ``dataclasses.replace`` costs twice as much)."""
    try:
        row = SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; available: {', '.join(sorted(SCENARIOS))}"
        ) from None
    spec = copy.copy(row)
    spec.checks = list(row.checks)
    spec.faults = FaultSchedule(list(row.faults.entries))
    return spec
