"""The unified background-work scheduler: one QoS-arbitrated maintenance
plane for recycle, scrub, recovery repair, and rebalance migration.

Before PR 5 each maintenance stream shipped its own ad-hoc pacing (recycler
quotas, a rebalancer bandwidth cap, recovery settle/freeze, scrub with no
scheduler at all).  This module replaces the *pacing* half of all four with
one subsystem:

* every driver submits a typed :class:`~repro.background.work.WorkItem`
  (RecycleOp / ScrubOp / RepairOp / MoveOp) and waits for the **grant**;
* grants are issued per OSD by a weighted-fair arbiter: each stream has a
  share (:data:`~repro.background.work.STREAM_WEIGHTS`), and a
  contended OSD budget is divided in weighted start-time-fair-queueing
  order, so recovery repair outruns a scrub but nothing starves;
* grants are **strictly subordinated to foreground I/O** two ways: the
  device queues already order by :class:`~repro.storage.base.IOPriority`
  lane (maintenance I/O runs at ``BACKGROUND``), and the arbiter
  additionally holds a grant back while the target device has *queued*
  foreground requests — with a bounded aging escape (:data:`MAX_YIELD_POLLS`
  re-checks :data:`YIELD_POLL` apart) so sustained foreground load cannot
  starve an admitted stream forever;
* an **SLO-pressure governor** watches the windowed foreground p99 (the
  front end's :class:`~repro.frontend.slo.SLOTracker` when one is attached,
  the cluster read/update metrics otherwise) and throttles the background
  token rate multiplicatively (:data:`BACKOFF`) on a breach, restoring it
  additively (:data:`RECOVER`) when headroom returns.  Deadline-expired
  foreground work is symmetrically demoted out of the FOREGROUND lane by
  the front end (see :class:`~repro.sim.core.Lane`), so the two planes
  yield to each other.

With ``enabled=False`` (the default) :meth:`BackgroundScheduler.request`
returns without creating a single DES event — default harness paths are
byte-identical with the subsystem in the tree.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Generator, Optional

from repro.background.config import BackgroundConfig
from repro.background.work import STREAM_WEIGHTS, STREAMS, WorkItem
from repro.common.control import aimd_step
from repro.sim import Event, PHASE_LATE, s_to_us
from repro.storage.base import IOPriority

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.ecfs import ECFS

__all__ = ["StreamStats", "BackgroundScheduler"]

#: subordination to foreground backlog: a grant whose device has queued
#: foreground I/O waits ``YIELD_POLL`` seconds and re-checks, at most
#: ``MAX_YIELD_POLLS`` times per grant (the aging bound that makes the
#: starvation-freedom property hold under sustained foreground load)
YIELD_POLL = 5e-4
MAX_YIELD_POLLS = 8
#: the governor's AIMD steps on the token scale: cut by ``BACKOFF`` on a
#: breach, restore by ``RECOVER`` per quiet sample
BACKOFF = 0.5
RECOVER = 0.2


class StreamStats:
    """Per-stream accounting: submissions, grants, backlog, drain time."""

    __slots__ = (
        "submitted_items",
        "submitted_bytes",
        "granted_items",
        "granted_bytes",
        "first_submit",
        "last_grant",
    )

    def __init__(self) -> None:
        self.submitted_items = 0
        self.submitted_bytes = 0
        self.granted_items = 0
        self.granted_bytes = 0
        self.first_submit: Optional[float] = None
        self.last_grant: Optional[float] = None

    @property
    def backlog_bytes(self) -> int:
        return self.submitted_bytes - self.granted_bytes

    def snapshot(self) -> dict[str, float]:
        span = (
            self.last_grant - self.first_submit
            if self.first_submit is not None and self.last_grant is not None
            else 0.0
        )
        return {
            "submitted_items": float(self.submitted_items),
            "submitted_bytes": float(self.submitted_bytes),
            "granted_items": float(self.granted_items),
            "granted_bytes": float(self.granted_bytes),
            "backlog_bytes": float(self.backlog_bytes),
            # time from first submission to last grant: the stream's
            # time-to-drain once the backlog is empty
            "time_to_drain": span,
            "bandwidth": self.granted_bytes / span if span > 0 else 0.0,
        }


class _OsdLane:
    """Arbiter state for one OSD: a WSFQ heap and its pump process."""

    __slots__ = ("heap", "vtime", "stream_vft", "pump", "wake")

    def __init__(self) -> None:
        # entries: (virtual finish tag, seq, grant event, item)
        self.heap: list[tuple[float, int, Event, WorkItem]] = []
        self.vtime = 0.0
        self.stream_vft: dict[str, float] = {}
        self.pump = None
        self.wake: Optional[Event] = None


class BackgroundScheduler:
    """Grants paced, weighted-fair background bandwidth per OSD."""

    def __init__(self, ecfs: "ECFS") -> None:
        self.ecfs = ecfs
        self.config: BackgroundConfig = ecfs.config.background
        self.config.validate()
        self.enabled = self.config.enabled
        #: governor token scale in (floor, 1]: multiplies the grant rate
        self.scale = 1.0
        self.breaches = 0
        self.min_scale = 1.0
        #: (sim time, windowed foreground p99, scale) per governor sample
        self.governor_series: list[tuple[float, float, float]] = []
        self.streams: dict[str, StreamStats] = {s: StreamStats() for s in STREAMS}
        #: grants released out-of-band by :meth:`expedite` (recovery-critical
        #: settlement jumping a governed backlog)
        self.expedited_items = 0
        self.expedited_bytes = 0
        self._lanes: dict[str, _OsdLane] = {}
        self._osd_by_name: dict[str, object] = {}
        self._seq = 0
        self._gov_proc = None
        self._last_grant_at = float("-inf")

    # ------------------------------------------------------------------ API
    def request(self, item: WorkItem) -> Generator:
        """Process fragment: wait for the arbiter to grant ``item``.

        A strict no-op (no event, no time) while the scheduler is disabled,
        so call sites can submit unconditionally.
        """
        if not self.enabled:
            return
        env = self.ecfs.env
        stats = self.streams[item.stream]
        stats.submitted_items += 1
        stats.submitted_bytes += item.nbytes
        if stats.first_submit is None:
            stats.first_submit = env.now
        lane = self._lanes.get(item.osd)
        if lane is None:
            lane = self._lanes[item.osd] = _OsdLane()
        # weighted start-time fair queueing: the finish tag advances the
        # stream's own virtual timeline, normalized by its weight
        start = max(lane.vtime, lane.stream_vft.get(item.stream, 0.0))
        vft = start + item.nbytes / STREAM_WEIGHTS[item.stream]
        lane.stream_vft[item.stream] = vft
        self._seq += 1
        grant = Event(env)
        heapq.heappush(lane.heap, (vft, self._seq, grant, item))
        if lane.pump is None or not lane.pump.is_alive:
            lane.pump = env.process(self._pump(item.osd, lane), name=f"bg-{item.osd}")
            lane.pump.lane = None  # the arbiter never inherits a caller's lane
        elif lane.wake is not None and not lane.wake.triggered:
            lane.wake.succeed()
        self._ensure_governor()
        yield grant

    def expedite(self, stream: str) -> int:
        """Release every *queued* grant of ``stream`` immediately, bypassing
        token pacing and the foreground-yield window.

        This is the scheduler-side half of the recovery-priority-inversion
        fix: recovery-critical settlement (TSUE's ``recovery_prepare`` /
        ``finalize_recovery`` drains) must not queue behind a governed
        recycle backlog — mirroring how PL's FOREGROUND drains skip the
        arbiter entirely.  The AIMD floor (``BackgroundConfig.validate``
        enforces ``0 < floor``) guarantees paced grants always make *some*
        progress, but "some" is not "ahead of the repair clock"; expedited
        grants are.

        Released grants are accounted as granted (so ``backlog_bytes``
        drains and ``fully_drained`` stays truthful) and additionally in
        ``expedited_items`` / ``expedited_bytes``.  The one item a pump may
        already hold in paced service is not recalled — worst case one
        in-flight grant per OSD lane.  Returns the number released.
        """
        if not self.enabled:
            return 0
        env = self.ecfs.env
        released = 0
        for lane in self._lanes.values():
            keep = []
            for entry in lane.heap:
                _vft, _seq, grant, item = entry
                if item.stream != stream or grant.triggered:
                    keep.append(entry)
                    continue
                stats = self.streams[item.stream]
                stats.granted_items += 1
                stats.granted_bytes += item.nbytes
                stats.last_grant = env.now
                self._last_grant_at = env.now
                self.expedited_items += 1
                self.expedited_bytes += item.nbytes
                grant.succeed()
                released += 1
            if len(keep) != len(lane.heap):
                # the popped entries' grants already fired; the heap must
                # forget them or the pump would pace and re-grant ghosts
                lane.heap[:] = keep
                heapq.heapify(lane.heap)
        return released

    def stream_stats(self) -> dict[str, dict[str, float]]:
        """Per-stream bandwidth/backlog/time-to-drain, deterministic order."""
        return {s: self.streams[s].snapshot() for s in STREAMS}

    def governor_stats(self) -> dict[str, float]:
        return {
            "breaches": float(self.breaches),
            "min_scale": self.min_scale,
            "final_scale": self.scale,
            "samples": float(len(self.governor_series)),
        }

    @property
    def active(self) -> bool:
        """True once any work was submitted this run."""
        return any(st.submitted_items for st in self.streams.values())

    @property
    def fully_drained(self) -> bool:
        """Every submitted item of every stream has been granted."""
        return all(st.backlog_bytes == 0 for st in self.streams.values())

    # ------------------------------------------------------------ processes
    def _pump(self, osd_name: str, lane: _OsdLane) -> Generator:
        """One OSD's grant loop: pop in WSFQ order, yield to foreground
        backlog (bounded), pace by the governed token rate, grant."""
        env = self.ecfs.env
        cfg = self.config
        # native-µs pacing constants; grant wakeups ride the LATE lane so a
        # token replenish at tick T sorts after all normal work at T
        yield_poll_us = s_to_us(YIELD_POLL)
        us_per_byte = 1e6 / cfg.bandwidth
        while True:
            if not lane.heap:
                lane.wake = Event(env)
                yield lane.wake
                continue
            vft, _seq, grant, item = heapq.heappop(lane.heap)
            lane.vtime = max(lane.vtime, vft)
            polls = 0
            while polls < MAX_YIELD_POLLS and self._foreground_backlog(osd_name):
                polls += 1
                yield env.timeout_us(yield_poll_us, phase=PHASE_LATE)
            duration_us = round(item.nbytes * us_per_byte / self.scale)
            if duration_us > 0:
                yield env.timeout_us(duration_us, phase=PHASE_LATE)
            stats = self.streams[item.stream]
            stats.granted_items += 1
            stats.granted_bytes += item.nbytes
            stats.last_grant = env.now
            self._last_grant_at = env.now
            if not grant.triggered:
                grant.succeed()

    def _foreground_backlog(self, osd_name: str) -> bool:
        """Queued (not merely in-service) live-foreground I/O on the OSD's
        device — the lane-aware saturation signal grants subordinate to."""
        osd = self._osd_by_name.get(osd_name)
        if osd is None:
            for cand in self.ecfs.osds:
                self._osd_by_name[cand.name] = cand
            osd = self._osd_by_name.get(osd_name)
            if osd is None:
                return False
        return osd.device.resource.queued_below(IOPriority.DEMOTED) > 0

    # ------------------------------------------------------------- governor
    def _ensure_governor(self) -> None:
        if not self.config.governor:
            return
        if self._gov_proc is not None and self._gov_proc.is_alive:
            return
        self._gov_proc = self.ecfs.env.process(self._governor(), name="bg-governor")
        self._gov_proc.lane = None

    def _governor(self) -> Generator:
        """AIMD throttle on the background token scale, driven by the
        windowed foreground p99.  Parks itself after 4 consecutive idle
        samples (no backlog anywhere); resubmitted work re-arms it."""
        env = self.ecfs.env
        cfg = self.config
        interval_us = s_to_us(cfg.interval)
        idle = 0
        while idle < 4:
            yield env.timeout_us(interval_us)
            p99 = self._foreground_p99()
            # "maintenance active" = backlog outstanding OR a grant landed
            # within this sample interval (a drain-only check misreads
            # sequentially-submitting streams like the scrub, which look
            # empty between stripe scans).  A breach while the plane is
            # genuinely quiet cannot be its doing — recover instead, so
            # the governor never parks with the throttle stuck for the
            # next burst.
            busy = (
                not self.fully_drained
                or self._last_grant_at >= env.now - cfg.interval
            )
            breached = p99 > cfg.p99_target and busy
            if breached:
                self.breaches += 1
            self.scale = aimd_step(
                self.scale,
                breached,
                backoff=BACKOFF,
                recover=RECOVER,
                floor=cfg.floor,
            )
            self.min_scale = min(self.min_scale, self.scale)
            self.governor_series.append((env.now, p99, self.scale))
            idle = idle + 1 if not busy else 0

    def _foreground_p99(self) -> float:
        """Windowed foreground p99: the front end's SLO tracker when the
        run has one, the raw cluster op metrics otherwise."""
        frontend = getattr(self.ecfs, "frontend", None)
        now = self.ecfs.env.now
        if frontend is not None:
            return frontend.slo.recent_p99(self.config.window, now)
        return self.ecfs.metrics.recent_foreground_p99(self.config.window, now)
