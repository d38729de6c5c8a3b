"""Heartbeat-driven failure detection (§4: OSDs send periodic heartbeats;
the MDS initiates recovery when one goes silent).

:class:`HeartbeatService` runs one sender process per OSD and one monitor
process at the MDS.  A failed OSD stops heartbeating (its sender idles while
the node's failure flag is up); after ``timeout`` silent seconds the MDS
declares it failed and fires the recovery callback.  The sender survives a
transient bounce: once the node restarts it resumes beating, and the monitor
readmits it (``declare_recovered``, logged in ``recovered``) — the same path
a healed network partition takes, since heartbeats crossing a partition
block until it heals.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Generator, Optional

from repro.sim import s_to_us

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.ecfs import ECFS

__all__ = ["HeartbeatService"]

_HEARTBEAT_BYTES = 64


class HeartbeatService:
    """Periodic OSD heartbeats + MDS liveness monitor on the DES."""

    def __init__(
        self,
        ecfs: "ECFS",
        interval: float = 1.0,
        timeout: float = 3.5,
        on_failure: Optional[Callable[[int], None]] = None,
    ) -> None:
        if interval <= 0 or timeout <= interval:
            raise ValueError("need 0 < interval < timeout")
        self.ecfs = ecfs
        self._interval_us = s_to_us(interval)
        self.timeout = timeout
        self.detected: list[tuple[int, float]] = []  # (osd idx, detect time)
        self.recovered: list[tuple[int, float]] = []  # (osd idx, readmit time)
        self._user_callback = on_failure
        self._procs: list = []
        ecfs.mds.heartbeat_timeout = timeout
        ecfs.mds.on_failure = self._on_failure
        if "mds" not in ecfs.net.nics:
            ecfs.net.add_node("mds")

    # ------------------------------------------------------------------ API
    def start(self) -> None:
        env = self.ecfs.env
        for osd in self.ecfs.osds:
            self._watch(osd)
        self._procs.append(env.process(self._monitor(), name="hb-monitor"))
        # elastic growth: a joined OSD needs its own sender, or the monitor
        # would declare the healthy newcomer dead after one silent timeout
        self.ecfs.on_osd_joined.append(self._watch)

    def stop(self) -> None:
        for proc in self._procs:
            proc.interrupt("heartbeat-service-stopped")
        self._procs.clear()
        if self._watch in self.ecfs.on_osd_joined:
            self.ecfs.on_osd_joined.remove(self._watch)

    def _watch(self, osd) -> None:
        """Record an initial beat and spawn the node's sender process."""
        env = self.ecfs.env
        self.ecfs.mds.heartbeat(osd.idx, env.now)
        self._procs.append(env.process(self._sender(osd), name=f"hb-{osd.name}"))

    # ------------------------------------------------------------ processes
    def _sender(self, osd) -> Generator:
        env = self.ecfs.env
        from repro.sim import Interrupt

        try:
            while True:
                yield env.timeout_us(self._interval_us)
                if osd.failed:
                    continue  # down: silent until a restart brings it back
                yield from self.ecfs.net.transfer(osd.name, "mds", _HEARTBEAT_BYTES)
                # a beat that was in flight when the node died doesn't count
                if not osd.failed:
                    self.ecfs.mds.heartbeat(osd.idx, env.now)
        except Interrupt:
            return

    def _monitor(self) -> Generator:
        env = self.ecfs.env
        mds = self.ecfs.mds

        from repro.sim import Interrupt

        try:
            while True:
                yield env.timeout_us(self._interval_us)
                mds.check_liveness(env.now)
                # readmit declared-failed nodes that are beating again and
                # actually alive (a rebuilt node stays failed: its blocks
                # were re-homed)
                for idx in sorted(mds.failed):
                    osd = self.ecfs.osds[idx]
                    fresh = env.now - mds.heartbeats.get(idx, float("-inf"))
                    if not osd.failed and fresh <= self.timeout:
                        mds.declare_recovered(idx)
                        self.recovered.append((idx, env.now))
        except Interrupt:
            return

    def _on_failure(self, osd_idx: int) -> None:
        self.detected.append((osd_idx, self.ecfs.env.now))
        if self._user_callback is not None:
            self._user_callback(osd_idx)
