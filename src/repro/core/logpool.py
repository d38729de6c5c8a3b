"""FIFO log pool (§3.2): unit rotation, quota backpressure, read cache.

A pool owns a FIFO queue of :class:`LogUnit`.  The *active* unit (queue tail)
takes appends; when full it is sealed (-> RECYCLABLE) and handed to the
recycler through :attr:`recyclable`.  A DataLog unit keeps its index once
RECYCLED, as a read cache; a DeltaLog/ParityLog (XOR) unit's deltas are
never read, so its index is dropped as its recycle ends.  A new active unit
is obtained by reusing the oldest RECYCLED unit — whose retained index
stops serving as a read cache at that moment — or by allocating a fresh
unit while the pool is below its quota.  When neither is possible the
append **waits**: this backpressure is the mechanism behind Fig. 6a (a
2-unit quota starves updates because appends stall until recycling frees a
unit).

**Reads** (§3.3.3): the newest unit holding any byte of a range decides a
read-cache :meth:`lookup` — its one-extent hit, or a miss.  A miss reads the
device and :meth:`overlay` lays every unit's extents on those bytes, oldest
to newest, so no stale byte comes back.

The pool never shrinks: a unit once allocated stays and is reused, so
``min_units`` only bounds the quota from below.

**Log debt** is content not yet recycled: a non-empty active unit plus the
sealed units counted by :attr:`backlog`.  The pool moves that count at the
transitions that change it and adds/removes its key in the owner's ``live``
set when it goes idle -> live or back, so drains and settlement checks visit
the pools that hold debt instead of scanning every pool.  Every transition
that gives a pool debt or clears it therefore goes through a method here,
never through :attr:`units` directly.
"""

from __future__ import annotations

from collections import deque
from typing import Generator, Hashable, Optional

import numpy as np

from repro.common.errors import ConfigError, IntegrityError, UnavailableError
from repro.core.intervals import MergePolicy, overlay
from repro.core.logunit import LogUnit, LogUnitState
from repro.sim import Environment, Event, Store

__all__ = ["LogPool"]


class LogPool:
    """One log pool: FIFO unit queue + quota + read-cache lookups."""

    def __init__(
        self,
        env: Environment,
        name: str,
        unit_size: int,
        policy: MergePolicy,
        min_units: int = 1,
        max_units: int = 4,
        *,
        block_size: int,
        merge: bool = True,
        live: Optional[set] = None,
        live_key: Hashable = None,
    ) -> None:
        """``live`` is the owner's set of pools holding debt; this pool keeps
        ``live_key`` in it exactly while :attr:`holds_debt`."""
        if min_units < 1 or max_units < min_units:
            raise ConfigError(
                f"quota must satisfy 1 <= min ({min_units}) <= max ({max_units})"
            )
        self.env = env
        self.name = name
        self.unit_size = unit_size
        self.policy = policy
        self.min_units = min_units
        self.max_units = max_units
        self.block_size = block_size
        self.merge = merge

        self._next_unit_id = 0
        self._dead = False
        self.units: deque[LogUnit] = deque()
        self.active = self._new_unit()
        self.units.append(self.active)

        #: sealed units for the recycler (a DES Store, so recyclers block on get)
        self.recyclable: Store = Store(env)
        self._space_waiters: list[Event] = []
        self._backlog = 0
        self._live = live
        self._live_key = live_key

        # statistics
        self.appends = 0
        self.append_bytes = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.stall_time = 0.0
        self.stalls = 0
        self.peak_units = 1
        self.residence: list[tuple[float, float]] = []  # (buffer s, recycle s)

    # ------------------------------------------------------------------ API
    def append(
        self, block: Hashable, offset: int, data: np.ndarray, own: bool = False
    ) -> Generator:
        """Process generator: append a record, waiting for space if needed.

        ``own=True`` hands the array over without the index's defensive copy
        (see :meth:`ExtentMap.insert`); only pass it for arrays nothing else
        will mutate.
        """
        data = np.asarray(data, dtype=np.uint8)
        nbytes = int(data.shape[0])
        if nbytes > self.unit_size:
            raise ConfigError(
                f"record of {nbytes}B exceeds unit size {self.unit_size}B"
            )
        if self._dead:
            raise UnavailableError(f"log pool {self.name} is on a failed node")
        # The active pointer may reference a SEALED unit when the quota was
        # exhausted (acquire failed); state must be checked alongside space
        # or a smaller record could sneak into a RECYCLABLE unit.
        while (
            self.active.state is not LogUnitState.EMPTY
            or not self.active.fits(nbytes)
        ):
            if self.active.state is LogUnitState.EMPTY:
                self._seal_active()
            if not self._acquire_active():
                t0 = self.env.now
                waiter = self.env.event()
                self._space_waiters.append(waiter)
                self.stalls += 1
                yield waiter
                self.stall_time += self.env.now - t0
                if self._dead:
                    raise UnavailableError(
                        f"log pool {self.name} died while an append waited"
                    )
        was_clean = not self.active.used
        self.active.append(block, offset, data, self.env.now, own=own)
        if was_clean:
            self._sync_live()
        self.appends += 1
        self.append_bytes += nbytes

    def lookup(self, block: Hashable, offset: int, size: int) -> Optional[np.ndarray]:
        """Read-cache query (§3.3.3): the newest unit holding any byte of the
        range decides.  Its one-extent hit is the answer; if it holds only
        part of the range, an older unit's copy is stale there, so the read
        misses and takes the :meth:`overlay` path."""
        hit = None
        for unit in reversed(self.units):
            if unit.index.covers_any(block, offset, size):
                hit = unit.index.lookup(block, offset, size)
                break
        if hit is None:
            self.cache_misses += 1
        else:
            self.cache_hits += 1
        return hit

    def overlay(
        self, block: Hashable, offset: int, size: int, buf: np.ndarray
    ) -> np.ndarray:
        """Apply any logged (newer) bytes of ``block`` onto ``buf`` — the
        miss path of a read, ensuring no stale data is returned (§3.3.3).
        Units are applied oldest to newest so later records win; a range no
        unit holds comes back unchanged."""
        window = buf[:size]
        for unit in self.units:
            emap = unit.index.extent_map(block)
            if emap is not None:
                overlay(window, offset, emap.extents())
        return buf

    def seal_active_if_dirty(self) -> None:
        """Force-seal a non-empty active unit (flush/drain path).

        The active pointer may already reference a sealed unit when the
        quota is exhausted (single-unit pools) — nothing to do then.
        """
        if self.active.state is LogUnitState.EMPTY and self.active.used > 0:
            self._seal_active()
            self._acquire_active()

    def unit_recycled(self, unit: LogUnit) -> None:
        """Recycler callback: unit finished; record stats and wake waiters.

        An XOR unit's index goes now: only DataLog pools serve reads
        (:meth:`lookup`, :meth:`overlay`), and :meth:`live_units` skips a
        RECYCLED unit, so its deltas would only hold memory until reuse."""
        unit.finish_recycle(self.env.now)
        if self.policy is MergePolicy.XOR:
            unit.index.clear()
        buf = unit.buffer_interval or 0.0
        rec = unit.recycle_interval or 0.0
        self.residence.append((buf, rec))
        # a recycle that outlives fail() finishes a unit this queue dropped
        if unit in self.units:
            self._backlog -= 1
        if self._space_waiters and self._acquire_active():
            for waiter in self._space_waiters:
                if not waiter.triggered:
                    waiter.succeed()
            self._space_waiters.clear()
        self._sync_live()

    def fail(self) -> None:
        """Node death: error out waiting appenders instead of leaving them
        blocked on recycling that will never happen, refuse new appends (so
        a front end never acks an update this pool cannot make durable), and
        drop the queue — the owner stashed what recovery replays, so the
        pool holds no debt afterwards."""
        self._dead = True
        waiters, self._space_waiters = self._space_waiters, []
        for waiter in waiters:
            if not waiter.triggered:
                waiter.succeed()
        self.units.clear()
        self.active = self._new_unit()
        self.units.append(self.active)
        self.recyclable.items.clear()
        self._backlog = 0
        self._sync_live()

    def requeue_interrupted(self) -> None:
        """Node restart with the recycler gone: put units cut off mid-recycle
        back in line; the recycle replays from their progress marks."""
        for unit in self.units:
            if unit.state is LogUnitState.RECYCLING:
                # direct reset (not a normal lifecycle transition).  The
                # requeue goes to the FRONT — units sealed during the outage
                # are newer, and OVERWRITE merging needs oldest-first
                # application.
                unit.state = LogUnitState.RECYCLABLE
                self.recyclable.put_front(unit)

    # ------------------------------------------------------------- metrics
    @property
    def dead(self) -> bool:
        """True once :meth:`fail` ran (the hosting node crashed for good)."""
        return self._dead

    @property
    def n_units(self) -> int:
        return len(self.units)

    @property
    def memory_bytes(self) -> int:
        """Memory footprint: every resident unit reserves its full buffer."""
        return len(self.units) * self.unit_size

    @property
    def backlog(self) -> int:
        """Units sealed but not yet recycled."""
        return self._backlog

    @property
    def holds_debt(self) -> bool:
        """True while any content here is still to be recycled."""
        active = self.active
        return self._backlog > 0 or (
            active.used > 0 and active.state is LogUnitState.EMPTY
        )

    def live_units(self) -> list[LogUnit]:
        """The units behind :attr:`holds_debt`, oldest first: content still
        to be recycled, whether filling, sealed or mid-recycle.  A RECYCLED
        unit keeps ``used`` until reuse, and a DataLog one its index as a
        read cache (an XOR one's is dropped) — its content is already merged
        and must never be replayed, shipped or counted."""
        return [
            u for u in self.units
            if u.used and u.state is not LogUnitState.RECYCLED
        ]

    # ------------------------------------------------------------ internals
    def _new_unit(self) -> LogUnit:
        unit = LogUnit(
            self._next_unit_id,
            self.unit_size,
            self.policy,
            self.block_size,
            merge=self.merge,
        )
        self._next_unit_id += 1
        return unit

    def _seal_active(self) -> None:
        if self.active.state is not LogUnitState.EMPTY:
            raise IntegrityError("active unit is not appendable")
        self.active.seal()
        # only a non-empty active unit is ever sealed, so the pool is already
        # live: the debt moves from the active unit to the backlog
        self._backlog += 1
        self.recyclable.put(self.active)

    def _sync_live(self) -> None:
        if self._live is not None:
            if self.holds_debt:
                self._live.add(self._live_key)
            else:
                self._live.discard(self._live_key)

    def _acquire_active(self) -> bool:
        """Find/allocate an EMPTY unit and move it to the tail; False if the
        quota is exhausted and nothing is RECYCLED yet."""
        if self.active.state is LogUnitState.EMPTY and self.active.used == 0:
            return True  # already have a fresh active (racing waiters)
        for u in self.units:
            if u.state is LogUnitState.RECYCLED:
                u.reuse()
                self.units.remove(u)
                self.units.append(u)
                self.active = u
                return True
        if len(self.units) < self.max_units:
            unit = self._new_unit()
            self.units.append(unit)
            self.active = unit
            self.peak_units = max(self.peak_units, len(self.units))
            return True
        return False
