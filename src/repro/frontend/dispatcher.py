"""QoS-aware front-end dispatcher: queues, admission, retries, hedging.

The :class:`FrontEnd` is the request pipeline the ISSUE's tentpole names:

1. a tenant **submits** a :class:`~repro.frontend.request.Request`
   (:meth:`FrontEnd.submit` — returns a completion event);
2. the **admission controller** (token bucket + graduated queue-depth
   shedding) either sheds it or parks it on its tenant's queue;
3. the **scheduler** drains queues in strict QoS-class priority (gold
   before silver before bronze), round-robin among tenants within a class,
   under a ``max_inflight`` concurrency cap;
4. each dispatch runs through :mod:`repro.frontend.ops` with
   :func:`~repro.frontend.retry.backoff_delay` retries (gated by a
   cluster-wide :class:`~repro.frontend.retry.RetryBudget`) racing the
   request deadline, and — for reads — a **hedge** leg that reconstructs
   the range from k other blocks of the EC stripe when the primary leg is
   slow;
5. the terminal outcome lands in the :class:`~repro.frontend.slo.
   SLOTracker` and resolves the completion event.

Failure semantics: transient errors (a crashed primary —
:class:`~repro.common.errors.UnavailableError` — or an impossible decode)
are retried while budget and deadline allow; the fault injector's recovery
re-homes the block between attempts, so the retry layer *heals* crash and
partition windows instead of surfacing them to tenants.  When a request's
deadline passes mid-flight it is abandoned (counted as a deadline miss)
and two things happen to whatever is still running on its behalf:

* **read legs are cancelled** through the sim engine's cancellable
  machinery (:meth:`~repro.sim.core.Process.cancel_chain`): queued device
  claims are withdrawn and pending service/net timeouts dropped.  A message
  already sent keeps its reserved NIC port time (bytes committed to the
  wire stay committed) and work handed to another actor (a fetch mid-RPC)
  runs out, like a real request already on the wire;
* **update legs keep executing** — a mutation cannot be un-sent — but the
  whole leg tree is *demoted* out of the FOREGROUND device lane (the
  shared :class:`~repro.sim.core.Lane` cell flips to
  ``IOPriority.DEMOTED``), so an expired op stops competing with live
  foreground traffic while still beating the maintenance plane.

:meth:`FrontEnd.quiesce` waits surviving stragglers out before a run is
digested.

Scheduling decisions iterate sorted structures only, so the whole pipeline
is bit-deterministic across processes and hash seeds.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Generator, Optional

from repro.common.errors import ReproError, is_retryable
from repro.frontend import ops as _ops
from repro.sim import Interrupt, Lane, s_to_us
from repro.storage.base import IOPriority
from repro.frontend.admission import AdmissionConfig, AdmissionController
from repro.frontend.request import (
    DEFAULT_DEADLINES,
    QOS_CLASSES,
    QOS_RANK,
    Request,
    RequestResult,
    STATUS_DEADLINE,
    STATUS_FAILED,
    STATUS_OK,
    STATUS_SHED,
)
from repro.frontend.retry import RetryBudget, backoff_delay
from repro.frontend.slo import SLOTracker

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.ecfs import ECFS
    from repro.sim import Event

__all__ = ["FrontEnd"]


class FrontEnd:
    """The layered client pipeline over one :class:`ECFS` cluster."""

    def __init__(
        self,
        ecfs: "ECFS",
        admission: Optional[AdmissionConfig] = None,
        hedge_delay: Optional[float] = 0.02,
        max_inflight: int = 16,
    ) -> None:
        if max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if hedge_delay is not None and hedge_delay <= 0:
            raise ValueError("hedge_delay must be positive (or None to disable)")
        self.ecfs = ecfs
        self.admission = AdmissionController(admission)
        self.budget = RetryBudget()
        self.hedge_delay = hedge_delay
        self._hedge_us = None if hedge_delay is None else s_to_us(hedge_delay)
        self.max_inflight = max_inflight
        self.slo = SLOTracker(ecfs.env)

        self._queues: dict[str, deque] = {}  # tenant -> deque[(Request, Event)]
        self._tenant_qos: dict[str, str] = {}
        self._clients: dict[str, object] = {}
        self._rank_tenants: dict[str, list[str]] = {q: [] for q in QOS_CLASSES}
        self._rr: dict[str, int] = {q: 0 for q in QOS_CLASSES}
        self._queued = 0
        self._inflight = 0
        self._req_counter = 0
        self._closed = False
        self._scheduler = None
        self._signal: Optional["Event"] = None
        self._idle_waiters: list = []
        self._live: list = []  # every spawned process: handlers + legs
        self.counters = {
            "submitted": 0,
            "ok": 0,
            "shed": 0,
            "failed": 0,
            "deadline": 0,
            "retries": 0,
            "hedges": 0,
            "hedge_wins": 0,
            "cancelled_legs": 0,
            "demoted": 0,
        }

    # ------------------------------------------------------------------ API
    def register_tenant(self, name: str, qos: str = "silver") -> None:
        """Create the tenant's queue and its client endpoint on the fabric."""
        if name in self._tenant_qos:
            raise ValueError(f"tenant {name!r} already registered")
        if qos not in QOS_RANK:
            raise ValueError(f"unknown QoS class {qos!r}")
        self._tenant_qos[name] = qos
        self._queues[name] = deque()
        self._clients[name] = self.ecfs.add_clients(1)[-1]
        bucket = self._rank_tenants[qos]
        bucket.append(name)
        bucket.sort()  # deterministic round-robin base order

    def submit(
        self,
        op: str,
        tenant: str,
        file_id: int,
        offset: int,
        size: int,
    ) -> "Event":
        """Enqueue one request; returns an event firing with its
        :class:`RequestResult` (sheds resolve immediately)."""
        env = self.ecfs.env
        if self._closed:
            raise RuntimeError("front end is closed to new submissions")
        if tenant not in self._tenant_qos:
            raise KeyError(f"unknown tenant {tenant!r}")
        if self._scheduler is None or not self._scheduler.is_alive:
            self._scheduler = env.process(self._schedule_loop(), name="fe-sched")
        self._req_counter += 1
        qos = self._tenant_qos[tenant]
        request = Request(
            req_id=self._req_counter,
            tenant=tenant,
            qos=qos,
            op=op,
            file_id=file_id,
            offset=offset,
            size=size,
            deadline=DEFAULT_DEADLINES[qos],
            submitted_at=env.now,
        )
        self.counters["submitted"] += 1
        done = env.event()
        reason = self.admission.admit(tenant, request.qos, env.now, self._queued)
        if reason is not None:
            result = RequestResult(status=STATUS_SHED, latency=0.0, error=reason)
            self._finish(request, result)
            done.succeed(result)
            return done
        self._queues[tenant].append((request, done))
        self._queued += 1
        self._wake()
        return done

    def close(self) -> None:
        """No further submissions; the scheduler exits once drained."""
        self._closed = True
        self._wake()

    def quiesce(self) -> Generator:
        """Process: wait until every request — including abandoned straggler
        legs — has fully finished executing."""
        env = self.ecfs.env
        while True:
            self._live = [p for p in self._live if p.is_alive]
            if self._live:
                yield env.all_of(self._live)
                continue
            if self._queued == 0 and self._inflight == 0:
                return
            waiter = env.event()
            self._idle_waiters.append(waiter)
            yield waiter

    def stats(self) -> dict[str, float]:
        """Pipeline-level accounting (admission, budget, hedging).

        Counted live at the pipeline layer, so mid-run introspection (fault
        checks, progress probes) works before any SLO record lands.  Note
        the deliberate semantic split from :meth:`SLOTracker.summary`:
        ``deadline`` here counts *abandoned* requests only, while the SLO
        layer's ``deadline_missed`` also counts served-but-late ones.
        """
        out = {k: float(v) for k, v in self.counters.items()}
        out["shed_rate_limited"] = float(self.admission.shed_rate)
        out["shed_queue_depth"] = float(self.admission.shed_depth)
        out["retry_budget_spent"] = float(self.budget.spent)
        out["retry_budget_denied"] = float(self.budget.denied)
        if self.admission.config.adaptive:
            out["admission_backoffs"] = float(self.admission.backoffs)
            out["admission_min_rate_scale"] = self.admission.min_rate_scale
        return out

    # ------------------------------------------------------------ scheduler
    def _track(self, proc) -> None:
        """Register a spawned process for quiesce(); amortized pruning keeps
        the list O(inflight) instead of O(requests-ever) — finished legs
        would otherwise pin their (block-sized) return payloads all run."""
        if len(self._live) >= 256:
            self._live = [p for p in self._live if p.is_alive]
        self._live.append(proc)

    def _wake(self) -> None:
        if self._signal is not None and not self._signal.triggered:
            self._signal.succeed()

    def _notify_idle(self) -> None:
        if self._queued == 0 and self._inflight == 0 and self._idle_waiters:
            waiters, self._idle_waiters = self._idle_waiters, []
            for waiter in waiters:
                if not waiter.triggered:
                    waiter.succeed()

    def _next_item(self):
        """Strict class priority; round-robin among a class's tenants."""
        for qos in QOS_CLASSES:
            tenants = self._rank_tenants[qos]
            if not tenants:
                continue
            start = self._rr[qos]
            for i in range(len(tenants)):
                tenant = tenants[(start + i) % len(tenants)]
                queue = self._queues[tenant]
                if queue:
                    self._rr[qos] = (start + i + 1) % len(tenants)
                    return queue.popleft()
        return None

    def _schedule_loop(self) -> Generator:
        env = self.ecfs.env
        while True:
            item = self._next_item() if self._inflight < self.max_inflight else None
            if item is None:
                if self._closed and self._queued == 0 and self._inflight == 0:
                    return
                self._signal = env.event()
                yield self._signal
                continue
            request, done = item
            self._queued -= 1
            self._inflight += 1
            proc = env.process(
                self._handle(request, done), name=f"fe-req{request.req_id}"
            )
            # one scheduling-lane cell per request: every process spawned
            # under the handler shares it, so a deadline expiry can demote
            # the whole in-flight tree's device I/O in one assignment
            proc.lane = Lane()
            self._track(proc)

    # -------------------------------------------------------------- handling
    def _finish(self, request: Request, result: RequestResult) -> None:
        self.counters[result.status] += 1
        if result.hedge_won:
            self.counters["hedge_wins"] += 1
        self.slo.record(request, result)
        now = self.ecfs.env.now
        if self.admission.should_adapt(now):
            # AIMD admission rides the same windowed-p99 pressure signal as
            # the background governor, sampled at completion edges (the
            # p99 tail scan is gated on the adapt interval — completions
            # inside it pay nothing)
            cfg = self.admission.config
            self.admission.adapt(now, self.slo.recent_p99(cfg.aimd_window, now))

    def _handle(self, request: Request, done) -> Generator:
        env = self.ecfs.env
        client = self._clients[request.tenant]
        deadline_at = request.submitted_at + request.deadline
        attempts = 0
        retries = 0
        hedged = False
        hedge_won = False
        result: Optional[RequestResult] = None
        while result is None:
            attempts += 1
            kind, payload, from_hedge, did_hedge = yield from self._race(
                request, client, deadline_at, allow_hedge=not hedged
            )
            hedged = hedged or did_hedge
            if kind == "ok":
                hedge_won = from_hedge
                self.budget.earn()
                result = RequestResult(
                    status=STATUS_OK,
                    latency=env.now - request.submitted_at,
                    attempts=attempts,
                    hedged=hedged,
                    hedge_won=hedge_won,
                    retries=retries,
                    value=payload,
                )
            elif kind == "deadline":
                result = RequestResult(
                    status=STATUS_DEADLINE,
                    latency=env.now - request.submitted_at,
                    attempts=attempts,
                    hedged=hedged,
                    retries=retries,
                    error="deadline passed mid-flight",
                )
            else:  # every leg of the attempt failed
                exc = payload
                delay = backoff_delay(attempts) if is_retryable(exc) else None
                if (
                    delay is not None
                    and env.now + delay < deadline_at
                    and self.budget.take()
                ):
                    retries += 1
                    self.counters["retries"] += 1
                    yield env.timeout_us(s_to_us(delay))
                    continue
                result = RequestResult(
                    status=STATUS_FAILED,
                    latency=env.now - request.submitted_at,
                    attempts=attempts,
                    hedged=hedged,
                    retries=retries,
                    error=f"{type(exc).__name__}: {exc}",
                )
        self._finish(request, result)
        self._inflight -= 1
        self._wake()
        self._notify_idle()
        done.succeed(result)

    def _race(
        self, request: Request, client, deadline_at: float, allow_hedge: bool
    ) -> Generator:
        """One dispatch attempt: primary leg vs. hedge timer vs. deadline.

        Returns ``(kind, payload, from_hedge, did_hedge)`` where kind is
        "ok" (payload = value), "err" (payload = last exception), or
        "deadline".  Legs that lose (or outlive the deadline) keep running;
        they are tracked in ``_live`` and waited out by :meth:`quiesce`.
        """
        env = self.ecfs.env
        if env.now >= deadline_at:
            return ("deadline", None, False, False)
        primary = env.process(
            self._safe(self._attempt(request, client)),
            name=f"fe-try{request.req_id}",
        )
        self._track(primary)
        legs: list[tuple] = [(primary, False)]
        did_hedge = False
        hedge_timer = None
        if (
            allow_hedge
            and request.op == "read"
            and self.hedge_delay is not None
            and env.now + self.hedge_delay < deadline_at
        ):
            hedge_timer = env.timeout_us(self._hedge_us)
        deadline_ev = None
        if deadline_at != float("inf"):
            deadline_ev = env.timeout_at_us(s_to_us(deadline_at))
        last_exc: BaseException = ReproError("attempt spawned no legs")
        cancelled: set = set()  # legs already cancel_chain'd (count once)
        try:
            while True:
                race = [proc for proc, _h in legs if not proc.processed]
                if hedge_timer is not None:
                    race.append(hedge_timer)
                if deadline_ev is not None:
                    race.append(deadline_ev)
                cond = env.any_of(race)
                yield cond
                # drop the consumed condition's callbacks from members that
                # did not fire: legs re-raced next iteration would otherwise
                # accumulate one stale callback per wake for as long as they
                # live (and a straggler leg can outlive many wakes)
                self._detach(cond, race)
                for proc, is_hedge in legs:
                    if proc.processed:
                        ok, value = proc.value
                        if ok:
                            return ("ok", value, is_hedge, did_hedge)
                        last_exc = value
                legs = [(p, h) for p, h in legs if not p.processed]
                # classify the deadline before leg exhaustion: a leg failing
                # in the very instant the deadline fires is a deadline miss
                # (semantically — and the "err" path would try to retry past
                # the deadline and land on STATUS_FAILED by a timestamp tie)
                if deadline_ev is not None and deadline_ev.processed:
                    self._abandon(request, legs, cancelled)
                    return ("deadline", None, False, did_hedge)
                if hedge_timer is not None and hedge_timer.processed:
                    hedge_timer = None
                    if legs:  # primary still out there: launch the hedge
                        hedge = env.process(
                            self._safe(
                                _ops.hedged_reconstruct(
                                    self.ecfs,
                                    client.name,
                                    request.file_id,
                                    request.offset,
                                    request.size,
                                )
                            ),
                            name=f"fe-hedge{request.req_id}",
                        )
                        self._track(hedge)
                        legs.append((hedge, True))
                        did_hedge = True
                        self.counters["hedges"] += 1
                if not legs:
                    return ("err", last_exc, False, did_hedge)
        finally:
            # tidy the heap: timers nothing can consume any more
            if hedge_timer is not None and not hedge_timer.processed:
                hedge_timer.cancel()
            if deadline_ev is not None and not deadline_ev.processed:
                deadline_ev.cancel()

    @staticmethod
    def _detach(cond, members) -> None:
        """Remove a consumed any_of's callback from its still-pending
        members (fired members already popped theirs)."""
        check = cond._check
        for ev in members:
            if not ev.processed:
                try:
                    ev.callbacks.remove(check)
                except ValueError:
                    pass

    def _abandon(
        self, request: Request, legs: list[tuple], cancelled: Optional[set] = None
    ) -> None:
        """Deadline expiry: cancel still-running read legs outright; demote
        whatever must run to completion out of the FOREGROUND lane.

        ``cancelled`` carries the attempt's already-cancelled legs: a leg
        raced past its first abandonment (it stays ``is_alive`` until the
        interrupt drains, so a same-tick re-entry would see it "running")
        is neither re-cancelled nor re-counted.
        """
        env = self.ecfs.env
        active = env.active_process  # the request's handler process
        lane = active.lane if active is not None else None
        if lane is not None and lane.priority is None:
            lane.priority = IOPriority.DEMOTED
            self.counters["demoted"] += 1
        if request.op != "read":
            return
        for proc, _is_hedge in legs:
            if cancelled is not None and proc in cancelled:
                continue
            if proc.is_alive:
                proc.cancel_chain("deadline abandoned")
                self.counters["cancelled_legs"] += 1
                if cancelled is not None:
                    cancelled.add(proc)

    def _attempt(self, request: Request, client) -> Generator:
        """The primary leg: one pass through the shared dispatch ops."""
        if request.op == "read":
            return (
                yield from _ops.execute_read(
                    self.ecfs, client.name, request.file_id, request.offset, request.size
                )
            )
        # a fresh op per attempt: its own op id and payload draw, so the
        # update method never confuses a front-end retry with a crash-replay
        # of the earlier attempt
        op = client.make_update_op(request.file_id, request.offset, request.size)
        return (yield from _ops.execute_update(self.ecfs, client.name, op))

    def _safe(self, gen) -> Generator:
        """Wrap a leg so failures become values, never unhandled events.

        A cancelled leg (deadline abandonment interrupting its deepest
        frame) surfaces here as :class:`Interrupt` after every intermediate
        frame's cleanup ran; it becomes a plain failed-value like any other
        lost leg."""
        try:
            value = yield self.ecfs.env.process(gen)
        except ReproError as exc:
            return (False, exc)
        except Interrupt as exc:
            return (False, ReproError(f"leg cancelled: {exc.cause}"))
        return (True, value)
