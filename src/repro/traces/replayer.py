"""Closed- and open-loop multi-client trace replay.

Closed loop (:class:`TraceReplayer`): ``n_clients`` client processes share
the trace; each issues its next record as soon as the previous one
completes (zero think time), which is how the paper's client scaling
(4..64 clients) is driven.

Open loop (:class:`OpenLoopReplayer`): each :class:`TenantSpec` is an
independent arrival process — exponential inter-arrival gaps at the
tenant's rate, drawn from a per-tenant seeded RNG stream — submitting into
a QoS-aware :class:`~repro.frontend.dispatcher.FrontEnd` without waiting
for completions.  Arrivals keep coming while the cluster degrades, which
is what makes availability-under-faults measurable: a closed loop slows
its own arrival rate to match the outage and hides the damage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Generator, Sequence

import numpy as np

from repro.cluster.ecfs import ECFS
from repro.common.errors import DecodeError, IntegrityError
from repro.sim import s_to_us
from repro.traces.record import TraceRecord
from repro.traces.synthetic import generate_trace

if TYPE_CHECKING:  # pragma: no cover
    from repro.frontend.dispatcher import FrontEnd

__all__ = ["ReplayResult", "TraceReplayer", "TenantSpec", "OpenLoopReplayer"]


@dataclass
class ReplayResult:
    ops_issued: int
    updates: int
    reads: int
    elapsed: float
    failures: int = 0  # ops the cluster errored on (tolerate_failures mode)

    @property
    def iops(self) -> float:
        return self.ops_issued / self.elapsed if self.elapsed > 0 else 0.0


class TraceReplayer:
    """Replays a record list against a cluster with N concurrent clients."""

    def __init__(self, ecfs: ECFS, records: Sequence[TraceRecord]) -> None:
        self.ecfs = ecfs
        self.records = list(records)
        self._cursor = 0
        self._updates = 0
        self._reads = 0
        self._failures = 0
        self._tolerate = False

    # ------------------------------------------------------------------ API
    def run(
        self,
        n_clients: int,
        duration: float | None = None,
        tolerate_failures: bool = False,
    ) -> ReplayResult:
        """Replay with ``n_clients`` closed-loop clients.

        Stops when the trace is exhausted, or at ``duration`` simulated
        seconds if given (whichever comes first).  With
        ``tolerate_failures`` an op erroring on a failed node is counted in
        ``failures`` and the client moves on — how a fault-injection run
        keeps serving while nodes crash and recover under it.
        """
        ecfs = self.ecfs
        env = ecfs.env
        self._tolerate = tolerate_failures
        while len(ecfs.clients) < n_clients:
            ecfs.add_clients(1)
        start = env.now
        deadline = None if duration is None else start + duration
        procs = [
            env.process(self._client_loop(ecfs.clients[i], deadline), name=f"replay{i}")
            for i in range(n_clients)
        ]
        done = env.all_of(procs)
        env.run(done)
        return ReplayResult(
            ops_issued=self._updates + self._reads,
            updates=self._updates,
            reads=self._reads,
            elapsed=env.now - start,
            failures=self._failures,
        )

    # ------------------------------------------------------------ internals
    def _next_record(self) -> TraceRecord | None:
        if self._cursor >= len(self.records):
            return None
        rec = self.records[self._cursor]
        self._cursor += 1
        return rec

    def _client_loop(self, client, deadline: float | None) -> Generator:
        env = self.ecfs.env
        read_name = f"{client.name}-read"
        upd_name = f"{client.name}-upd"
        while True:
            if deadline is not None and env.now >= deadline:
                return
            rec = self._next_record()
            if rec is None:
                return
            if rec.op == "read":
                proc = env.process(
                    client.read(rec.file_id, rec.offset, rec.size),
                    name=read_name,
                )
            else:
                proc = env.process(
                    client.update(rec.file_id, rec.offset, rec.size),
                    name=upd_name,
                )
            try:
                yield proc
            except (IntegrityError, DecodeError):
                if not self._tolerate:
                    raise
                self._failures += 1
                continue
            if rec.op == "read":
                self._reads += 1
            else:
                self._updates += 1


# --------------------------------------------------------------- open loop
#: statistical fingerprint of every tenant's ops
TENANT_TRACE = "tencloud"


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's arrival process and QoS class (its deadline is the
    class default)."""

    name: str
    qos: str = "silver"  # scheduling class (see repro.frontend.request)
    rate: float = 400.0  # mean arrivals/sec (exponential gaps)
    n_ops: int = 100  # arrivals this tenant generates

    def __post_init__(self) -> None:
        if self.rate <= 0 or self.n_ops <= 0:
            raise ValueError("tenant rate and n_ops must be positive")


@dataclass
class OpenLoopResult:
    """Totals of one open-loop run (per-request detail lives in the
    front end's :class:`~repro.frontend.slo.SLOTracker`)."""

    submitted: int
    ok: int
    shed: int
    failed: int
    deadline_missed: int
    elapsed: float
    per_tenant: dict[str, int] = field(default_factory=dict)


class OpenLoopReplayer:
    """Drives per-tenant Poisson arrivals into a front-end pipeline."""

    def __init__(
        self,
        ecfs: ECFS,
        frontend: "FrontEnd",
        tenants: Sequence[TenantSpec],
        files: Sequence[int],
    ) -> None:
        if not tenants:
            raise ValueError("need at least one tenant")
        self.ecfs = ecfs
        self.frontend = frontend
        self.tenants = list(tenants)
        self.files = list(files)
        for spec in self.tenants:
            frontend.register_tenant(spec.name, spec.qos)

    def run(self, seed: int = 2025) -> OpenLoopResult:
        """Generate every tenant's arrivals, wait for all completions (and
        abandoned straggler legs), and return the totals."""
        from repro.harness.runner import resolve_trace

        ecfs = self.ecfs
        env = ecfs.env
        start = env.now
        file_bytes = ecfs.mds.lookup(self.files[0]).size
        completions: list = []
        arrival_procs = []
        for idx, spec in enumerate(sorted(self.tenants, key=lambda s: s.name)):
            records = generate_trace(
                resolve_trace(TENANT_TRACE),
                spec.n_ops,
                self.files,
                file_bytes,
                seed=seed + 7919 * (idx + 1),
            )
            rng = np.random.default_rng(
                np.random.SeedSequence([seed, 0x09E7100, idx])
            )
            gaps = rng.exponential(1.0 / spec.rate, spec.n_ops)
            arrivals = start + np.cumsum(gaps)
            arrival_procs.append(
                env.process(
                    self._arrive(spec, records, arrivals, completions),
                    name=f"arrivals-{spec.name}",
                )
            )
        env.run(env.all_of(arrival_procs))
        self.frontend.close()
        if completions:
            env.run(env.all_of(completions))
        env.run(env.process(self.frontend.quiesce(), name="fe-quiesce"))

        results = [ev.value for ev in completions]
        per_tenant: dict[str, int] = {}
        for spec in sorted(self.tenants, key=lambda s: s.name):
            per_tenant[spec.name] = spec.n_ops
        return OpenLoopResult(
            submitted=len(results),
            ok=sum(1 for r in results if r.status == "ok"),
            shed=sum(1 for r in results if r.status == "shed"),
            failed=sum(1 for r in results if r.status == "failed"),
            deadline_missed=sum(1 for r in results if r.status == "deadline"),
            elapsed=env.now - start,
            per_tenant=per_tenant,
        )

    def _arrive(self, spec, records, arrivals, completions) -> Generator:
        env = self.ecfs.env
        for record, when in zip(records, arrivals):
            if when > env.now:
                yield env.timeout_at_us(s_to_us(float(when)))
            completions.append(
                self.frontend.submit(
                    record.op,
                    spec.name,
                    record.file_id,
                    record.offset,
                    record.size,
                )
            )
