"""SLO metrics: per-tenant/per-class latency percentiles, availability,
goodput, and error budget, plus windowed time series.

Every terminal :class:`~repro.frontend.request.RequestResult` is folded in
here.  Two read-outs:

* :meth:`SLOTracker.summary` — per ``(tenant, qos)`` aggregate: request
  counts by status, p50/p99/p999 latency, goodput (deadline-met ops/sec),
  **availability** (fraction of submitted requests served within deadline),
  and the remaining **error budget** against the class SLO target;
* :meth:`SLOTracker.series` — fixed-window time series of availability and
  p99 latency, which is what makes "foreground latency during a
  migration/recovery window" a plottable curve rather than one number.

All statistics are derived with :class:`~repro.metrics.collector.
MetricsCollector`'s percentile/window helpers over deterministic inputs,
so SLO numbers are digest-stable across processes and hash seeds.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.frontend.request import QOS_RANK, Request, RequestResult
from repro.metrics.collector import MetricsCollector

__all__ = ["SLO_TARGETS", "SLORecord", "SLOTracker"]

#: per-class availability targets the error budget is burned against
SLO_TARGETS = {"gold": 0.999, "silver": 0.99, "bronze": 0.9}
#: bucket width of :meth:`SLOTracker.series` (simulated seconds); the
#: series is folded into the scenario digest, so changing it moves every
#: front-end golden
SERIES_WINDOW = 0.05


@dataclass(frozen=True)
class SLORecord:
    """One terminal request outcome, as the tracker stores it."""

    t: float  # completion (or shed/abandonment) sim time
    tenant: str
    qos: str
    op: str
    status: str
    latency: float
    met: bool  # served successfully within its deadline
    attempts: int
    hedged: bool
    hedge_won: bool
    retries: int


class SLOTracker:
    """Accumulates request outcomes; derives SLO statistics on demand."""

    def __init__(self, env) -> None:
        self.env = env
        self.records: list[SLORecord] = []
        # parallel served-latency series (completion-time order), so the
        # windowed pressure read-out shares the collector's tail scan
        self._served_t: list[float] = []
        self._served_lat: list[float] = []

    # ------------------------------------------------------------- recording
    def record(self, request: Request, result: RequestResult) -> None:
        now = self.env.now
        self.records.append(
            SLORecord(
                t=now,
                tenant=request.tenant,
                qos=request.qos,
                op=request.op,
                status=result.status,
                latency=result.latency,
                met=result.met_deadline(request.deadline),
                attempts=result.attempts,
                hedged=result.hedged,
                hedge_won=result.hedge_won,
                retries=result.retries,
            )
        )
        if result.status == "ok":
            self._served_t.append(now)
            self._served_lat.append(result.latency)

    def recent_p99(self, window: float, now: float | None = None) -> float:
        """p99 of *served* latencies completed in the trailing ``window``
        seconds — the live pressure signal the background governor and the
        adaptive-admission AIMD loop both consume."""
        if now is None:
            now = self.env.now
        recent = MetricsCollector.tail_window(
            self._served_t, self._served_lat, now - window
        )
        return MetricsCollector.percentile_stats(recent, (99.0,))["p99"]

    # -------------------------------------------------------------- read-out
    def _groups(self) -> dict[tuple[str, str], list[SLORecord]]:
        groups: dict[tuple[str, str], list[SLORecord]] = {}
        for rec in self.records:
            groups.setdefault((rec.tenant, rec.qos), []).append(rec)
        return groups

    @staticmethod
    def _stats(recs: list[SLORecord], target: float) -> dict[str, float]:
        submitted = len(recs)
        served = [r for r in recs if r.status == "ok"]
        met = [r for r in served if r.met]
        span = max(r.t for r in recs) - min(r.t for r in recs) if submitted > 1 else 0.0
        availability = len(met) / submitted if submitted else 0.0
        # error budget: the SLO target allows (1 - target) of requests to
        # miss; remaining = 1 - miss_rate / allowance (clamped at 0, so a
        # blown budget reads 0.0 rather than going negative)
        allowance = 1.0 - target
        miss_rate = 1.0 - availability
        budget = 1.0 - miss_rate / allowance if allowance > 0 else 0.0
        out = {
            "submitted": float(submitted),
            "served": float(len(served)),
            "shed": float(sum(1 for r in recs if r.status == "shed")),
            "failed": float(sum(1 for r in recs if r.status == "failed")),
            "deadline_missed": float(
                sum(1 for r in recs if r.status == "deadline")
                + sum(1 for r in served if not r.met)
            ),
            "retries": float(sum(r.retries for r in recs)),
            "hedges": float(sum(1 for r in recs if r.hedged)),
            "hedge_wins": float(sum(1 for r in recs if r.hedge_won)),
            "availability": availability,
            "goodput": len(met) / span if span > 0 else float(len(met)),
            "error_budget": max(0.0, budget),
            "slo_target": target,
        }
        out.update(
            MetricsCollector.percentile_stats([r.latency for r in served])
        )
        return out

    def overall(self) -> dict[str, float]:
        """Aggregate foreground SLO across every tenant and class — the
        one-number read-outs (p50/p99/p999 latency, availability) the
        background governor's acceptance comparison and the nightly bench
        track.  Derived from the same records as :meth:`summary`."""
        recs = self.records
        met = sum(1 for r in recs if r.met)
        out = {
            "submitted": float(len(recs)),
            "served": float(len(self._served_lat)),
            "availability": met / len(recs) if recs else 0.0,
        }
        out.update(MetricsCollector.percentile_stats(self._served_lat))
        return out

    def summary(self) -> dict[str, dict[str, float]]:
        """Per-``tenant/qos`` SLO aggregates, sorted by class rank then name
        (the deterministic order the CLI table and the digest both use)."""
        groups = self._groups()
        ordered = sorted(groups, key=lambda key: (QOS_RANK[key[1]], key[0]))
        return {
            f"{tenant}/{qos}": self._stats(groups[(tenant, qos)], SLO_TARGETS[qos])
            for tenant, qos in ordered
        }

    def series(self) -> dict[str, list[float]]:
        """Windowed availability + p99 latency time series (all tenants),
        one :data:`SERIES_WINDOW`-wide bucket per point.

        Keys: ``t`` (window centers), ``availability`` (deadline-met
        fraction per window), ``p99`` (served-latency p99 per window),
        ``submitted`` (arrivals per window) — the plottable "latency during
        migration/recovery" curve.
        """
        if not self.records:
            return {"t": [], "availability": [], "p99": [], "submitted": []}
        times = [r.t for r in self.records]
        t0 = min(times)
        met = [1.0 if r.met else 0.0 for r in self.records]
        centers, met_bins = MetricsCollector.windowed(
            times, met, SERIES_WINDOW, t0=t0
        )
        out = {
            "t": [float(c) for c in centers],
            "availability": [
                float(b.mean()) if b.size else 0.0 for b in met_bins
            ],
            "submitted": [float(b.size) for b in met_bins],
        }
        # p99 per window over *served* completions — binned from the same
        # origin, so both series share exact window centers and a window
        # in which nothing completed (the outage itself) reads 0, not a
        # neighbour's value
        served = [(r.t, r.latency) for r in self.records if r.status == "ok"]
        by_center: dict[float, float] = {}
        if served:
            s_centers, lat_bins = MetricsCollector.windowed(
                [t for t, _l in served],
                [latency for _t, latency in served],
                SERIES_WINDOW,
                t0=t0,
            )
            by_center = {
                float(c): MetricsCollector.percentile_stats(b, (99.0,))["p99"]
                for c, b in zip(s_centers, lat_bins)
                if b.size
            }
        out["p99"] = [by_center.get(c, 0.0) for c in out["t"]]
        return out
