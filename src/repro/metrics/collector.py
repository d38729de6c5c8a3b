"""Per-run request metrics: latency distributions and IOPS time series."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["MetricsCollector"]


@dataclass
class _OpSeries:
    latencies: list[float] = field(default_factory=list)
    times: list[float] = field(default_factory=list)
    bytes: int = 0

    def record(self, now: float, latency: float, size: int) -> None:
        self.latencies.append(latency)
        self.times.append(now)
        self.bytes += size

    @property
    def count(self) -> int:
        return len(self.latencies)


class MetricsCollector:
    """Collects completion events; derives IOPS/latency statistics."""

    def __init__(self, env) -> None:
        self.env = env
        self.updates = _OpSeries()
        self.reads = _OpSeries()
        #: background migration moves (epoch rebalances); "latency" slots
        #: hold 0 — the interesting dimensions are bytes and completion times
        self.rebalance = _OpSeries()

    # ------------------------------------------------------------- recording
    def record_update(self, latency: float, size: int) -> None:
        self.updates.record(self.env.now, latency, size)

    def record_read(self, latency: float, size: int) -> None:
        self.reads.record(self.env.now, latency, size)

    def record_rebalance(self, size: int) -> None:
        """One completed migration move of ``size`` bytes."""
        self.rebalance.record(self.env.now, 0.0, size)

    # -------------------------------------------------------------- analysis
    def aggregate_iops(self, kind: str = "updates") -> float:
        """Completed ops per second over the active span."""
        series = getattr(self, kind)
        if series.count < 2:
            return float(series.count)
        span = series.times[-1] - series.times[0]
        return series.count / span if span > 0 else float(series.count)

    def iops_series(self, window: float = 1.0, kind: str = "updates") -> tuple[np.ndarray, np.ndarray]:
        """(window centers, IOPS per window) — Fig. 6a's time series."""
        series = getattr(self, kind)
        if not series.times:
            return np.array([]), np.array([])
        t = np.asarray(series.times)
        t0, t1 = t.min(), t.max()
        nbins = max(1, int(np.ceil((t1 - t0) / window)))
        edges = t0 + np.arange(nbins + 1) * window
        counts, _ = np.histogram(t, bins=edges)
        centers = (edges[:-1] + edges[1:]) / 2.0
        return centers, counts / window

    def latency_stats(self, kind: str = "updates") -> dict[str, float]:
        series = getattr(self, kind)
        if not series.latencies:
            return {"count": 0, "mean": 0.0, "p50": 0.0, "p99": 0.0, "max": 0.0}
        lat = np.asarray(series.latencies)
        return {
            "count": float(lat.shape[0]),
            "mean": float(lat.mean()),
            "p50": float(np.percentile(lat, 50)),
            "p99": float(np.percentile(lat, 99)),
            "max": float(lat.max()),
        }

    @staticmethod
    def percentile_stats(
        values, qs: tuple[float, ...] = (50.0, 99.0, 99.9)
    ) -> dict[str, float]:
        """{"p50": ..., "p99": ..., "p999": ...} over ``values`` (0s if empty).

        Percentile labels drop the decimal point (99.9 -> ``p999``), the
        SRE-conventional spelling the SLO layer reports.
        """
        labels = ["p" + f"{q:g}".replace(".", "") for q in qs]
        if len(values) == 0:
            return {label: 0.0 for label in labels}
        arr = np.asarray(values, dtype=float)
        pct = np.percentile(arr, qs)
        return {label: float(v) for label, v in zip(labels, pct)}

    @staticmethod
    def windowed(
        times, values, window: float, t0: float | None = None
    ) -> tuple[np.ndarray, list[np.ndarray]]:
        """Bucket ``values`` by their ``times`` into fixed windows.

        Returns (window centers, per-window value arrays) — the shared
        binning behind IOPS series and the SLO layer's latency-during-
        migration time series.  Pass ``t0`` to pin the bin origin so two
        series over different samples (e.g. all arrivals vs. served-only
        completions) land on identical window centers.
        """
        if len(times) == 0:
            return np.array([]), []
        t = np.asarray(times, dtype=float)
        v = np.asarray(values, dtype=float)
        if t0 is None:
            t0 = float(t.min())
        nbins = max(1, int(np.ceil((t.max() - t0) / window)) or 1)
        idx = np.clip(((t - t0) / window).astype(int), 0, nbins - 1)
        centers = t0 + (np.arange(nbins) + 0.5) * window
        return centers, [v[idx == b] for b in range(nbins)]

    @staticmethod
    def tail_window(times, values, cutoff: float) -> list:
        """Values whose times fall at/after ``cutoff``, scanned from the
        tail of time-ordered parallel sequences (only the trailing window
        is touched) — the shared scan behind every windowed pressure
        signal (the governor's and adaptive admission's p99 read-outs)."""
        out = []
        for i in range(len(times) - 1, -1, -1):
            if times[i] < cutoff:
                break
            out.append(values[i])
        return out

    def recent_foreground_p99(self, window: float, now: float | None = None) -> float:
        """p99 of foreground (update + read) latencies completed within the
        trailing ``window`` seconds — the raw pressure signal the background
        governor consumes when no front-end SLO tracker is attached."""
        if now is None:
            now = self.env.now
        cutoff = now - window
        recent: list[float] = []
        for series in (self.updates, self.reads):
            recent.extend(self.tail_window(series.times, series.latencies, cutoff))
        return self.percentile_stats(recent, (99.0,))["p99"]

    def rebalance_stats(self) -> dict[str, float]:
        """Moved bytes/blocks and time-to-balanced of epoch rebalances —
        the span from the first to the last committed move this run."""
        series = self.rebalance
        span = series.times[-1] - series.times[0] if series.count > 1 else 0.0
        return {
            "moved_blocks": float(series.count),
            "moved_bytes": float(series.bytes),
            "time_to_balanced": span,
            "bandwidth": series.bytes / span if span > 0 else 0.0,
        }

    @staticmethod
    def tail_imbalance(loads) -> float:
        """Max-over-mean of a per-target load distribution (1.0 = flat).
        Cluster-level callers normalize by device weight first (see
        :meth:`ECFS.tail_imbalance`)."""
        loads = list(loads)
        if not loads:
            return 0.0
        mean = sum(loads) / len(loads)
        return max(loads) / mean if mean > 0 else 0.0
