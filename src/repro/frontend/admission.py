"""Admission control: per-tenant token buckets + graduated queue shedding.

Two gates stand between a submitted request and the dispatch queues:

* a **token bucket** per tenant (``rate`` tokens/sec, ``burst`` capacity)
  caps each tenant's sustained arrival rate, so one tenant's flood cannot
  starve the others;
* a **queue-depth gate** sheds load when the pipeline backs up
  (:data:`MAX_QUEUED` queued requests) — with a *graduated* profile:
  bronze is shed when queues reach 1/3 of the bound, silver at 2/3, gold
  only at the full bound.  Under a fault-induced
  backlog the scavenger classes drop first, which is what preserves the
  gold availability SLO.

With ``adaptive=True`` the bucket rates additionally follow an **AIMD
loop** driven by the same windowed foreground-p99 pressure signal as the
background scheduler's governor: a p99 breach cuts every tenant's rate
multiplicatively, headroom restores it additively (at most once per
:data:`AIMD_INTERVAL`, steps :data:`AIMD_BACKOFF` / :data:`AIMD_RECOVER`,
never below :data:`AIMD_FLOOR`) — back-pressure at the door instead of in
the queues.  Off by default.

Everything is arithmetic over the simulated clock — no RNG, no wall time —
so admission decisions are bit-deterministic across runs and processes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.control import aimd_step, validate_aimd
from repro.frontend.request import QOS_CLASSES, QOS_RANK

__all__ = ["TokenBucket", "AdmissionConfig", "AdmissionController"]

MAX_QUEUED = 96  # total queued requests before even gold sheds
AIMD_INTERVAL = 0.025  # min seconds between adjustments
AIMD_BACKOFF = 0.5  # multiplicative decrease on breach
AIMD_RECOVER = 0.1  # additive rate-scale recovery per interval
AIMD_FLOOR = 0.05  # lowest rate scale (admission never closes)


class TokenBucket:
    """Deterministic continuous-refill token bucket."""

    __slots__ = ("rate", "burst", "_tokens", "_stamp")

    def __init__(self, rate: float, burst: float) -> None:
        if rate <= 0 or burst <= 0:
            raise ValueError("token bucket rate and burst must be positive")
        self.rate = rate
        self.burst = burst
        self._tokens = burst
        self._stamp = 0.0

    def _refill(self, now: float) -> None:
        if now > self._stamp:
            self._tokens = min(self.burst, self._tokens + (now - self._stamp) * self.rate)
            self._stamp = now

    def take(self, now: float, n: float = 1.0) -> bool:
        """Consume ``n`` tokens if available; False = rate exceeded."""
        self._refill(now)
        if self._tokens >= n:
            self._tokens -= n
            return True
        return False

    def set_rate(self, rate: float, now: float) -> None:
        """Change the refill rate (tokens accrued so far are kept)."""
        if rate <= 0:
            raise ValueError("token bucket rate must be positive")
        self._refill(now)
        self.rate = rate


@dataclass(frozen=True)
class AdmissionConfig:
    """Shared admission parameters (per-tenant buckets are cloned from it)."""

    rate: float = 2000.0  # tokens/sec per tenant
    burst: float = 64.0  # bucket capacity
    # AIMD adaptive target rate, driven by the windowed foreground p99
    # (the governor's pressure signal); off by default
    adaptive: bool = False
    aimd_p99_target: float = 0.02  # breach threshold (seconds)
    aimd_window: float = 0.05  # trailing p99 window (seconds)

    def validate(self) -> None:
        if self.rate <= 0 or self.burst <= 0:
            raise ValueError("invalid admission rate/burst")
        if self.adaptive:
            validate_aimd(target=self.aimd_p99_target, window=self.aimd_window)

    def depth_bound(self, qos: str) -> int:
        """Graduated shedding threshold for a class (gold = full bound)."""
        rank = QOS_RANK[qos]
        n = len(QOS_CLASSES)
        return max(1, MAX_QUEUED * (n - rank) // n)


class AdmissionController:
    """Applies :class:`AdmissionConfig` to a stream of submissions."""

    def __init__(self, config: AdmissionConfig | None = None) -> None:
        self.config = config or AdmissionConfig()
        self.config.validate()
        self._buckets: dict[str, TokenBucket] = {}
        self.shed_rate = 0  # rejected by the token bucket
        self.shed_depth = 0  # rejected by the queue-depth gate
        # AIMD state (meaningful only when config.adaptive)
        self.rate_scale = 1.0
        self.min_rate_scale = 1.0
        self.backoffs = 0  # multiplicative decreases taken
        self._last_adapt = 0.0

    def bucket(self, tenant: str) -> TokenBucket:
        bucket = self._buckets.get(tenant)
        if bucket is None:
            bucket = self._buckets[tenant] = TokenBucket(
                self.config.rate * self.rate_scale, self.config.burst
            )
        return bucket

    def should_adapt(self, now: float) -> bool:
        """True when the next :meth:`adapt` call would act — callers gate
        the (tail-scan + percentile) pressure computation on this so the
        hot completion path pays nothing inside the rate interval."""
        return self.config.adaptive and now - self._last_adapt >= AIMD_INTERVAL

    def adapt(self, now: float, p99: float) -> None:
        """One AIMD observation: scale every tenant's bucket rate by the
        pressure verdict (at most once per :data:`AIMD_INTERVAL`)."""
        cfg = self.config
        if not cfg.adaptive:
            return
        if now - self._last_adapt < AIMD_INTERVAL:
            return
        self._last_adapt = now
        breached = p99 > cfg.aimd_p99_target
        if breached:
            self.backoffs += 1
        self.rate_scale = aimd_step(
            self.rate_scale,
            breached,
            backoff=AIMD_BACKOFF,
            recover=AIMD_RECOVER,
            floor=AIMD_FLOOR,
        )
        self.min_rate_scale = min(self.min_rate_scale, self.rate_scale)
        for bucket in self._buckets.values():
            bucket.set_rate(cfg.rate * self.rate_scale, now)

    def admit(self, tenant: str, qos: str, now: float, queued: int) -> str | None:
        """None = admitted; otherwise the shed reason (for the result)."""
        if queued >= self.config.depth_bound(qos):
            self.shed_depth += 1
            return f"queue depth {queued} over the {qos} bound"
        if not self.bucket(tenant).take(now):
            self.shed_rate += 1
            return f"tenant {tenant} over its admission rate"
        return None
