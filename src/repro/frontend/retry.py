"""Retry policy: exponential backoff under a cluster-wide retry budget.

:class:`ExponentialBackoff` decides *whether and when* a failed attempt is
re-dispatched: capped exponential backoff (no jitter — the DES is
deterministic and the backoff base already de-synchronizes clients that
failed at different instants) gated by a **retry budget**:
retries may consume at most ``budget_ratio`` of completed-request volume,
the standard defense against retry storms amplifying an outage.

Which failures are retryable is decided by
:func:`repro.common.errors.is_retryable`: transient unavailability (a down
node — recovery or a restart heals it) and impossible decodes (erasures
mend) retry; true integrity violations are fatal.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import is_retryable

__all__ = ["ExponentialBackoff", "RetryBudget", "is_retryable"]


class RetryBudget:
    """Token pool: completions earn ``ratio`` tokens, each retry spends one.

    Seeded with ``initial`` so the first failures of a run can retry before
    any request has completed.
    """

    __slots__ = ("ratio", "_tokens", "spent", "denied")

    def __init__(self, ratio: float = 0.2, initial: float = 10.0) -> None:
        if ratio < 0:
            raise ValueError("budget ratio must be >= 0")
        self.ratio = ratio
        self._tokens = float(initial)
        self.spent = 0
        self.denied = 0

    def earn(self) -> None:
        self._tokens += self.ratio

    def take(self) -> bool:
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            self.spent += 1
            return True
        self.denied += 1
        return False


@dataclass(frozen=True)
class ExponentialBackoff:
    """``base * factor**(attempt-1)`` capped at ``cap``, ``max_retries`` deep.

    :meth:`delay` is the wait before attempt ``attempt + 1`` (None = give up).
    """

    base: float = 0.002
    factor: float = 2.0
    cap: float = 0.05
    max_retries: int = 4

    def delay(self, attempt: int) -> float | None:
        if attempt > self.max_retries:
            return None
        return min(self.cap, self.base * self.factor ** (attempt - 1))
