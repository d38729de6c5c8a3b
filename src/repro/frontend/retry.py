"""Retry policy: exponential backoff under a cluster-wide retry budget.

:func:`backoff_delay` decides *whether and when* a failed attempt is
re-dispatched: capped exponential backoff (no jitter — the DES is
deterministic and the backoff base already de-synchronizes clients that
failed at different instants) gated by a **retry budget**:
retries may consume at most :data:`BUDGET_RATIO` of completed-request
volume, the standard defense against retry storms amplifying an outage.

Which failures are retryable is decided by
:func:`repro.common.errors.is_retryable`: transient unavailability (a down
node — recovery or a restart heals it) and impossible decodes (erasures
mend) retry; true integrity violations are fatal.
"""

from __future__ import annotations

from repro.common.errors import is_retryable

__all__ = ["backoff_delay", "RetryBudget", "is_retryable"]

#: the wait before retry ``n`` is ``BACKOFF_BASE * BACKOFF_FACTOR**(n-1)``
#: seconds, capped at ``BACKOFF_CAP``; at most ``MAX_RETRIES`` retries
BACKOFF_BASE = 0.002
BACKOFF_FACTOR = 2.0
BACKOFF_CAP = 0.05
MAX_RETRIES = 4
#: each completion earns ``BUDGET_RATIO`` retry tokens; the pool starts with
#: ``BUDGET_INITIAL`` so the first failures of a run can retry before any
#: request has completed
BUDGET_RATIO = 0.2
BUDGET_INITIAL = 10.0


def backoff_delay(attempt: int) -> float | None:
    """The wait before attempt ``attempt + 1`` (None = give up)."""
    if attempt > MAX_RETRIES:
        return None
    return min(BACKOFF_CAP, BACKOFF_BASE * BACKOFF_FACTOR ** (attempt - 1))


class RetryBudget:
    """Token pool: completions earn :data:`BUDGET_RATIO` tokens, each retry
    spends one."""

    __slots__ = ("_tokens", "spent", "denied")

    def __init__(self) -> None:
        self._tokens = BUDGET_INITIAL
        self.spent = 0
        self.denied = 0

    def earn(self) -> None:
        self._tokens += BUDGET_RATIO

    def take(self) -> bool:
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            self.spent += 1
            return True
        self.denied += 1
        return False
