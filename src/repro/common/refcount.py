"""Shared keyed reference counter.

The cluster model counts overlapping holds on a key in three places —
reconstruction freezes (:class:`~repro.cluster.ecfs.ECFS`), in-flight
client updates, and mid-application log content
(:class:`~repro.update.base.UpdateMethod`).  Each used to hand-roll the
same get/incr/pop dict dance; :class:`RefCounter` is the one shared
implementation, with an ``on_zero`` hook so the last release of a key can
wake event-based waiters (no busy-polling for "is it free yet?").
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterator, Optional

__all__ = ["RefCounter"]


class RefCounter:
    """Count overlapping holds per key; fire ``on_zero(key)`` on last release.

    Keys with a zero count are absent: ``key in rc`` means "held",
    ``iter(rc)`` yields held keys, ``bool(rc)`` is "anything held".
    """

    __slots__ = ("_counts", "_on_zero")

    def __init__(
        self, on_zero: Optional[Callable[[Hashable], None]] = None
    ) -> None:
        self._counts: dict[Hashable, int] = {}
        self._on_zero = on_zero

    def incr(self, key: Hashable) -> int:
        """Add a hold on ``key``; returns the new count."""
        count = self._counts.get(key, 0) + 1
        self._counts[key] = count
        return count

    def decr(self, key: Hashable) -> int:
        """Release a hold; at zero the key is dropped and ``on_zero`` fires.
        Over-release clamps to zero (matching the seed's hand-rolled
        pattern, where a stray decrement must not underflow)."""
        left = self._counts.get(key, 0) - 1
        if left > 0:
            self._counts[key] = left
            return left
        self._counts.pop(key, None)
        if self._on_zero is not None:
            self._on_zero(key)
        return 0

    def count(self, key: Hashable) -> int:
        return self._counts.get(key, 0)

    def clear(self) -> None:
        self._counts.clear()

    def keys(self):
        return self._counts.keys()

    def __contains__(self, key: Hashable) -> bool:
        return key in self._counts

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._counts)

    def __len__(self) -> int:
        return len(self._counts)

    def __bool__(self) -> bool:
        return bool(self._counts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RefCounter({self._counts!r})"
