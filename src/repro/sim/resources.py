"""Queued resources for the DES: Resource, Store.

These model contended hardware: a storage device is a ``Resource`` with
capacity equal to its internal parallelism; a mailbox between actors is a
``Store``.  Requests are events, so processes simply ``yield res.request()``.

Hot-path notes
--------------
An *uncontended* grant (free capacity, empty queue) finishes the request
event immediately at creation — the requester's ``yield`` then resumes
inline via the engine's already-processed fast path, with no heap
round-trip.  Contended grants still go through the heap (the
``(priority, arrival)`` order is what the queue exists for).  ``release`` no longer constructs a
confirmation event (the seed's ``Release``): nothing in the tree ever
waited on one, and at ~25% of all scheduled events in a profiled TSUE run
they were pure event-loop ballast.  Likewise ``Store.put``/``Store.get``
finish immediately when the queue has room/items.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Optional

from repro.sim.core import _PENDING, _PROCESSED, Environment, Event

__all__ = ["Request", "Resource", "Store"]


class Request(Event):
    """A pending claim on a :class:`Resource`; fires when granted.

    Usable as a context manager inside a process::

        with device.request() as req:
            yield req
            ... hold the device ...
    """

    __slots__ = ("resource", "priority", "key")

    def __init__(self, resource: "Resource", priority: int = 0) -> None:
        env = resource.env
        self.env = env
        self.callbacks = []
        self._value = None
        self._ok = True
        self._defused = False
        self._cancelled = False
        self.resource = resource
        self.priority = priority
        users = resource.users
        if len(users) < resource.capacity and not resource.queue:
            # Uncontended: grant inline — the requester's `yield` resumes
            # without a heap round-trip.
            users.append(self)
            self._state = _PROCESSED
        else:
            self._state = _PENDING
            tie = resource._tiebreak
            resource._tiebreak = tie + 1
            self.key = (priority, tie)
            heapq.heappush(resource.queue, (self.key, self))

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.resource.release(self)

    def cancel(self) -> None:
        """Withdraw a not-yet-granted request."""
        self.resource._cancel(self)


class Resource:
    """Resource with integer capacity whose queue orders by ``priority``
    (lower first), then arrival.

    With every request at the default priority it is plain FIFO.  A storage
    device uses the priority so foreground I/O takes *queue position* over
    background I/O on the same device (no mid-service preemption; real
    block devices don't abort in-flight commands either)."""

    def __init__(self, env: Environment, capacity: int = 1) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.env = env
        self.capacity = capacity
        self.users: list[Request] = []
        self.queue: list[tuple[tuple[int, int], Request]] = []
        self._tiebreak = 0

    @property
    def count(self) -> int:
        """Number of current holders."""
        return len(self.users)

    @property
    def queue_len(self) -> int:
        return len(self.queue)

    def queued_below(self, priority: int) -> int:
        """Waiting (not yet granted) requests stronger than ``priority``.

        The lane-aware read-out a background arbiter uses to subordinate its
        grants to foreground pressure: a non-zero count means foreground I/O
        is *backlogged* on this resource (merely-held channels don't count —
        a device serving one foreground command is busy, not saturated).
        """
        return sum(
            1
            for _key, req in self.queue
            if req.priority < priority and not req.triggered
        )

    def request(self, priority: int = 0) -> Request:
        return Request(self, priority)

    def release(self, req: Request) -> None:
        try:
            self.users.remove(req)
        except ValueError:
            self._cancel(req)
            return
        if self.queue:
            self._grant_next()

    def _cancel(self, req: Request) -> None:
        for i, (_k, queued) in enumerate(self.queue):
            if queued is req:
                self.queue.pop(i)
                heapq.heapify(self.queue)
                return

    def _grant_next(self) -> None:
        while self.queue and len(self.users) < self.capacity:
            _key, req = heapq.heappop(self.queue)
            if req.triggered:  # cancelled/failed while queued
                continue
            self.users.append(req)
            req.succeed()


class StoreGet(Event):
    __slots__ = ()


class StorePut(Event):
    __slots__ = ("item",)

    def __init__(self, env: Environment, item: Any) -> None:
        super().__init__(env)
        self.item = item


class Store:
    """Unbounded-or-bounded FIFO queue of Python objects.

    ``put`` blocks only when a finite ``capacity`` is set and reached;
    ``get`` blocks until an item is available.  Immediately satisfiable
    puts/gets finish inline (no heap round-trip); blocked ones are woken
    through the heap in FIFO order.
    """

    def __init__(self, env: Environment, capacity: float = float("inf")) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.env = env
        self.capacity = capacity
        self.items: deque[Any] = deque()
        self._getters: deque[StoreGet] = deque()
        self._putters: deque[StorePut] = deque()

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> StorePut:
        ev = StorePut(self.env, item)
        if len(self.items) < self.capacity:
            self.items.append(item)
            ev._state = _PROCESSED
            self._wake_getters()
        else:
            self._putters.append(ev)
        return ev

    def put_front(self, item: Any) -> StorePut:
        """Insert at the head of the queue (recovery requeues use this so an
        interrupted item replays before newer ones — FIFO is preserved)."""
        ev = StorePut(self.env, item)
        if len(self.items) < self.capacity:
            self.items.appendleft(item)
            ev._state = _PROCESSED
            self._wake_getters()
        else:
            self._putters.appendleft(ev)
        return ev

    def get(self) -> StoreGet:
        ev = StoreGet(self.env)
        if self.items:
            ev._value = self.items.popleft()
            ev._state = _PROCESSED
            self._admit_putters()
        else:
            self._getters.append(ev)
        return ev

    def try_get(self) -> Optional[Any]:
        """Non-blocking pop; None when empty."""
        if not self.items:
            return None
        item = self.items.popleft()
        self._admit_putters()
        return item

    def _wake_getters(self) -> None:
        while self._getters and self.items:
            getter = self._getters.popleft()
            if getter.triggered:
                continue
            getter.succeed(self.items.popleft())

    def _admit_putters(self) -> None:
        while self._putters and len(self.items) < self.capacity:
            putter = self._putters.popleft()
            if putter.triggered:
                continue
            self.items.append(putter.item)
            putter.succeed()
            self._wake_getters()
