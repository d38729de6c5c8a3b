"""Unit tests for Resource / Store."""

import pytest

from repro.sim import Environment, Resource, Store


def test_resource_capacity_one_serializes():
    env = Environment()
    log = []

    def worker(res, tag, hold):
        with res.request() as req:
            yield req
            log.append((tag, "in", env.now))
            yield env.timeout_us(hold)
        log.append((tag, "out", env.now))

    res = Resource(env, capacity=1)
    env.process(worker(res, "a", 2_000_000))
    env.process(worker(res, "b", 1_000_000))
    env.run()
    assert log == [
        ("a", "in", 0.0),
        ("a", "out", 2.0),
        ("b", "in", 2.0),
        ("b", "out", 3.0),
    ]


def test_resource_capacity_two_overlaps():
    env = Environment()
    done = []

    def worker(res):
        with res.request() as req:
            yield req
            yield env.timeout_us(1_000_000)
        done.append(env.now)

    res = Resource(env, capacity=2)
    for _ in range(4):
        env.process(worker(res))
    env.run()
    assert done == [1.0, 1.0, 2.0, 2.0]


def test_resource_invalid_capacity():
    env = Environment()
    with pytest.raises(ValueError):
        Resource(env, capacity=0)


@pytest.mark.parametrize("capacity", [1, 4])  # 4: the SSD's channel count
def test_resource_orders_queue_by_priority_then_arrival(capacity):
    env = Environment()
    order = []

    def holder(res):
        with res.request() as req:
            yield req
            yield env.timeout_us(5_000_000)

    def worker(res, tag, prio, delay):
        yield env.timeout_us(delay)
        with res.request(priority=prio) as req:
            yield req
            order.append(tag)

    res = Resource(env, capacity=capacity)
    for _ in range(capacity):
        env.process(holder(res))
    env.process(worker(res, "bg", 10, 1_000_000))
    env.process(worker(res, "fg", 0, 2_000_000))  # arrives later, higher priority
    env.process(worker(res, "bg2", 10, 3_000_000))  # ties with bg: FIFO
    env.process(worker(res, "fg2", 0, 4_000_000))
    env.run()
    assert order == ["fg", "fg2", "bg", "bg2"]


def test_request_cancel_releases_queue_slot():
    env = Environment()
    got = []

    def holder(res):
        with res.request() as req:
            yield req
            yield env.timeout_us(3_000_000)

    def canceller(res):
        yield env.timeout_us(1_000_000)
        req = res.request()
        req.cancel()

    def worker(res):
        yield env.timeout_us(2_000_000)
        with res.request() as req:
            yield req
            got.append(env.now)

    res = Resource(env, capacity=1)
    env.process(holder(res))
    env.process(canceller(res))
    env.process(worker(res))
    env.run()
    assert got == [3.0]


def test_store_fifo_order():
    env = Environment()
    got = []

    def producer(store):
        for i in range(3):
            yield env.timeout_us(1_000_000)
            store.put(i)

    def consumer(store):
        for _ in range(3):
            item = yield store.get()
            got.append((item, env.now))

    store = Store(env)
    env.process(producer(store))
    env.process(consumer(store))
    env.run()
    assert got == [(0, 1.0), (1, 2.0), (2, 3.0)]


def test_store_get_blocks_until_put():
    env = Environment()
    got = []

    def consumer(store):
        item = yield store.get()
        got.append((item, env.now))

    def producer(store):
        yield env.timeout_us(4_000_000)
        store.put("x")

    store = Store(env)
    env.process(consumer(store))
    env.process(producer(store))
    env.run()
    assert got == [("x", 4.0)]


def test_store_bounded_capacity_blocks_put():
    env = Environment()
    events = []

    def producer(store):
        for i in range(3):
            yield store.put(i)
            events.append(("put", i, env.now))

    def consumer(store):
        yield env.timeout_us(2_000_000)
        item = yield store.get()
        events.append(("got", item, env.now))

    store = Store(env, capacity=2)
    env.process(producer(store))
    env.process(consumer(store))
    env.run()
    assert ("put", 2, 2.0) in events  # third put waited for the get


def test_store_try_get():
    env = Environment()
    store = Store(env)
    assert store.try_get() is None
    store.put(7)
    env.run()
    assert store.try_get() == 7


def test_store_invalid_capacity():
    env = Environment()
    with pytest.raises(ValueError):
        Store(env, capacity=0)
