"""Unit tests for the FIFO log pool: rotation, backpressure, read cache."""

import numpy as np
import pytest

from repro.common.errors import ConfigError
from repro.core.intervals import MergePolicy
from repro.core.logpool import LogPool
from repro.core.logunit import LogUnitState
from repro.sim import Environment


def _pool(env, unit_size=1000, min_units=1, max_units=2, merge=True):
    return LogPool(
        env, "p0", unit_size, MergePolicy.OVERWRITE,
        min_units=min_units, max_units=max_units, block_size=1 << 16,
        merge=merge,
    )


def _bytes(n, fill=1):
    return np.full(n, fill, dtype=np.uint8)


def _run_append(env, pool, block, offset, data):
    proc = env.process(pool.append(block, offset, data))
    env.run(proc)


def test_append_fills_active_unit():
    env = Environment()
    pool = _pool(env)
    _run_append(env, pool, "blk", 0, _bytes(400))
    assert pool.active.used == 400
    assert pool.appends == 1
    assert pool.append_bytes == 400


def test_rotation_seals_full_unit():
    env = Environment()
    pool = _pool(env)
    _run_append(env, pool, "blk", 0, _bytes(800))
    _run_append(env, pool, "blk", 800, _bytes(800))  # doesn't fit: rotate
    assert pool.n_units == 2
    assert len(pool.recyclable) == 1
    sealed = pool.recyclable.items[0]
    assert sealed.state is LogUnitState.RECYCLABLE


def test_record_larger_than_unit_rejected():
    env = Environment()
    pool = _pool(env, unit_size=100)
    with pytest.raises(ConfigError):
        env.run(env.process(pool.append("blk", 0, _bytes(200))))


def test_quota_backpressure_stalls_appends():
    env = Environment()
    pool = _pool(env, unit_size=1000, max_units=1)
    done = []

    def appender():
        yield from pool.append("blk", 0, _bytes(900))
        yield from pool.append("blk", 1000, _bytes(900))  # must stall
        done.append(env.now)

    def recycler():
        unit = yield pool.recyclable.get()
        unit.start_recycle(env.now)
        yield env.timeout_us(5_000_000)  # slow recycle
        pool.unit_recycled(unit)

    env.process(appender())
    env.process(recycler())
    env.run()
    assert done == [pytest.approx(5.0)]
    assert pool.stalls == 1
    assert pool.stall_time == pytest.approx(5.0)


def test_recycled_unit_is_reused_fifo():
    env = Environment()
    pool = _pool(env, unit_size=100, max_units=2)

    def flow():
        yield from pool.append("a", 0, _bytes(90))
        yield from pool.append("b", 0, _bytes(90))  # rotates; unit0 sealed
        unit = yield pool.recyclable.get()
        unit.start_recycle(env.now)
        pool.unit_recycled(unit)
        yield from pool.append("c", 0, _bytes(90))  # rotates; reuses unit0
        assert pool.n_units == 2  # no third unit allocated

    env.run(env.process(flow()))


def test_read_cache_hits_newest_first():
    env = Environment()
    pool = _pool(env, unit_size=100, max_units=4)
    _run_append(env, pool, "blk", 0, _bytes(90, fill=1))
    _run_append(env, pool, "blk", 0, _bytes(90, fill=2))  # new unit
    hit = pool.lookup("blk", 0, 90)
    assert hit is not None and hit[0] == 2
    assert pool.cache_hits == 1


def test_newest_unit_holding_any_byte_decides_the_read():
    """An older unit holds the whole range and a newer one only part of it:
    the older unit's copy is stale where the newer one overlaps, so the
    lookup must miss and the overlay must return the newer bytes."""
    env = Environment()
    pool = _pool(env, unit_size=100, max_units=4)
    _run_append(env, pool, "blk", 0, _bytes(90, fill=1))
    _run_append(env, pool, "blk", 40, _bytes(20, fill=2))  # new unit
    assert pool.n_units == 2
    assert pool.lookup("blk", 0, 90) is None
    want = np.full(90, 1, dtype=np.uint8)
    want[40:60] = 2
    buf = pool.overlay("blk", 0, 90, np.zeros(90, dtype=np.uint8))
    assert np.array_equal(buf, want)
    # the newer unit covers this range alone; the older one only elsewhere
    assert np.array_equal(pool.lookup("blk", 45, 10), np.full(10, 2, np.uint8))
    assert np.array_equal(pool.lookup("blk", 0, 30), np.full(30, 1, np.uint8))
    assert (pool.cache_hits, pool.cache_misses) == (2, 1)


def test_read_cache_includes_recycled_units():
    env = Environment()
    pool = _pool(env, unit_size=100, max_units=2)

    def flow():
        yield from pool.append("blk", 0, _bytes(90, fill=7))
        yield from pool.append("other", 0, _bytes(90))  # seals unit 0
        unit = yield pool.recyclable.get()
        unit.start_recycle(env.now)
        pool.unit_recycled(unit)
        # unit 0 is RECYCLED but retains its index: still a cache
        hit = pool.lookup("blk", 0, 90)
        assert hit is not None and hit[0] == 7

    env.run(env.process(flow()))


def test_lookup_miss_counts():
    env = Environment()
    pool = _pool(env)
    assert pool.lookup("nope", 0, 10) is None
    assert pool.cache_misses == 1


def test_overlay_applies_log_bytes():
    env = Environment()
    pool = _pool(env)
    _run_append(env, pool, "blk", 10, _bytes(5, fill=9))
    buf = np.zeros(20, dtype=np.uint8)
    pool.overlay("blk", 0, 20, buf)
    assert (buf[10:15] == 9).all()
    assert (buf[:10] == 0).all()


def test_memory_and_backlog_accounting():
    env = Environment()
    pool = _pool(env, unit_size=100, max_units=3)
    _run_append(env, pool, "a", 0, _bytes(90))
    _run_append(env, pool, "b", 0, _bytes(90))
    _run_append(env, pool, "c", 0, _bytes(90))
    assert pool.n_units == 3
    assert pool.memory_bytes == 300
    assert pool.backlog == 2
    assert pool.peak_units == 3


def test_residence_recorded_on_recycle():
    env = Environment()
    pool = _pool(env, unit_size=100)

    def flow():
        yield from pool.append("a", 0, _bytes(90))
        yield env.timeout_us(2_000_000)
        yield from pool.append("b", 0, _bytes(90))  # seal at t=2
        unit = yield pool.recyclable.get()
        unit.start_recycle(env.now)
        yield env.timeout_us(1_000_000)
        pool.unit_recycled(unit)

    env.run(env.process(flow()))
    assert len(pool.residence) == 1
    buffer_s, recycle_s = pool.residence[0]
    assert buffer_s == pytest.approx(2.0)
    assert recycle_s == pytest.approx(1.0)


def test_bad_quota_rejected():
    env = Environment()
    with pytest.raises(ConfigError):
        _pool(env, min_units=3, max_units=2)
