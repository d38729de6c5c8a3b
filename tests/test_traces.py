"""Tests for trace generation: records, locality, statistical fidelity."""

import ast
import pathlib
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.traces import (
    LocalityModel,
    MSR_VOLUMES,
    TraceRecord,
    alicloud_spec,
    generate_trace,
    msr_spec,
    tencloud_spec,
    trace_statistics,
)
from repro.traces.synthetic import SyntheticTraceSpec

_MB = 1 << 20


def test_record_validation():
    with pytest.raises(ValueError):
        TraceRecord("bogus", 1, 0, 4096)
    with pytest.raises(ValueError):
        TraceRecord("read", 1, 0, 0)
    with pytest.raises(ValueError):
        TraceRecord("read", 1, -1, 4096)


def test_record_is_an_immutable_value():
    rec = TraceRecord("update", 1, 8192, 4096)
    assert rec == TraceRecord(op="update", file_id=1, offset=8192, size=4096)
    assert hash(rec) == hash(TraceRecord("update", 1, 8192, 4096))
    assert rec != TraceRecord("read", 1, 8192, 4096)
    assert len({rec, TraceRecord("update", 1, 8192, 4096)}) == 1
    assert (rec.op, rec.file_id, rec.offset, rec.size) == ("update", 1, 8192, 4096)
    assert repr(rec) == "TraceRecord(op='update', file_id=1, offset=8192, size=4096)"
    for name in ("op", "file_id", "offset", "size", "other"):
        with pytest.raises(AttributeError):
            setattr(rec, name, 0)
    assert rec.size == 4096


def test_record_has_no_first_write_op():
    """Every trace is replayed onto pre-written files, so no record is a
    first write.  A "write" record would be an update to the closed-loop
    replayer and a read to the open-loop one: it is refused instead."""
    with pytest.raises(ValueError, match="unknown op 'write'"):
        TraceRecord(op="write", file_id=1, offset=0, size=4096)


def test_closed_loop_replay_counts_each_record_as_its_op():
    from repro.cluster import ClusterConfig, ECFS
    from repro.traces.replayer import TraceReplayer

    ecfs = ECFS(ClusterConfig(n_osds=10, k=4, m=2, block_size=1 << 16), method="tsue")
    (fid,) = ecfs.populate(n_files=1, stripes_per_file=1, fill="random")
    ops = ["update", "read", "update", "update", "read"]
    records = [TraceRecord(op, fid, i * 8192, 4096) for i, op in enumerate(ops)]
    result = TraceReplayer(ecfs, records).run(n_clients=2)
    assert (result.updates, result.reads, result.ops_issued) == (3, 2, 5)
    ecfs.drain()
    assert ecfs.verify() == 1


def test_spec_probabilities_must_sum_to_one():
    with pytest.raises(ValueError):
        SyntheticTraceSpec("x", 0.5, ((4096, 0.5), (8192, 0.4)))


def test_spec_sizes_must_be_4k_multiples():
    with pytest.raises(ValueError):
        SyntheticTraceSpec("x", 0.5, ((1000, 1.0),))


def test_alicloud_statistics_match_published():
    spec = alicloud_spec()
    trace = generate_trace(spec, 8000, [1, 2], 64 * _MB, seed=0)
    stats = trace_statistics(trace)
    assert stats["update_ratio"] == pytest.approx(0.75, abs=0.03)
    assert stats["p_4k"] == pytest.approx(0.46, abs=0.03)
    assert stats["p_le_16k"] == pytest.approx(0.60, abs=0.03)


def test_tencloud_statistics_match_published():
    spec = tencloud_spec()
    trace = generate_trace(spec, 8000, [1], 64 * _MB, seed=1)
    stats = trace_statistics(trace)
    assert stats["update_ratio"] == pytest.approx(0.69, abs=0.03)
    assert stats["p_4k"] == pytest.approx(0.69, abs=0.03)
    assert stats["p_le_16k"] == pytest.approx(0.88, abs=0.03)


def test_tencloud_locality_stronger_than_alicloud():
    """Ten-Cloud touches a much smaller fraction of its space (§2.3.3)."""
    ten = trace_statistics(
        generate_trace(tencloud_spec(), 5000, [1], 64 * _MB, seed=2)
    )
    ali = trace_statistics(
        generate_trace(alicloud_spec(), 5000, [1], 64 * _MB, seed=2)
    )
    assert ten["footprint_fraction"] < ali["footprint_fraction"]


def test_all_msr_volumes_generate():
    for vol in MSR_VOLUMES:
        spec = msr_spec(vol)
        trace = generate_trace(spec, 500, [1], 16 * _MB, seed=3)
        stats = trace_statistics(trace)
        assert stats["update_ratio"] == pytest.approx(
            MSR_VOLUMES[vol][0], abs=0.08
        )


def test_msr_unknown_volume():
    with pytest.raises(KeyError):
        msr_spec("nope")


def test_generate_requires_files():
    with pytest.raises(ValueError):
        generate_trace(alicloud_spec(), 10, [], 16 * _MB)


def test_generation_is_deterministic():
    a = generate_trace(tencloud_spec(), 200, [1, 2], 16 * _MB, seed=42)
    b = generate_trace(tencloud_spec(), 200, [1, 2], 16 * _MB, seed=42)
    assert a == b
    c = generate_trace(tencloud_spec(), 200, [1, 2], 16 * _MB, seed=43)
    assert a != c


def test_records_stay_in_bounds():
    trace = generate_trace(alicloud_spec(), 2000, [1], 8 * _MB, seed=5)
    for rec in trace:
        assert 0 <= rec.offset
        assert rec.offset + rec.size <= 8 * _MB


# ------------------------------------------------------------- locality
def _pages_touched(model: LocalityModel, samples: int) -> int:
    return len({off // 4096 for off in model.offsets([4096] * samples)})


def test_locality_zipf_concentrates_accesses():
    hot = LocalityModel(file_bytes=64 * _MB, zipf_a=1.4, working_set=0.05, seed=0)
    cold = LocalityModel(file_bytes=64 * _MB, zipf_a=0.6, working_set=0.8, seed=0)
    assert _pages_touched(hot, 3000) < _pages_touched(cold, 3000)


def test_locality_sequential_runs():
    loc = LocalityModel(file_bytes=_MB, p_run=0.99, seed=1)
    offsets = loc.offsets([4096] * 50)
    diffs = [b - a for a, b in zip(offsets, offsets[1:])]
    assert diffs.count(4096) >= 40  # almost always continues the run


def test_locality_validation():
    with pytest.raises(ValueError):
        LocalityModel(file_bytes=100)
    with pytest.raises(ValueError):
        LocalityModel(file_bytes=_MB, working_set=0)
    with pytest.raises(ValueError):
        LocalityModel(file_bytes=_MB, p_run=1.0)
    # ``choice`` rejected a NaN distribution on every draw; a CDF search
    # over one would return an out-of-range rank, so construction rejects it
    for zipf_a in (float("nan"), float("-inf"), -400.0):
        with pytest.raises(ValueError):
            LocalityModel(file_bytes=_MB, zipf_a=zipf_a)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2**31))
def test_locality_offsets_always_valid(seed):
    loc = LocalityModel(file_bytes=4 * _MB, seed=seed)
    sizes = [4096, 65536, 4 * _MB]
    for size, off in zip(sizes, loc.offsets(sizes)):
        assert 0 <= off <= 4 * _MB - size


# ------------------------------------------------- reference equivalence
_PAGE = 4096


@dataclass
class _ReferenceLocality:
    """``LocalityModel`` as it drew before its CDF was built once: one
    ``Generator.choice(n, p=probs)`` per hot-set access."""

    file_bytes: int
    zipf_a: float = 1.1
    working_set: float = 0.2
    p_run: float = 0.3
    seed: int = 0

    def __post_init__(self) -> None:
        self._rng = np.random.default_rng(self.seed)
        self.n_pages = self.file_bytes // _PAGE
        hot_pages = max(1, int(self.n_pages * self.working_set))
        ranks = np.arange(1, hot_pages + 1, dtype=np.float64)
        weights = ranks ** (-self.zipf_a)
        self._probs = weights / weights.sum()
        self._page_of_rank = self._rng.permutation(self.n_pages)[:hot_pages]
        self._last_end = 0

    def next_offset(self, size: int) -> int:
        limit = self.file_bytes - size
        if limit <= 0:
            return 0
        if self._last_end and self._rng.random() < self.p_run:
            offset = min(self._last_end, limit)
        else:
            rank = self._rng.choice(len(self._probs), p=self._probs)
            offset = int(self._page_of_rank[rank]) * _PAGE
            offset = min(offset, limit)
        self._last_end = offset + size
        return offset


def _reference_trace(spec, n_ops, file_ids, file_bytes, seed):
    """``generate_trace``'s loop as it was: numpy scalars indexed per op."""
    rng = np.random.default_rng(seed)
    sizes = np.array([s for s, _p in spec.size_buckets])
    probs = np.array([p for _s, p in spec.size_buckets])
    localities = {
        fid: _ReferenceLocality(
            file_bytes=file_bytes,
            zipf_a=spec.zipf_a,
            working_set=spec.working_set,
            p_run=spec.p_run,
            seed=int(rng.integers(0, 2**31)) ^ fid,
        )
        for fid in file_ids
    }
    ops = rng.random(n_ops) < spec.update_ratio
    size_draws = rng.choice(sizes, size=n_ops, p=probs)
    file_draws = rng.choice(np.asarray(file_ids), size=n_ops)
    out = []
    for i in range(n_ops):
        fid = int(file_draws[i])
        size = int(size_draws[i])
        offset = localities[fid].next_offset(size)
        out.append(
            TraceRecord(
                op="update" if ops[i] else "read",
                file_id=fid,
                offset=offset,
                size=size,
            )
        )
    return out


@st.composite
def _model_and_sizes(draw):
    file_bytes = draw(st.integers(min_value=_PAGE, max_value=64 * _MB))
    pages = st.integers(min_value=1, max_value=256).map(lambda n: n * _PAGE)
    whole = st.integers(min_value=file_bytes, max_value=2 * file_bytes)
    sizes = draw(st.lists(st.one_of(pages, whole), min_size=1, max_size=60))
    params = dict(
        file_bytes=file_bytes,
        zipf_a=draw(st.floats(min_value=-1.0, max_value=4.0)),
        working_set=draw(st.floats(min_value=1e-6, max_value=1.0)),
        p_run=draw(st.floats(min_value=0.0, max_value=0.99)),
        seed=draw(st.integers(min_value=0, max_value=2**32 - 1)),
    )
    return params, sizes


@settings(max_examples=150, deadline=None)
@given(_model_and_sizes(), st.data())
def test_locality_batch_matches_per_access_choice(case, data):
    """One ``offsets`` batch draws what per-access ``Generator.choice(n,
    p=probs)`` drew: the same offset for every access, and the same
    generator state after the last one, buffered 32-bit half included (an
    access at or above the file size draws nothing).  The batch may be cut
    in two, and a 32-bit draw may leave a half buffered before it."""
    params, sizes = case
    model, ref = LocalityModel(**params), _ReferenceLocality(**params)
    if data.draw(st.booleans(), label="buffered"):
        for rng in (model._rng, ref._rng):
            rng.integers(0, 2**32, dtype=np.uint32)
    cut = data.draw(st.integers(min_value=0, max_value=len(sizes)), label="cut")
    got = model.offsets(sizes[:cut]) + model.offsets(sizes[cut:])
    assert got == [ref.next_offset(size) for size in sizes]
    assert model._rng.bit_generator.state == ref._rng.bit_generator.state


def test_locality_rewind_keeps_the_buffered_half():
    """``advance`` clears PCG64's buffered 32-bit half; the rewind of the
    unused doubles puts it back, so the next 32-bit draw is unchanged."""
    model = LocalityModel(file_bytes=_MB, seed=3)
    ref = _ReferenceLocality(file_bytes=_MB, seed=3)
    for rng in (model._rng, ref._rng):
        rng.integers(0, 2**32, dtype=np.uint32)
    assert model._rng.bit_generator.state["has_uint32"] == 1
    assert model.offsets([4096] * 40) == [ref.next_offset(4096) for _ in range(40)]
    assert model._rng.bit_generator.state == ref._rng.bit_generator.state
    nxt = [rng.integers(0, 2**32, dtype=np.uint32) for rng in (model._rng, ref._rng)]
    assert nxt[0] == nxt[1]


@pytest.mark.parametrize("seed", [2025, 7])
@pytest.mark.parametrize(
    "spec", [tencloud_spec(), alicloud_spec(), msr_spec("hm0")], ids=lambda s: s.name
)
def test_generate_trace_matches_reference(spec, seed):
    args = (spec, 3000, [1, 2, 3], 16 * _MB, seed)
    assert generate_trace(*args) == _reference_trace(*args)


def _scalar_weighted_choices(tree: ast.AST) -> list[int]:
    """Line of every ``.choice(...)`` call in ``tree`` that passes ``p`` and
    no ``size`` (positional or by keyword; a literal ``None`` is no size):
    a scalar weighted draw, which re-validates and re-sums ``p`` each call."""
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or getattr(node.func, "attr", None) != "choice":
            continue
        given = dict(zip(("a", "size", "replace", "p"), node.args))
        given.update((kw.arg, kw.value) for kw in node.keywords)
        size = given.get("size")
        if "p" in given and (size is None or getattr(size, "value", 0) is None):
            lines.append(node.lineno)
    return lines


def test_no_scalar_weighted_choice_in_src():
    """A per-draw weighted ``choice`` is the trace generator's old cost;
    ``LocalityModel`` builds its CDF once and searches it instead."""
    src = pathlib.Path(repro.__file__).parent
    draws = [
        f"{path.relative_to(src)}:{line}"
        for path in sorted(src.rglob("*.py"))
        for line in _scalar_weighted_choices(ast.parse(path.read_text(), str(path)))
    ]
    assert not draws, draws
    for call in (
        "rng.choice(n, p=probs)",
        "rng.choice(a=n, p=probs)",
        "rng.choice(n, size=None, p=probs)",
        "rng.choice(n, None, True, probs)",
    ):
        assert _scalar_weighted_choices(ast.parse(call)), call  # sees each spelling
    for call in (
        "rng.choice(sizes, size=n, p=probs)",
        "rng.choice(sizes, n, p=probs)",
        "rng.choice(file_ids, size=n)",
        "rng.choice(n)",
    ):
        assert not _scalar_weighted_choices(ast.parse(call)), call


def test_statistics_empty_trace():
    stats = trace_statistics([])
    assert stats["n_ops"] == 0
