"""Parallel sweep executor with a content-addressed result cache.

Every cell of a paper figure/table is an independent, deterministic
simulation — a pure function of its :class:`ExperimentConfig` (or scenario
name + seed).  :class:`SweepExecutor` exploits both properties:

* **parallelism** — independent cells fan out across a process pool
  (``workers`` > 1); a single-worker executor runs them serially in
  process, byte-identical to calling :func:`run_experiment` in a loop;
* **content-addressed caching** — a cell's result is stored under the
  SHA-256 of its canonical config serialization, so re-running a sweep
  (or sharing cells between figures) pays only for cells never seen.

Cache invalidation: the key hashes the *config*, not the code.  Any change
to the engine or cluster model that alters results must bump
:data:`CACHE_SCHEMA` (or the operator clears the cache directory).  The
cache is opt-in — no ``cache_dir`` (and no ``REPRO_CACHE_DIR``) means
every cell runs.  CI persists the cache between runs via ``actions/cache``
keyed on :data:`CACHE_SCHEMA`, so only never-seen cells pay.

Fault isolation: with ``workers > 1`` cells run in child processes —
several short cells batched per child to amortize interpreter start-up —
with an optional per-cell ``cell_timeout``.  A cell that hangs is
terminated, a cell that dies is collected, and either is retried once
(``retries``, individually — the rest of its batch is requeued unharmed);
a cell that still fails becomes a :class:`CellFailure` in the result list
(``strict=False``) or raises after the whole sweep drained (``strict``,
the default) — the pool itself never wedges.  On a single-CPU host the
pool cannot beat serial (it only adds fork + pickle overhead and loses
the in-process prefix memos), so the executor falls back to serial there
unless a ``cell_timeout`` needs enforcing — only a child process can be
killed at a deadline.

Prefix sharing: cells that agree on geometry + seed also share their
populate/trace *prefixes* through the in-process content-addressed memos
of :mod:`repro.harness.prefix` (the PR-2 deferred item) — a scenario x
seed grid populates each distinct (geometry, seed) once per worker, not
once per cell.

Environment knobs: ``REPRO_WORKERS`` (default worker count),
``REPRO_CACHE_DIR`` (default cache directory), ``REPRO_CELL_TIMEOUT``
(default per-cell timeout, seconds), ``REPRO_PREFIX_CACHE=0`` (disable
prefix sharing).
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import pickle
import time
from collections import deque
from dataclasses import dataclass, fields
from multiprocessing.connection import wait as _conn_wait
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from repro.fault.digest import canonical as _canonical
from repro.harness.runner import ExperimentConfig, ExperimentResult, run_experiment

if TYPE_CHECKING:  # pragma: no cover
    from repro.fault.runner import ScenarioResult

__all__ = [
    "CACHE_SCHEMA",
    "CellFailure",
    "SweepStats",
    "SweepExecutor",
    "config_key",
    "scenario_cells",
    "scenario_key",
    "run_cells",
    "run_grid",
]

#: bump when a code change alters simulation results (engine semantics,
#: cost model, trace generation) — cached cells from older schemas are
#: then unreachable and simply re-run.
#: 2: epoch-aware placement (digests gained an epoch field; clients chase
#:    mid-flight re-homes; rebuild targets avoid actual homes)
#: 3: front-end subsystem (ScenarioResult gained slo/slo_series/
#:    frontend_stats fields — schema-2 pickles would unpickle without
#:    them; degraded reads skip unreachable sources)
#: 4: unified background scheduler (ScenarioResult gained slo_overall/
#:    background/governor fields; deadline-abandoned read legs are now
#:    cancelled, shifting slo-* digest VALUES; scrub grants per stripe)
#: 5: crash-safe rebalance (block moves settle or ship pending log
#:    content instead of blocking on whole-cluster drains — topo-* digest
#:    VALUES shift; recovery flushes bypass governed recycle pacing,
#:    reordering background grants)
#: 6: integer-microsecond event core (service/wire times round onto the
#:    µs grid, shifting every latency and therefore digest VALUES;
#:    cached cells from the float-time engine must not be replayed)
#: 7: TSUE log pools built on first append (no recycler Initialize events
#:    at t = 0: digests unchanged, but cached cells carry perf["events"])
CACHE_SCHEMA = 7


def config_key(cfg: ExperimentConfig) -> str:
    """Content address of one experiment cell."""
    payload = {f.name: getattr(cfg, f.name) for f in fields(cfg)}
    payload["__schema__"] = CACHE_SCHEMA
    payload["__kind__"] = "experiment"
    return hashlib.sha256(_canonical(payload).encode()).hexdigest()


def scenario_cells(names: Iterable[str], seeds: Iterable[int]) -> list[tuple[str, int]]:
    """The (name, seed) cell order :meth:`SweepExecutor.run_scenarios`
    runs and returns results in (row-major: all seeds per name).  Callers
    labelling the flat result list (e.g. ``repro sweep --table``) must use
    this, not a hand-rolled comprehension, so labels can never desync."""
    return [(name, int(seed)) for name in names for seed in seeds]


def scenario_key(name: str, seed: int) -> str:
    """Content address of one fault-scenario cell."""
    payload = {
        "__schema__": CACHE_SCHEMA,
        "__kind__": "scenario",
        "name": name,
        "seed": int(seed),
    }
    return hashlib.sha256(_canonical(payload).encode()).hexdigest()


# ---------------------------------------------------------------- workers
# Module-level so they pickle into pool workers.

def _experiment_cell(cfg: ExperimentConfig) -> ExperimentResult:
    return run_experiment(cfg)  # keep_cluster=False: results must pickle


def _scenario_cell(args: tuple[str, int]) -> "ScenarioResult":
    from repro.fault.runner import ScenarioRunner
    from repro.fault.scenarios import get_scenario

    name, seed = args
    return ScenarioRunner(get_scenario(name)).run(seed=seed)


def _batch_entry(worker, batch, conn) -> None:  # pragma: no cover - child proc
    """Child-process entry: run a batch of cells in order, streaming one
    outcome per cell over the pipe (so a mid-batch death loses nothing
    already finished)."""
    try:
        for cell in batch:
            try:
                conn.send(("ok", worker(cell)))
            except BaseException as exc:  # noqa: BLE001 - parent decides
                conn.send(("err", f"{type(exc).__name__}: {exc}"))
    except Exception:
        pass  # pipe gone: the parent already gave up on this child
    finally:
        conn.close()


@dataclass
class CellFailure:
    """A sweep cell that hung or died through every retry (``strict=False``
    sweeps report these in place of results instead of raising)."""

    key: str
    error: str
    attempts: int

    def __repr__(self) -> str:  # keeps CLI tables readable
        return f"<failed cell {self.key[:12]}: {self.error} ({self.attempts} attempts)>"


@dataclass
class SweepStats:
    """Accounting for the executor's last sweep."""

    cells: int = 0
    cache_hits: int = 0
    workers: int = 1
    wall_seconds: float = 0.0
    retried: int = 0
    timeouts: int = 0
    failed: int = 0


class SweepExecutor:
    """Fan independent sweep cells across a process pool, with caching."""

    def __init__(
        self,
        workers: Optional[int] = None,
        cache_dir: Optional[str] = None,
        cell_timeout: Optional[float] = None,
        retries: int = 1,
        strict: bool = True,
    ) -> None:
        if workers is None:
            workers = int(os.environ.get("REPRO_WORKERS", "1"))
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        if cache_dir is None:
            cache_dir = os.environ.get("REPRO_CACHE_DIR") or None
        self.cache_dir = cache_dir
        if cell_timeout is None:
            env_timeout = os.environ.get("REPRO_CELL_TIMEOUT")
            cell_timeout = float(env_timeout) if env_timeout else None
        if cell_timeout is not None and cell_timeout <= 0:
            raise ValueError("cell_timeout must be positive (or None)")
        if retries < 0:
            raise ValueError("retries must be >= 0")
        self.cell_timeout = cell_timeout
        self.retries = retries
        self.strict = strict
        self.stats = SweepStats(workers=workers)

    # ------------------------------------------------------------- running
    def run(self, cfgs: Sequence[ExperimentConfig]) -> list[ExperimentResult]:
        """Run every config; results are in input order.

        Parallel and serial execution produce equal results: each cell is a
        deterministic single-process simulation either way (asserted by the
        test suite).
        """
        return self._run([config_key(c) for c in cfgs], list(cfgs), _experiment_cell)

    def run_scenarios(
        self, names: Iterable[str], seeds: Iterable[int]
    ) -> list["ScenarioResult"]:
        """Run the scenario × seed grid; results follow
        :func:`scenario_cells` order."""
        cells = scenario_cells(list(names), list(seeds))
        keys = [scenario_key(name, seed) for name, seed in cells]
        return self._run(keys, cells, _scenario_cell)

    def _run(self, keys: list[str], cells: list, worker) -> list:
        t0 = time.perf_counter()
        self.stats = SweepStats(workers=self.workers)
        self.stats.cells = len(cells)
        results: list = [None] * len(cells)
        misses: list[int] = []
        for i, key in enumerate(keys):
            hit = self._cache_load(key)
            if hit is not None:
                results[i] = hit
                self.stats.cache_hits += 1
            else:
                misses.append(i)

        if misses:
            # a process pool needs >1 cell to win and >1 CPU to run on; a
            # single-core host goes serial (keeping the in-process prefix
            # memos warm) — unless a cell_timeout must be enforced, which
            # only a killable child process can honor
            pool = self.workers > 1 and len(misses) > 1 and (
                (os.cpu_count() or 1) > 1 or self.cell_timeout is not None
            )
            if pool:
                self._run_pool(keys, cells, worker, misses, results)
            else:
                self._run_serial(keys, cells, worker, misses, results)
            for i in misses:
                if not isinstance(results[i], CellFailure):
                    self._cache_store(keys[i], results[i])

        failures = [r for r in results if isinstance(r, CellFailure)]
        self.stats.failed = len(failures)
        self.stats.wall_seconds = time.perf_counter() - t0
        if failures and self.strict:
            detail = "; ".join(f.error for f in failures[:3])
            raise RuntimeError(
                f"{len(failures)} sweep cell(s) failed after retries: {detail}"
            )
        return results

    def _run_serial(self, keys, cells, worker, misses, results) -> None:
        """In-process execution (workers == 1, a single miss, or a 1-CPU
        host with no timeout to enforce): byte-identical to a plain loop;
        dead cells retry, hangs are not interruptible in-process (set a
        cell_timeout with workers > 1 for timeout enforcement)."""
        for i in misses:
            for attempt in range(self.retries + 1):
                try:
                    results[i] = worker(cells[i])
                    break
                except Exception as exc:  # noqa: BLE001 - isolate the cell
                    if attempt < self.retries:
                        self.stats.retried += 1
                        continue
                    results[i] = CellFailure(
                        key=keys[i],
                        error=f"{type(exc).__name__}: {exc}",
                        attempts=attempt + 1,
                    )

    def _run_pool(self, keys, cells, worker, misses, results) -> None:
        """Batched children, at most ``workers`` alive at once.

        Short cells are batched several per child (about two batches per
        worker, for load balance) so interpreter start-up amortizes;
        children stream one outcome per cell.  ``cell_timeout`` applies
        per cell — the deadline resets as each outcome arrives.  A cell
        that times out or kills its child is charged the attempt and
        requeued (until its retry budget is spent, then it lands as a
        :class:`CellFailure`); the *rest* of its batch never ran, so those
        cells requeue individually at no attempt cost — a bad cell can
        never wedge or fail the rest of the sweep.
        """
        batch_size = max(1, -(-len(misses) // (self.workers * 2)))
        pending = deque(
            [(i, 0) for i in misses[b : b + batch_size]]
            for b in range(0, len(misses), batch_size)
        )
        # conn -> [batch, cursor, process, deadline]  (mutable: cursor and
        # deadline advance as the child streams outcomes)
        running: dict = {}

        def finish(i: int, attempt: int, error: Optional[str]) -> None:
            if error is None:
                return
            if attempt < self.retries:
                self.stats.retried += 1
                pending.append([(i, attempt + 1)])
            else:
                results[i] = CellFailure(
                    key=keys[i], error=error, attempts=attempt + 1
                )

        def requeue_rest(batch, cursor) -> None:
            """Cells behind a dead/hung one never ran: retry them solo,
            without charging an attempt."""
            for i, attempt in batch[cursor:]:
                pending.append([(i, attempt)])

        while pending or running:
            while pending and len(running) < self.workers:
                batch = pending.popleft()
                recv, send = multiprocessing.Pipe(duplex=False)
                proc = multiprocessing.Process(
                    target=_batch_entry,
                    args=(worker, [cells[i] for i, _a in batch], send),
                    daemon=True,
                )
                proc.start()
                send.close()
                deadline = (
                    None
                    if self.cell_timeout is None
                    else time.monotonic() + self.cell_timeout
                )
                running[recv] = [batch, 0, proc, deadline]

            deadlines = [d for *_ignored, d in running.values() if d is not None]
            wait_for = (
                max(0.0, min(deadlines) - time.monotonic()) if deadlines else None
            )
            ready = _conn_wait(list(running), timeout=wait_for)
            for conn in ready:
                entry = running[conn]
                batch, cursor, proc, _deadline = entry
                try:
                    status, payload = conn.recv()
                except EOFError:
                    # the child died on the cell at the cursor; the rest of
                    # the batch never started
                    del running[conn]
                    conn.close()
                    proc.join()
                    i, attempt = batch[cursor]
                    finish(i, attempt, f"worker died (exit {proc.exitcode})")
                    requeue_rest(batch, cursor + 1)
                    continue
                i, attempt = batch[cursor]
                entry[1] = cursor + 1
                if status == "ok":
                    results[i] = payload
                else:
                    finish(i, attempt, payload)
                if entry[1] == len(batch):
                    del running[conn]
                    conn.close()
                    proc.join()
                elif self.cell_timeout is not None:
                    # per-cell budget: the clock restarts for the next cell
                    entry[3] = time.monotonic() + self.cell_timeout
            now = time.monotonic()
            for conn, (batch, cursor, proc, deadline) in list(running.items()):
                if deadline is not None and now >= deadline:
                    del running[conn]
                    proc.terminate()
                    proc.join()
                    conn.close()
                    self.stats.timeouts += 1
                    i, attempt = batch[cursor]
                    finish(
                        i, attempt, f"timed out after {self.cell_timeout:g}s"
                    )
                    requeue_rest(batch, cursor + 1)

    # ------------------------------------------------------------- caching
    def _cache_path(self, key: str) -> Optional[str]:
        if not self.cache_dir:
            return None
        return os.path.join(self.cache_dir, f"{key}.pkl")

    def _cache_load(self, key: str):
        path = self._cache_path(key)
        if path is None or not os.path.exists(path):
            return None
        try:
            with open(path, "rb") as fh:
                return pickle.load(fh)
        except Exception:
            return None  # corrupt/partial entry: treat as a miss

    def _cache_store(self, key: str, result) -> None:
        path = self._cache_path(key)
        if path is None or result is None:
            return
        os.makedirs(self.cache_dir, exist_ok=True)
        tmp = f"{path}.tmp.{os.getpid()}"
        try:
            with open(tmp, "wb") as fh:
                pickle.dump(result, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)  # atomic: concurrent writers can't tear
        except Exception:
            try:
                os.unlink(tmp)
            except OSError:
                pass


def run_cells(
    cfgs: Sequence[ExperimentConfig],
    workers: Optional[int] = None,
    cache_dir: Optional[str] = None,
) -> list[ExperimentResult]:
    """One-shot helper for figure/table harnesses: run the cells through a
    :class:`SweepExecutor` (workers/cache from the environment unless
    overridden — serial and uncached by default)."""
    return SweepExecutor(workers=workers, cache_dir=cache_dir).run(cfgs)


def run_grid(
    cells: Sequence[tuple[tuple[str, str], ExperimentConfig]],
    workers: Optional[int] = None,
    cache_dir: Optional[str] = None,
    executor: Optional[SweepExecutor] = None,
) -> dict[str, dict[str, ExperimentResult]]:
    """Run ``((row, col), config)`` cells and assemble the results as
    ``grid[row][col]`` — the shape every figure harness tabulates.  Keeps
    label/result pairing in one place so cell ordering can never
    desynchronize from the assembled table.  Pass ``executor`` to reuse a
    caller-owned one (its ``stats`` then reflect this run)."""
    if executor is None:
        executor = SweepExecutor(workers=workers, cache_dir=cache_dir)
    results = executor.run([cfg for _label, cfg in cells])
    grid: dict[str, dict[str, ExperimentResult]] = {}
    for ((row, col), _cfg), res in zip(cells, results):
        grid.setdefault(row, {})[col] = res
    return grid
