"""Outside-in span tracing: timing wrappers installed from here on the
synchronous public callables of the leaf layers, with ``Environment.run`` as
the root span.

Each call is a span (name, start, duration, id, parent id).  Per-name totals
are always accumulated; the first ``max_spans`` spans are kept in memory and
written out at the end as Chrome-trace JSON.  Self time is a span's duration
minus the part its wrapped children cover.  The root's self time is the
*residual*: the event loop **plus** the generator bodies of ``update``,
``net``, ``storage`` timing and ``frontend``, which cannot be bracketed from
outside (a generator's work is spread over many resumptions).  Generator
entry points therefore get call counts only.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from pathlib import Path

import numpy

#: (module, class, layer key, count bytes moved)
TARGET_CLASSES = (
    ("repro.ec.rs", "RSCode", "ec", True),
    ("repro.storage.blockstore", "BlockStore", "storage.blockstore", True),
    ("repro.storage.wear", "FlashWearModel", "storage.wear", False),
    ("repro.core.logpool", "LogPool", "core.logpool", False),
    ("repro.core.index", "TwoLevelIndex", "core.index", False),
    ("repro.core.intervals", "ExtentMap", "core.index", False),
    ("repro.core.recycler", "RecyclePlanner", "core.recycler", False),
    ("repro.cluster.verify", "GroundTruth", "cluster.oracle", True),
    ("repro.placement.epoch", "PlacementMap", "placement", False),
    ("repro.metrics.collector", "MetricsCollector", "metrics", False),
)
#: (module, layer key): every public function defined in the module
TARGET_MODULES = (("repro.gf.field", "gf"), ("repro.ec.incremental", "ec"))
ROOT = ("repro.sim.core", "Environment", "run")
ROOT_NAME = "sim:Environment.run"
#: generator entry points (and their chain twins): call counts only
COUNTED = {
    "net.transfer_calls": (
        "repro.net.fabric",
        "NetworkFabric",
        ("transfer", "transfer_chain", "transfer_many", "rpc"),
    ),
    "storage.submit_calls": (
        "repro.storage.base",
        "StorageDevice",
        ("submit", "submit_chain", "submit_many"),
    ),
}
UPDATE_BASE = ("repro.update.base", "UpdateMethod")
ALLOCATORS = ("zeros", "empty")


def _nbytes(obj) -> int:
    if isinstance(obj, numpy.ndarray):
        return obj.nbytes
    if isinstance(obj, (list, tuple)):
        return sum(x.nbytes for x in obj if isinstance(x, numpy.ndarray))
    return 0


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


class Tracer:
    def __init__(self, max_spans: int = 20_000) -> None:
        self.max_spans = max_spans
        #: span name -> [calls, total ns, self ns, self ns under the root, bytes]
        self.totals: dict[str, list[int]] = {}
        self.layer_of: dict[str, str] = {}
        self.counts: dict[str, int] = {name: 0 for name in COUNTED}
        self.counts["update.handle_update_calls"] = 0
        self.alloc = [0, 0]  # numpy.zeros/empty calls, bytes
        self.spans: list[tuple] = []
        self.n_spans = 0
        self.run_depth = 0
        self._stack: list[list[int]] = []
        self._undo: list[tuple] = []

    # ------------------------------------------------------------ wrappers
    def _timed(self, fn, name: str, layer: str, count_bytes: bool):
        acc = self.totals.setdefault(name, [0, 0, 0, 0, 0])
        self.layer_of[name] = layer
        stack, spans, clock, tracer = self._stack, self.spans, time.perf_counter_ns, self
        is_root = name == ROOT_NAME
        max_spans = self.max_spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = tracer.n_spans
            tracer.n_spans = span_id + 1
            frame = [0, span_id]  # ns covered by wrapped children, id
            parent = stack[-1] if stack else None
            stack.append(frame)
            if is_root:
                tracer.run_depth += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                if count_bytes:
                    acc[4] += _nbytes(result) or sum(map(_nbytes, args))
                return result
            finally:
                dur = clock() - t0
                stack.pop()
                own = dur - frame[0]
                acc[0] += 1
                acc[1] += dur
                acc[2] += own
                if tracer.run_depth:
                    acc[3] += own
                if is_root:
                    tracer.run_depth -= 1
                if parent is not None:
                    parent[0] += dur
                if span_id < max_spans:
                    spans.append(
                        (name, t0, dur, span_id, parent[1] if parent else -1)
                    )

        return wrapper

    def _counted(self, fn, key: str):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _allocator(self, fn):
        alloc = self.alloc

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            alloc[0] += 1
            alloc[1] += out.nbytes
            return out

        return wrapper

    # ------------------------------------------------------ install / undo
    def _bind(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def _wrap_class(self, cls, layer: str, count_bytes: bool) -> None:
        for attr, raw in list(vars(cls).items()):
            static = isinstance(raw, staticmethod)
            fn = raw.__func__ if static else raw
            if attr.startswith("_") or not inspect.isfunction(fn):
                continue
            if inspect.isgeneratorfunction(fn):
                continue  # a generator's work is not inside its call
            wrapped = self._timed(fn, f"{layer}:{cls.__name__}.{attr}", layer, count_bytes)
            self._bind(cls, attr, staticmethod(wrapped) if static else wrapped)

    def _wrap_module(self, modname: str, layer: str) -> None:
        module = importlib.import_module(modname)
        repro_modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "repro" or n.startswith("repro."))
        ]
        for attr, fn in list(vars(module).items()):
            if (
                attr.startswith("_")
                or not inspect.isfunction(fn)
                or fn.__module__ != modname
            ):
                continue
            wrapped = self._timed(fn, f"{layer}:{attr}", layer, True)
            # rebind in every repro module whose globals hold the original
            for mod in repro_modules:
                for name, val in list(vars(mod).items()):
                    if val is fn:
                        self._bind(mod, name, wrapped)

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        for modname, clsname, layer, count_bytes in TARGET_CLASSES:
            cls = getattr(importlib.import_module(modname), clsname)
            self._wrap_class(cls, layer, count_bytes)
        for modname, layer in TARGET_MODULES:
            self._wrap_module(modname, layer)
        modname, clsname, attr = ROOT
        env_cls = getattr(importlib.import_module(modname), clsname)
        self._bind(env_cls, attr, self._timed(vars(env_cls)[attr], ROOT_NAME, "sim", False))
        for key, (modname, clsname, attrs) in COUNTED.items():
            cls = getattr(importlib.import_module(modname), clsname)
            for attr in attrs:
                self._bind(cls, attr, self._counted(vars(cls)[attr], key))
        importlib.import_module("repro.update")  # registers every method class
        base = getattr(importlib.import_module(UPDATE_BASE[0]), UPDATE_BASE[1])
        for cls in (base, *_subclasses(base)):
            if "handle_update" in vars(cls):
                fn = vars(cls)["handle_update"]
                self._bind(
                    cls, "handle_update", self._counted(fn, "update.handle_update_calls")
                )
        for attr in ALLOCATORS:
            self._bind(numpy, attr, self._allocator(getattr(numpy, attr)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # ------------------------------------------------------------ read-out
    def layer_totals(self) -> dict[str, list[int]]:
        out: dict[str, list[int]] = {}
        for name, acc in self.totals.items():
            tot = out.setdefault(self.layer_of[name], [0, 0, 0, 0, 0])
            for i, v in enumerate(acc):
                tot[i] += v
        return out

    def accounting(self) -> tuple[float, float]:
        """(traced ``Environment.run`` wall, sum of every self time under it,
        the residual included), in seconds: the two must agree."""
        root = self.totals.get(ROOT_NAME, [0, 0, 0, 0, 0])
        under_root = sum(acc[3] for acc in self.totals.values())
        return root[1] / 1e9, under_root / 1e9

    def metrics(self, events: float) -> dict[str, float]:
        layers = self.layer_totals()

        def get(layer: str, i: int) -> float:
            return float(layers.get(layer, [0, 0, 0, 0, 0])[i])

        out: dict[str, float] = {}
        for layer in ("gf", "ec", "storage.blockstore"):
            sep = "_" if "." in layer else "."
            out[f"{layer}{sep}self_s"] = get(layer, 2) / 1e9
            out[f"{layer}{sep}calls"] = get(layer, 0)
            out[f"{layer}{sep}bytes"] = get(layer, 4)
        for layer in ("storage.wear", "core.logpool", "core.index", "core.recycler", "cluster.oracle"):
            out[f"{layer}_self_s"] = get(layer, 2) / 1e9
        out["core.calls"] = sum(
            get(layer, 0) for layer in ("core.logpool", "core.index", "core.recycler")
        )
        out["cluster.oracle_bytes"] = get("cluster.oracle", 4)
        out["placement.self_s"] = get("placement", 2) / 1e9
        out["placement.calls"] = get("placement", 0)
        out["metrics.self_s"] = get("metrics", 2) / 1e9
        out["byteplane.alloc_calls"] = float(self.alloc[0])
        out["byteplane.alloc_bytes"] = float(self.alloc[1])
        residual_s = self.totals.get(ROOT_NAME, [0, 0, 0, 0, 0])[2] / 1e9
        out["sim.run_residual_s"] = residual_s
        out["sim.residual_us_per_event"] = 1e6 * residual_s / events if events else 0.0
        out.update({k: float(v) for k, v in self.counts.items()})
        return out

    def write_chrome_trace(self, path: Path) -> None:
        """The kept spans as Chrome-trace JSON (``chrome://tracing``,
        Perfetto): complete events, microseconds since the first span."""
        t_min = min((s[1] for s in self.spans), default=0)
        events = [
            {
                "name": name,
                "cat": self.layer_of[name],
                "ph": "X",
                "pid": 1,
                "tid": 1,
                "ts": (t0 - t_min) / 1e3,
                "dur": dur / 1e3,
                "args": {"id": span_id, "parent": parent},
            }
            for name, t0, dur, span_id, parent in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
