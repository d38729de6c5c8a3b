"""Trace records: the normalized block-trace schema used everywhere."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["TraceRecord"]


@dataclass(frozen=True)
class TraceRecord:
    """One I/O in a workload trace.

    ``op`` is "update" (a write; every trace is replayed onto files
    populate already wrote in full, so every write updates written space)
    or "read".  ``offset``/``size`` are file-relative bytes.
    """

    op: str
    file_id: int
    offset: int
    size: int

    def __post_init__(self) -> None:
        if self.op not in ("update", "read"):
            raise ValueError(f"unknown op {self.op!r}")
        if self.size <= 0 or self.offset < 0:
            raise ValueError("bad trace record geometry")
