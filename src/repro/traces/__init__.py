"""Workload traces: statistical twins of Ali-Cloud, Ten-Cloud and MSR.

The real traces are multi-GB downloads unavailable offline; each generator
here reproduces the statistics the paper (and the traces' own publications)
report — update ratio, request-size distribution, and spatio-temporal
locality — which are the properties the update methods are sensitive to.
"""

from repro.traces.record import TraceRecord
from repro.traces.locality import LocalityModel
from repro.traces.synthetic import SyntheticTraceSpec, generate_trace
from repro.traces.alicloud import alicloud_spec
from repro.traces.tencloud import tencloud_spec
from repro.traces.msr import MSR_VOLUMES, msr_spec
from repro.traces.loader import (
    load_alibaba_csv,
    load_msr_csv,
    load_tencent_csv,
    load_trace,
)
from repro.traces.replayer import TraceReplayer, ReplayResult
from repro.traces.stats import trace_statistics

__all__ = [
    "TraceRecord",
    "LocalityModel",
    "SyntheticTraceSpec",
    "generate_trace",
    "alicloud_spec",
    "tencloud_spec",
    "MSR_VOLUMES",
    "msr_spec",
    "load_msr_csv",
    "load_alibaba_csv",
    "load_tencent_csv",
    "load_trace",
    "TraceReplayer",
    "ReplayResult",
    "trace_statistics",
]
