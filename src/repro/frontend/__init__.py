"""Front-end request path: QoS pipeline, admission, retries, hedging, SLOs.

Layered refactor of the seed's monolithic client (see ISSUE 4):

* :mod:`repro.frontend.ops` — the core dispatch generators (shared with
  the seed-compatible :class:`~repro.cluster.client.Client` shim);
* :mod:`repro.frontend.request` — :class:`Request`/:class:`RequestResult`
  and the QoS class lattice;
* :mod:`repro.frontend.admission` — token buckets + graduated shedding;
* :mod:`repro.frontend.retry` — exponential backoff and the retry budget;
* :mod:`repro.frontend.dispatcher` — the :class:`FrontEnd` pipeline;
* :mod:`repro.frontend.slo` — per-tenant/per-class SLO metrics.
"""

from repro.frontend.admission import AdmissionConfig, AdmissionController, TokenBucket
from repro.frontend.dispatcher import FrontEnd
from repro.frontend.request import (
    DEFAULT_DEADLINES,
    QOS_CLASSES,
    QOS_RANK,
    Request,
    RequestResult,
)
from repro.frontend.retry import RetryBudget, backoff_delay
from repro.frontend.slo import SLO_TARGETS, SLOTracker

__all__ = [
    "AdmissionConfig",
    "AdmissionController",
    "TokenBucket",
    "FrontEnd",
    "DEFAULT_DEADLINES",
    "QOS_CLASSES",
    "QOS_RANK",
    "Request",
    "RequestResult",
    "RetryBudget",
    "backoff_delay",
    "SLO_TARGETS",
    "SLOTracker",
]
