"""Refinement-as-a-service: a multi-tenant session server on the core runtime.

The paper's pay-as-you-go loop is interactive — a requester posts crowd
answers and asks "which tasks next?" under a running budget — and this
package exposes exactly that loop as a long-running service.  Sessions are
addressable resources backed by the persistent
:class:`~repro.core.selection.session.RefinementSession` runtime, and many
tenants' candidate scans are multiplexed onto one shared
:class:`~repro.core.selection.parallel.EvaluatorPool` instead of one pool per
tenant.

Layers (each importable on its own):

* :mod:`repro.service.api` — typed request/response dataclasses, the
  service error hierarchy and the JSON wire codecs;
* :mod:`repro.service.registry` — session bookkeeping on a
  :class:`~repro.core.selection.session.SessionPool`;
* :mod:`repro.service.metrics` — counters and latency percentiles;
* :mod:`repro.service.server` — the asyncio :class:`RefinementService`;
* :mod:`repro.service.transport` — a JSON-lines TCP front end;
* :mod:`repro.service.client` — the matching asyncio client.
"""

from repro.service.api import (
    BudgetExhaustedError,
    DeadlineExceededError,
    MergeAbortedError,
    MergeReport,
    PosteriorView,
    SelectionReply,
    ServiceError,
    SessionClosed,
    SessionCreated,
    SessionOverloadedError,
    UnknownSessionError,
    ValidationFailedError,
)
from repro.service.client import NO_RETRY, RetryPolicy, ServiceClient
from repro.service.server import RefinementService
from repro.service.transport import TransportError, serve

__all__ = [
    "BudgetExhaustedError",
    "DeadlineExceededError",
    "MergeAbortedError",
    "MergeReport",
    "NO_RETRY",
    "PosteriorView",
    "RefinementService",
    "RetryPolicy",
    "SelectionReply",
    "ServiceClient",
    "ServiceError",
    "SessionClosed",
    "SessionCreated",
    "SessionOverloadedError",
    "TransportError",
    "UnknownSessionError",
    "ValidationFailedError",
    "serve",
]
