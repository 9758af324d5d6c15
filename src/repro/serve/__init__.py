"""The REF allocation service: asyncio HTTP server + batching + client.

This package turns the library-level
:class:`~repro.dynamic.controller.DynamicAllocator` into the deployment
shape shared-cluster mechanisms assume: a long-lived network service
that independent agents talk to.  Clients register
(``POST /v1/agents``), submit the IPC they measured at their enforced
bundles (``POST /v1/samples``), and read back the current epoch's
allocation (``GET /v1/allocation``); ``/healthz`` and ``/metrics``
(Prometheus text, via :mod:`repro.obs`) make it operable.

Concurrent sample submissions are coalesced by
:class:`~repro.serve.batching.SampleBatcher` under a max-delay /
max-batch :class:`~repro.serve.batching.BatchPolicy`, so N clients cost
one mechanism solve per epoch.  Everything is stdlib-only.

For scale-out beyond one process, :mod:`repro.serve.shard` partitions
agents into cells — one :class:`AllocationServer` subprocess each — and
a :class:`~repro.serve.shard.ShardCoordinator` re-slices the global
capacity across cells every grant round with the hierarchical Eq. 13
split (``POST /v1/capacity``), exposing the shard map at
``GET /v1/cells``.  The coordinator talks to each cell over one
pipelined keep-alive :class:`~repro.serve.link.CellLink` on its own
event loop; :class:`ServeClient` is the blocking client for everyone
else, and both share one definition of every route.

See ``docs/service.md`` for the API reference and deployment notes,
and ``docs/sharding.md`` for the multi-cell architecture.
"""

from .batching import BatchPolicy, SampleBatcher
from .client import ServeClient, ServeError
from .link import CellLink
from .protocol import (
    PROTOCOL_VERSION,
    AgentRequest,
    AgentResponse,
    AllocationResponse,
    BulkSampleRequest,
    BulkSampleResponse,
    CapacityRequest,
    CapacityResponse,
    CellInfo,
    CellsResponse,
    ErrorResponse,
    HealthResponse,
    ProtocolError,
    SampleOutcome,
    SampleRequest,
    SampleResponse,
    parse_json,
)
from .server import AllocationServer, HttpServerBase, ServerThread
from .shard import CellWorker, ShardCoordinator, cell_for

__all__ = [
    "AgentRequest",
    "AgentResponse",
    "AllocationResponse",
    "AllocationServer",
    "BatchPolicy",
    "BulkSampleRequest",
    "BulkSampleResponse",
    "CapacityRequest",
    "CapacityResponse",
    "CellInfo",
    "CellLink",
    "CellWorker",
    "CellsResponse",
    "ErrorResponse",
    "HealthResponse",
    "HttpServerBase",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "SampleBatcher",
    "SampleOutcome",
    "SampleRequest",
    "SampleResponse",
    "ServeClient",
    "ServeError",
    "ServerThread",
    "ShardCoordinator",
    "cell_for",
    "parse_json",
]
