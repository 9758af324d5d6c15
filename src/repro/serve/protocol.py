"""Versioned JSON wire protocol for the REF allocation service.

Every request and response is a flat JSON object carrying a
``"version"`` field (currently :data:`PROTOCOL_VERSION`).  Parsing is
*strict*: unknown keys, missing keys, wrong types, non-finite numbers
(``NaN``/``Infinity`` are not valid JSON) and version mismatches all
raise :class:`ProtocolError`, which the server maps to an HTTP 400.
Semantic problems — an unknown agent, a sample the profiler rejects —
are *not* protocol errors; they surface as 404/409 responses or as
rejected-sample counters, because a fault-tolerant measurement pipeline
must accept syntactically valid garbage without dropping the
connection.

Dataclasses round-trip exactly::

    request = SampleRequest("dedup", 3.2, 512.0, 0.81)
    assert SampleRequest.from_dict(request.as_dict()) == request
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

__all__ = [
    "PROTOCOL_VERSION",
    "ProtocolError",
    "AgentRequest",
    "AgentResponse",
    "BulkSampleRequest",
    "BulkSampleResponse",
    "SampleOutcome",
    "SampleRequest",
    "SampleResponse",
    "AllocationResponse",
    "CapacityRequest",
    "CapacityResponse",
    "CellInfo",
    "CellsResponse",
    "HealthResponse",
    "ErrorResponse",
    "parse_json",
]

#: Wire protocol version; bumped on any incompatible change.
PROTOCOL_VERSION = 1


class ProtocolError(ValueError):
    """A request that does not conform to the wire protocol (HTTP 400)."""


def _reject_constant(text: str) -> float:
    raise ProtocolError(f"non-finite JSON constant {text!r} is not allowed")


def parse_json(text: str) -> Dict[str, object]:
    """Parse a request body into a dict, strictly.

    Rejects invalid JSON, non-object payloads and the non-standard
    ``NaN``/``Infinity`` constants (Prometheus would render them, but a
    measurement that is not a finite number is not a measurement).
    """
    try:
        data = json.loads(text, parse_constant=_reject_constant)
    except ProtocolError:
        raise
    except (json.JSONDecodeError, UnicodeDecodeError) as error:
        raise ProtocolError(f"request body is not valid JSON: {error}") from None
    if not isinstance(data, dict):
        raise ProtocolError(
            f"request body must be a JSON object, got {type(data).__name__}"
        )
    return data


def _check_keys(
    data: Mapping[str, object],
    required: Tuple[str, ...],
    optional: Tuple[str, ...] = (),
) -> None:
    allowed = set(required) | set(optional) | {"version"}
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise ProtocolError(f"unknown field(s): {', '.join(unknown)}")
    missing = sorted(set(required) - set(data))
    if missing:
        raise ProtocolError(f"missing field(s): {', '.join(missing)}")
    version = data.get("version", PROTOCOL_VERSION)
    if not isinstance(version, int) or isinstance(version, bool):
        raise ProtocolError(f"version must be an integer, got {version!r}")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"unsupported protocol version {version} (this server speaks "
            f"{PROTOCOL_VERSION})"
        )


def _get_str(data: Mapping[str, object], key: str) -> str:
    value = data[key]
    if not isinstance(value, str) or not value:
        raise ProtocolError(f"{key} must be a non-empty string, got {value!r}")
    return value


def _get_number(data: Mapping[str, object], key: str) -> float:
    value = data[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ProtocolError(f"{key} must be a number, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        raise ProtocolError(f"{key} must be finite, got {value!r}")
    return value


# ---------------------------------------------------------------------------
# Requests
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AgentRequest:
    """``POST /v1/agents`` — register or deregister an agent.

    ``workload`` names a benchmark from the bundled suite (the server
    needs a prior/spec to seed the agent's profiler context); a
    ``register`` must carry either a workload **or** an explicit
    ``"profile": null`` — the *profile-free* variant, accepted only by
    servers running with demand learning enabled
    (``--learn-demands``), whose demands are learned online from the
    agent's submitted samples.  A profile-free register may add a
    ``workload_class`` hint (``"C"`` or ``"M"``) steering the centroid
    prior.  ``deregister`` takes neither.
    """

    action: str
    agent: str
    workload: Optional[str] = None
    profile_free: bool = False
    workload_class: Optional[str] = None

    def __post_init__(self) -> None:
        if self.action not in ("register", "deregister"):
            raise ProtocolError(
                f"action must be 'register' or 'deregister', got {self.action!r}"
            )
        if self.action == "register":
            if self.profile_free and self.workload is not None:
                raise ProtocolError(
                    "register takes either a workload or profile: null, not both"
                )
            if not self.profile_free and not self.workload:
                raise ProtocolError("register requires a workload or profile: null")
        if self.action == "deregister" and (
            self.workload is not None or self.profile_free
        ):
            raise ProtocolError("deregister does not take a workload or profile")
        if self.workload_class is not None and not self.profile_free:
            raise ProtocolError("workload_class is only valid with profile: null")
        if self.workload_class is not None and self.workload_class not in ("C", "M"):
            raise ProtocolError(
                f"workload_class must be 'C' or 'M', got {self.workload_class!r}"
            )

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "AgentRequest":
        _check_keys(
            data,
            required=("action", "agent"),
            optional=("workload", "profile", "workload_class"),
        )
        workload = data.get("workload")
        if workload is not None and (not isinstance(workload, str) or not workload):
            raise ProtocolError(f"workload must be a non-empty string, got {workload!r}")
        profile_free = False
        if "profile" in data:
            if data["profile"] is not None:
                raise ProtocolError(
                    "only profile: null is supported (inline profiles are not); "
                    "name a workload instead"
                )
            profile_free = True
        workload_class = data.get("workload_class")
        if workload_class is not None and not isinstance(workload_class, str):
            raise ProtocolError(
                f"workload_class must be a string, got {workload_class!r}"
            )
        return cls(
            action=_get_str(data, "action"),
            agent=_get_str(data, "agent"),
            workload=workload,
            profile_free=profile_free,
            workload_class=workload_class,
        )

    def as_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "version": PROTOCOL_VERSION,
            "action": self.action,
            "agent": self.agent,
        }
        if self.workload is not None:
            payload["workload"] = self.workload
        if self.profile_free:
            payload["profile"] = None
        if self.workload_class is not None:
            payload["workload_class"] = self.workload_class
        return payload


@dataclass(frozen=True)
class SampleRequest:
    """``POST /v1/samples`` — one measured (bundle, IPC) observation.

    The resource amounts and the IPC must be finite numbers — that is a
    *wire* requirement.  Whether the sample is plausible (positive, not
    an outlier against the agent's current fit) is decided by the
    fault-tolerant profiler at the next epoch tick, not by the parser.
    The optional ``exploration`` flag marks a measurement taken at a
    deliberately perturbed operating point; the profiler's outlier gate
    is bypassed for it (see
    :meth:`repro.profiling.online.OnlineProfiler.observe`).
    """

    agent: str
    bandwidth_gbps: float
    cache_kb: float
    ipc: float
    exploration: bool = False

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "SampleRequest":
        _check_keys(
            data,
            required=("agent", "bandwidth_gbps", "cache_kb", "ipc"),
            optional=("exploration",),
        )
        exploration = data.get("exploration", False)
        if not isinstance(exploration, bool):
            raise ProtocolError(
                f"exploration must be a boolean, got {exploration!r}"
            )
        return cls(
            agent=_get_str(data, "agent"),
            bandwidth_gbps=_get_number(data, "bandwidth_gbps"),
            cache_kb=_get_number(data, "cache_kb"),
            ipc=_get_number(data, "ipc"),
            exploration=exploration,
        )

    def as_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "version": PROTOCOL_VERSION,
            "agent": self.agent,
            "bandwidth_gbps": self.bandwidth_gbps,
            "cache_kb": self.cache_kb,
            "ipc": self.ipc,
        }
        if self.exploration:
            payload["exploration"] = True
        return payload

    @property
    def bundle(self) -> Tuple[float, float]:
        return (self.bandwidth_gbps, self.cache_kb)


@dataclass(frozen=True)
class BulkSampleRequest:
    """``POST /v1/samples`` with a ``samples`` array — bulk ingest.

    One round trip carries an epoch's worth of measurements: each
    element is a full single-sample object (the inner ``version`` field
    is optional; the outer one governs).  The array must be non-empty,
    and its length is effectively bounded by the server's request body
    limit.  The single-sample body (no ``samples`` key) remains valid —
    the server dispatches on the presence of the key.
    """

    samples: Tuple[SampleRequest, ...]

    def __post_init__(self) -> None:
        if not self.samples:
            raise ProtocolError("samples must be a non-empty array")

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "BulkSampleRequest":
        _check_keys(data, required=("samples",))
        samples = data["samples"]
        if not isinstance(samples, (list, tuple)):
            raise ProtocolError(f"samples must be an array, got {samples!r}")
        parsed = []
        for i, item in enumerate(samples):
            if not isinstance(item, dict):
                raise ProtocolError(f"samples[{i}] must be an object, got {item!r}")
            try:
                parsed.append(SampleRequest.from_dict(item))
            except ProtocolError as error:
                raise ProtocolError(f"samples[{i}]: {error}") from None
        return cls(samples=tuple(parsed))

    def as_dict(self) -> Dict[str, object]:
        return {
            "version": PROTOCOL_VERSION,
            "samples": [sample.as_dict() for sample in self.samples],
        }


@dataclass(frozen=True)
class SampleOutcome:
    """Per-sample accept/reject inside a :class:`BulkSampleResponse`."""

    agent: str
    queued: bool
    error: str = ""

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "SampleOutcome":
        _check_keys(data, required=("agent", "queued"), optional=("error",))
        queued = data["queued"]
        if not isinstance(queued, bool):
            raise ProtocolError(f"queued must be a boolean, got {queued!r}")
        error = data.get("error", "")
        if not isinstance(error, str):
            raise ProtocolError(f"error must be a string, got {error!r}")
        return cls(agent=_get_str(data, "agent"), queued=queued, error=error)

    def as_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {"agent": self.agent, "queued": self.queued}
        if self.error:
            payload["error"] = self.error
        return payload


@dataclass(frozen=True)
class BulkSampleResponse:
    """Acknowledges a bulk sample POST, per-sample.

    ``results`` is index-aligned with the request's ``samples`` array;
    ``accepted``/``rejected`` are its tallies.  ``epoch`` is the epoch
    the accepted samples will be folded into and ``pending`` the batch
    occupancy after this call (as with :class:`SampleResponse`).
    """

    epoch: int
    pending: int
    accepted: int
    rejected: int
    results: Tuple[SampleOutcome, ...]

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "BulkSampleResponse":
        _check_keys(
            data, required=("epoch", "pending", "accepted", "rejected", "results")
        )
        for key in ("epoch", "pending", "accepted", "rejected"):
            if isinstance(data[key], bool) or not isinstance(data[key], int):
                raise ProtocolError(f"{key} must be an integer, got {data[key]!r}")
        results = data["results"]
        if not isinstance(results, (list, tuple)):
            raise ProtocolError(f"results must be an array, got {results!r}")
        parsed = []
        for i, item in enumerate(results):
            if not isinstance(item, dict):
                raise ProtocolError(f"results[{i}] must be an object, got {item!r}")
            parsed.append(SampleOutcome.from_dict(item))
        return cls(
            epoch=int(data["epoch"]),
            pending=int(data["pending"]),
            accepted=int(data["accepted"]),
            rejected=int(data["rejected"]),
            results=tuple(parsed),
        )

    def as_dict(self) -> Dict[str, object]:
        return {
            "version": PROTOCOL_VERSION,
            "epoch": self.epoch,
            "pending": self.pending,
            "accepted": self.accepted,
            "rejected": self.rejected,
            "results": [outcome.as_dict() for outcome in self.results],
        }


def _get_number_map(data: Mapping[str, object], key: str) -> Dict[str, float]:
    """A ``{resource: finite number}`` object field, strictly validated."""
    value = data[key]
    if not isinstance(value, dict) or not value:
        raise ProtocolError(f"{key} must be a non-empty object, got {value!r}")
    return {str(name): _get_number(value, name) for name in value}


@dataclass(frozen=True)
class CapacityRequest:
    """``POST /v1/capacity`` — a hierarchical capacity grant for this cell.

    Sent by the shard coordinator once per coordinator epoch: the cell's
    slice of the global capacity vector, computed by the Eq. 13 closed
    form on per-cell aggregate elasticities.  Every granted amount must
    be a finite, strictly positive number; the worker re-solves its cell
    immediately so the grant takes effect before the next read.
    """

    capacities: Dict[str, float]

    def __post_init__(self) -> None:
        if not self.capacities:
            raise ProtocolError("a capacity grant needs at least one resource")
        for name, value in self.capacities.items():
            if not math.isfinite(value) or value <= 0.0:
                raise ProtocolError(
                    f"granted capacity for {name!r} must be finite and positive, "
                    f"got {value!r}"
                )

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "CapacityRequest":
        _check_keys(data, required=("capacities",))
        return cls(capacities=_get_number_map(data, "capacities"))

    def as_dict(self) -> Dict[str, object]:
        return {
            "version": PROTOCOL_VERSION,
            "capacities": dict(self.capacities),
        }


# ---------------------------------------------------------------------------
# Responses
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AgentResponse:
    """Acknowledges a register/deregister; lists current membership."""

    action: str
    agent: str
    agents: Tuple[str, ...]
    epoch: int

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "AgentResponse":
        _check_keys(data, required=("action", "agent", "agents", "epoch"))
        agents = data["agents"]
        if not isinstance(agents, (list, tuple)) or not all(
            isinstance(name, str) for name in agents
        ):
            raise ProtocolError(f"agents must be a list of strings, got {agents!r}")
        epoch = data["epoch"]
        if isinstance(epoch, bool) or not isinstance(epoch, int):
            raise ProtocolError(f"epoch must be an integer, got {epoch!r}")
        return cls(
            action=_get_str(data, "action"),
            agent=_get_str(data, "agent"),
            agents=tuple(agents),
            epoch=epoch,
        )

    def as_dict(self) -> Dict[str, object]:
        return {
            "version": PROTOCOL_VERSION,
            "action": self.action,
            "agent": self.agent,
            "agents": list(self.agents),
            "epoch": self.epoch,
        }


@dataclass(frozen=True)
class SampleResponse:
    """Acknowledges a queued sample.

    ``epoch`` is the index of the epoch the sample will be folded into
    (the *next* tick); ``pending`` is the batch occupancy after this
    sample, so clients can see coalescing happen.
    """

    agent: str
    queued: bool
    epoch: int
    pending: int

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "SampleResponse":
        _check_keys(data, required=("agent", "queued", "epoch", "pending"))
        queued = data["queued"]
        if not isinstance(queued, bool):
            raise ProtocolError(f"queued must be a boolean, got {queued!r}")
        for key in ("epoch", "pending"):
            if isinstance(data[key], bool) or not isinstance(data[key], int):
                raise ProtocolError(f"{key} must be an integer, got {data[key]!r}")
        return cls(
            agent=_get_str(data, "agent"),
            queued=queued,
            epoch=int(data["epoch"]),
            pending=int(data["pending"]),
        )

    def as_dict(self) -> Dict[str, object]:
        return {
            "version": PROTOCOL_VERSION,
            "agent": self.agent,
            "queued": self.queued,
            "epoch": self.epoch,
            "pending": self.pending,
        }


@dataclass(frozen=True)
class AllocationResponse:
    """``GET /v1/allocation`` — the current epoch's *enforced* allocation."""

    epoch: int
    mechanism: str
    feasible: bool
    capacities: Dict[str, float]
    shares: Dict[str, Dict[str, float]]

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "AllocationResponse":
        _check_keys(
            data, required=("epoch", "mechanism", "feasible", "capacities", "shares")
        )
        epoch = data["epoch"]
        if isinstance(epoch, bool) or not isinstance(epoch, int):
            raise ProtocolError(f"epoch must be an integer, got {epoch!r}")
        feasible = data["feasible"]
        if not isinstance(feasible, bool):
            raise ProtocolError(f"feasible must be a boolean, got {feasible!r}")
        capacities = data["capacities"]
        if not isinstance(capacities, dict):
            raise ProtocolError("capacities must be an object")
        shares = data["shares"]
        if not isinstance(shares, dict) or not all(
            isinstance(bundle, dict) for bundle in shares.values()
        ):
            raise ProtocolError("shares must be an object of per-agent objects")
        return cls(
            epoch=epoch,
            mechanism=_get_str(data, "mechanism"),
            feasible=feasible,
            capacities={str(k): _get_number(capacities, k) for k in capacities},
            shares={
                str(agent): {str(r): _get_number(bundle, r) for r in bundle}
                for agent, bundle in shares.items()
            },
        )

    def as_dict(self) -> Dict[str, object]:
        return {
            "version": PROTOCOL_VERSION,
            "epoch": self.epoch,
            "mechanism": self.mechanism,
            "feasible": self.feasible,
            "capacities": dict(self.capacities),
            "shares": {agent: dict(bundle) for agent, bundle in self.shares.items()},
        }

    def bundle(self, agent: str) -> Dict[str, float]:
        """The named agent's enforced bundle (KeyError if absent)."""
        return dict(self.shares[agent])


@dataclass(frozen=True)
class CapacityResponse:
    """Acknowledges a capacity grant; reports the cell's state back.

    ``aggregate_elasticity`` carries the cell's per-resource sum of
    re-scaled (Eq. 12) agent elasticities — exactly the weight the
    coordinator needs to compute the *next* epoch's Eq. 13 split, so a
    grant round is one request/response per cell.
    """

    epoch: int
    agents: Tuple[str, ...]
    capacities: Dict[str, float]
    aggregate_elasticity: Dict[str, float]

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "CapacityResponse":
        _check_keys(
            data,
            required=("epoch", "agents", "capacities", "aggregate_elasticity"),
        )
        epoch = data["epoch"]
        if isinstance(epoch, bool) or not isinstance(epoch, int):
            raise ProtocolError(f"epoch must be an integer, got {epoch!r}")
        agents = data["agents"]
        if not isinstance(agents, (list, tuple)) or not all(
            isinstance(name, str) for name in agents
        ):
            raise ProtocolError(f"agents must be a list of strings, got {agents!r}")
        return cls(
            epoch=epoch,
            agents=tuple(agents),
            capacities=_get_number_map(data, "capacities"),
            aggregate_elasticity=_get_number_map(data, "aggregate_elasticity"),
        )

    def as_dict(self) -> Dict[str, object]:
        return {
            "version": PROTOCOL_VERSION,
            "epoch": self.epoch,
            "agents": list(self.agents),
            "capacities": dict(self.capacities),
            "aggregate_elasticity": dict(self.aggregate_elasticity),
        }


@dataclass(frozen=True)
class CellInfo:
    """One cell worker's identity and state, as the coordinator sees it."""

    cell: str
    host: str
    port: int
    pid: int
    alive: bool
    agents: Tuple[str, ...]
    grant: Dict[str, float]

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "CellInfo":
        _check_keys(
            data,
            required=("cell", "host", "port", "pid", "alive", "agents", "grant"),
        )
        for key in ("port", "pid"):
            if isinstance(data[key], bool) or not isinstance(data[key], int):
                raise ProtocolError(f"{key} must be an integer, got {data[key]!r}")
        alive = data["alive"]
        if not isinstance(alive, bool):
            raise ProtocolError(f"alive must be a boolean, got {alive!r}")
        agents = data["agents"]
        if not isinstance(agents, (list, tuple)) or not all(
            isinstance(name, str) for name in agents
        ):
            raise ProtocolError(f"agents must be a list of strings, got {agents!r}")
        grant = data["grant"]
        if not isinstance(grant, dict):
            raise ProtocolError(f"grant must be an object, got {grant!r}")
        return cls(
            cell=_get_str(data, "cell"),
            host=_get_str(data, "host"),
            port=int(data["port"]),
            pid=int(data["pid"]),
            alive=alive,
            agents=tuple(agents),
            grant={str(k): _get_number(grant, k) for k in grant},
        )

    def as_dict(self) -> Dict[str, object]:
        return {
            "version": PROTOCOL_VERSION,
            "cell": self.cell,
            "host": self.host,
            "port": self.port,
            "pid": self.pid,
            "alive": self.alive,
            "agents": list(self.agents),
            "grant": dict(self.grant),
        }


@dataclass(frozen=True)
class CellsResponse:
    """``GET /v1/cells`` — the coordinator's shard map.

    Smart clients use this to submit samples *directly* to the worker
    that owns their agent (one hop instead of two); operators use it to
    find each cell's metrics endpoint and pid.
    """

    epoch: int
    capacities: Dict[str, float]
    cells: Tuple[CellInfo, ...]

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "CellsResponse":
        _check_keys(data, required=("epoch", "capacities", "cells"))
        epoch = data["epoch"]
        if isinstance(epoch, bool) or not isinstance(epoch, int):
            raise ProtocolError(f"epoch must be an integer, got {epoch!r}")
        cells = data["cells"]
        if not isinstance(cells, (list, tuple)):
            raise ProtocolError(f"cells must be a list, got {cells!r}")
        return cls(
            epoch=epoch,
            capacities=_get_number_map(data, "capacities"),
            cells=tuple(
                CellInfo.from_dict(cell) if isinstance(cell, dict) else _bad_cell(cell)
                for cell in cells
            ),
        )

    def as_dict(self) -> Dict[str, object]:
        return {
            "version": PROTOCOL_VERSION,
            "epoch": self.epoch,
            "capacities": dict(self.capacities),
            "cells": [cell.as_dict() for cell in self.cells],
        }

    def owner_of(self, agent: str) -> CellInfo:
        """The live cell currently hosting ``agent`` (KeyError if none)."""
        for cell in self.cells:
            if cell.alive and agent in cell.agents:
                return cell
        raise KeyError(f"no live cell owns agent {agent!r}")


def _bad_cell(value: object) -> CellInfo:
    raise ProtocolError(f"each cell must be an object, got {value!r}")


@dataclass(frozen=True)
class HealthResponse:
    """``GET /healthz`` — liveness plus a tiny service summary."""

    status: str
    epoch: int
    agents: Tuple[str, ...]
    pending_samples: int
    uptime_seconds: float
    mechanism: str = "ref"

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "HealthResponse":
        _check_keys(
            data,
            required=("status", "epoch", "agents", "pending_samples", "uptime_seconds"),
            optional=("mechanism",),
        )
        agents = data["agents"]
        if not isinstance(agents, (list, tuple)) or not all(
            isinstance(name, str) for name in agents
        ):
            raise ProtocolError(f"agents must be a list of strings, got {agents!r}")
        for key in ("epoch", "pending_samples"):
            if isinstance(data[key], bool) or not isinstance(data[key], int):
                raise ProtocolError(f"{key} must be an integer, got {data[key]!r}")
        return cls(
            status=_get_str(data, "status"),
            epoch=int(data["epoch"]),
            agents=tuple(agents),
            pending_samples=int(data["pending_samples"]),
            uptime_seconds=_get_number(data, "uptime_seconds"),
            mechanism=_get_str(data, "mechanism") if "mechanism" in data else "ref",
        )

    def as_dict(self) -> Dict[str, object]:
        return {
            "version": PROTOCOL_VERSION,
            "status": self.status,
            "epoch": self.epoch,
            "agents": list(self.agents),
            "pending_samples": self.pending_samples,
            "uptime_seconds": self.uptime_seconds,
            "mechanism": self.mechanism,
        }


@dataclass(frozen=True)
class ErrorResponse:
    """Any non-2xx response body."""

    error: str
    detail: str = ""

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "ErrorResponse":
        _check_keys(data, required=("error",), optional=("detail",))
        detail = data.get("detail", "")
        if not isinstance(detail, str):
            raise ProtocolError(f"detail must be a string, got {detail!r}")
        return cls(error=_get_str(data, "error"), detail=detail)

    def as_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {"version": PROTOCOL_VERSION, "error": self.error}
        if self.detail:
            payload["detail"] = self.detail
        return payload
