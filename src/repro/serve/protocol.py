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

Every message is a frozen dataclass whose fields declare a wire *kind*
(:func:`_wire`); one codec (:class:`_Message`) checks and writes every
message by those declarations, so the strictness rules are written
once, per kind.  Dataclasses round-trip exactly::

    request = SampleRequest("dedup", 3.2, 512.0, 0.81)
    assert SampleRequest.from_dict(request.as_dict()) == request
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, field, fields
from typing import Callable, Dict, Mapping, NamedTuple, Optional, Tuple, Union

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


def parse_json(text: Union[str, bytes]) -> Dict[str, object]:
    """Parse a request body (text, or bytes that must be UTF-8) into a dict, strictly.

    Rejects bytes that are not UTF-8, invalid JSON, non-object payloads
    and the non-standard ``NaN``/``Infinity`` constants (Prometheus
    would render them, but a measurement that is not a finite number is
    not a measurement), and bodies nested too deeply for the parser.
    """
    try:
        if isinstance(text, bytes):
            text = text.decode("utf-8")
        data = json.loads(text, parse_constant=_reject_constant)
    except ProtocolError:
        raise
    except UnicodeDecodeError as error:
        raise ProtocolError(f"request body is not valid UTF-8: {error}") from None
    except (ValueError, RecursionError) as error:  # also the digit limit, deep nesting
        raise ProtocolError(f"request body is not valid JSON: {error}") from None
    if not isinstance(data, dict):
        raise ProtocolError(
            f"request body must be a JSON object, got {type(data).__name__}"
        )
    return data


# ---------------------------------------------------------------------------
# Field kinds: each wire rule, written once
# ---------------------------------------------------------------------------


class _Kind(NamedTuple):
    """How one field is checked on the way in and written on the way out.

    ``decode(key, value)`` returns the field's Python value or raises
    :class:`ProtocolError` naming ``key``; ``encode`` (None: the value
    as is) returns its JSON value.
    """

    decode: Callable[[str, object], object]
    encode: Optional[Callable[[object], object]] = None


def _string(key: str, value: object) -> str:
    if not isinstance(value, str):
        raise ProtocolError(f"{key} must be a string, got {value!r}")
    return value


def _non_empty_string(key: str, value: object) -> str:
    if not isinstance(value, str) or not value:
        raise ProtocolError(f"{key} must be a non-empty string, got {value!r}")
    return value


def _number(key: str, value: object) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ProtocolError(f"{key} must be a number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:
        raise ProtocolError(
            f"{key} must be finite, got an integer too large for a float"
        ) from None
    if not math.isfinite(value):
        raise ProtocolError(f"{key} must be finite, got {value!r}")
    return value


def _integer(key: str, value: object) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ProtocolError(f"{key} must be an integer, got {value!r}")
    return value


def _boolean(key: str, value: object) -> bool:
    if not isinstance(value, bool):
        raise ProtocolError(f"{key} must be a boolean, got {value!r}")
    return value


def _string_list(key: str, value: object) -> Tuple[str, ...]:
    if not isinstance(value, (list, tuple)) or not all(
        isinstance(name, str) for name in value
    ):
        raise ProtocolError(f"{key} must be a list of strings, got {value!r}")
    return tuple(value)


def _number_map(key: str, value: object, empty_ok: bool = False) -> Dict[str, float]:
    """``{name: finite number}``; each entry is checked under its own name."""
    if not isinstance(value, dict) or not (value or empty_ok):
        what = "an object" if empty_ok else "a non-empty object"
        raise ProtocolError(f"{key} must be {what}, got {value!r}")
    return {str(name): _number(name, value[name]) for name in value}


def _bundles(key: str, value: object) -> Dict[str, Dict[str, float]]:
    if not isinstance(value, dict):
        raise ProtocolError(f"{key} must be an object of per-agent objects, got {value!r}")
    return {str(agent): _number_map(agent, value[agent], True) for agent in value}


def _array(message: type) -> _Kind:
    """A JSON array of ``message`` objects, each decoded by its own codec."""

    def decode(key: str, value: object) -> tuple:
        if not isinstance(value, (list, tuple)):
            raise ProtocolError(f"{key} must be an array, got {value!r}")
        parsed = []
        for i, item in enumerate(value):
            if not isinstance(item, dict):
                raise ProtocolError(f"{key}[{i}] must be an object, got {item!r}")
            try:
                parsed.append(message.from_dict(item))
            except ProtocolError as error:
                raise ProtocolError(f"{key}[{i}]: {error}") from None
        return tuple(parsed)

    return _Kind(decode, lambda items: [item.as_dict() for item in items])


def _null_marker(key: str, value: object) -> bool:
    # The only value the ``profile`` key takes: present means profile-free.
    if value is not None:
        raise ProtocolError(
            "only profile: null is supported (inline profiles are not); "
            "name a workload instead"
        )
    return True


_STRING = _Kind(_string)
_NON_EMPTY = _Kind(_non_empty_string)
_NUMBER = _Kind(_number)
_INTEGER = _Kind(_integer)
_BOOLEAN = _Kind(_boolean)
_STRING_LIST = _Kind(_string_list, list)
_NUMBER_MAP = _Kind(_number_map, dict)
_NUMBER_MAP_OR_EMPTY = _Kind(lambda key, value: _number_map(key, value, True), dict)
_BUNDLES = _Kind(_bundles, lambda shares: {agent: dict(b) for agent, b in shares.items()})
_NULL_MARKER = _Kind(_null_marker, lambda _: None)


def _wire(kind: _Kind, default=MISSING, *, key: Optional[str] = None):
    """A message field of wire ``kind``, sent as ``key`` (default: its name).

    A field with a ``default`` is optional: absent on the wire it takes
    the default.  An empty default (None, False, ``""``) is also left
    out of :meth:`_Message.as_dict` while the field holds it.  An
    explicit ``null`` is absent only for a field whose default is None;
    elsewhere it is a value of the wrong kind.
    """
    return field(default=default, metadata={"kind": kind, "key": key})


def _encoder(message: type) -> Callable[[object], Dict[str, object]]:
    """The body of ``message.as_dict``, written out once from its field rows.

    The fields become one dict display, in declaration order, up to the
    first field whose empty default is left out; that field and every
    later one get a statement each, so the keys keep their order.  An
    encoder or a default is bound by name; the keys and names are the
    class's own identifiers.
    """
    scope: Dict[str, object] = {}
    display = [f"'version': {PROTOCOL_VERSION}"] if message._versioned else []
    statements = []
    for i, (name, key, _, encode, default, omit) in enumerate(message._fields):
        value = f"values[{name!r}]"
        if encode is not None:
            scope[f"encode{i}"] = encode
            value = f"encode{i}({value})"
        if omit:
            scope[f"default{i}"] = default
            statements.append(f"if not values[{name!r}] == default{i}: payload[{key!r}] = {value}")
        elif statements:
            statements.append(f"payload[{key!r}] = {value}")
        else:
            display.append(f"{key!r}: {value}")
    lines = ["values = self.__dict__", f"payload = {{{', '.join(display)}}}", *statements]
    source = "def encode(self):\n" + "".join(f"    {line}\n" for line in lines)
    exec(source + "    return payload\n", scope)
    return scope["encode"]


class _Message:
    """The one codec: ``from_dict``/``as_dict`` by the fields' declarations.

    Each subclass becomes a frozen dataclass, and its codec tables and
    its encoder (:func:`_encoder`) are built once, when the class is
    defined.
    """

    #: Whether ``as_dict`` writes ``"version"`` (every top-level message).
    _versioned = True
    #: Per field: its name, wire key, decode, encode, default, and
    #: whether ``as_dict`` leaves that (empty) default out.
    _fields: Tuple[tuple, ...]
    _allowed: frozenset
    _required: frozenset
    _encode: Callable[["_Message"], Dict[str, object]]

    def __init_subclass__(cls) -> None:
        dataclass(frozen=True)(cls)
        cls._fields = tuple(
            (spec.name, spec.metadata["key"] or spec.name, *spec.metadata["kind"],
             spec.default, spec.default is not MISSING and not spec.default)
            for spec in fields(cls)
        )
        cls._allowed = frozenset(row[1] for row in cls._fields) | {"version"}
        cls._required = frozenset(row[1] for row in cls._fields if row[4] is MISSING)
        cls._encode = _encoder(cls)

    @classmethod
    def from_dict(cls, data: Mapping[str, object]):
        if not cls._allowed.issuperset(data):
            unknown = sorted(set(data) - cls._allowed)
            raise ProtocolError(f"unknown field(s): {', '.join(unknown)}")
        if not data.keys() >= cls._required:
            missing = sorted(cls._required - set(data))
            raise ProtocolError(f"missing field(s): {', '.join(missing)}")
        version = _integer("version", data.get("version", PROTOCOL_VERSION))
        if version != PROTOCOL_VERSION:
            raise ProtocolError(
                f"unsupported protocol version {version} (this server speaks "
                f"{PROTOCOL_VERSION})"
            )
        values = {}
        for name, key, decode, _, default, _ in cls._fields:
            if key in data:
                value = data[key]
                if value is not None or default is not None:
                    values[name] = decode(key, value)
        return cls(**values)

    def as_dict(self) -> Dict[str, object]:
        return self._encode()


# ---------------------------------------------------------------------------
# Requests
# ---------------------------------------------------------------------------


class AgentRequest(_Message):
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

    action: str = _wire(_NON_EMPTY)
    agent: str = _wire(_NON_EMPTY)
    workload: Optional[str] = _wire(_NON_EMPTY, None)
    profile_free: bool = _wire(_NULL_MARKER, False, key="profile")
    workload_class: Optional[str] = _wire(_STRING, None)

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


class SampleRequest(_Message):
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

    agent: str = _wire(_NON_EMPTY)
    bandwidth_gbps: float = _wire(_NUMBER)
    cache_kb: float = _wire(_NUMBER)
    ipc: float = _wire(_NUMBER)
    exploration: bool = _wire(_BOOLEAN, False)

    @property
    def bundle(self) -> Tuple[float, float]:
        return (self.bandwidth_gbps, self.cache_kb)


class BulkSampleRequest(_Message):
    """``POST /v1/samples`` with a ``samples`` array — bulk ingest.

    One round trip carries an epoch's worth of measurements: each
    element is a full single-sample object (the inner ``version`` field
    is optional; the outer one governs).  The array must be non-empty,
    and its length is effectively bounded by the server's request body
    limit.  The single-sample body (no ``samples`` key) remains valid —
    the server dispatches on the presence of the key.
    """

    samples: Tuple[SampleRequest, ...] = _wire(_array(SampleRequest))

    def __post_init__(self) -> None:
        if not self.samples:
            raise ProtocolError("samples must be a non-empty array")


class SampleOutcome(_Message):
    """Per-sample accept/reject inside a :class:`BulkSampleResponse`."""

    _versioned = False

    agent: str = _wire(_NON_EMPTY)
    queued: bool = _wire(_BOOLEAN)
    error: str = _wire(_STRING, "")


class BulkSampleResponse(_Message):
    """Acknowledges a bulk sample POST, per-sample.

    ``results`` is index-aligned with the request's ``samples`` array;
    ``accepted``/``rejected`` are its tallies.  ``epoch`` is the epoch
    the accepted samples will be folded into and ``pending`` the batch
    occupancy after this call (as with :class:`SampleResponse`).
    """

    epoch: int = _wire(_INTEGER)
    pending: int = _wire(_INTEGER)
    accepted: int = _wire(_INTEGER)
    rejected: int = _wire(_INTEGER)
    results: Tuple[SampleOutcome, ...] = _wire(_array(SampleOutcome))


class CapacityRequest(_Message):
    """``POST /v1/capacity`` — a hierarchical capacity grant for this cell.

    Sent by the shard coordinator once per coordinator epoch: the cell's
    slice of the global capacity vector, computed by the Eq. 13 closed
    form on per-cell aggregate elasticities.  Every granted amount must
    be a finite, strictly positive number; the worker re-solves its cell
    immediately so the grant takes effect before the next read.
    """

    capacities: Dict[str, float] = _wire(_NUMBER_MAP)

    def __post_init__(self) -> None:
        if not self.capacities:
            raise ProtocolError("a capacity grant needs at least one resource")
        for name, value in self.capacities.items():
            if not math.isfinite(value) or value <= 0.0:
                raise ProtocolError(
                    f"granted capacity for {name!r} must be finite and positive, "
                    f"got {value!r}"
                )


# ---------------------------------------------------------------------------
# Responses
# ---------------------------------------------------------------------------


class AgentResponse(_Message):
    """Acknowledges a register/deregister; lists current membership."""

    action: str = _wire(_NON_EMPTY)
    agent: str = _wire(_NON_EMPTY)
    agents: Tuple[str, ...] = _wire(_STRING_LIST)
    epoch: int = _wire(_INTEGER)


class SampleResponse(_Message):
    """Acknowledges a queued sample.

    ``epoch`` is the index of the epoch the sample will be folded into
    (the *next* tick); ``pending`` is the batch occupancy after this
    sample, so clients can see coalescing happen.
    """

    agent: str = _wire(_NON_EMPTY)
    queued: bool = _wire(_BOOLEAN)
    epoch: int = _wire(_INTEGER)
    pending: int = _wire(_INTEGER)


class AllocationResponse(_Message):
    """``GET /v1/allocation`` — the current epoch's *enforced* allocation."""

    epoch: int = _wire(_INTEGER)
    mechanism: str = _wire(_NON_EMPTY)
    feasible: bool = _wire(_BOOLEAN)
    capacities: Dict[str, float] = _wire(_NUMBER_MAP)
    shares: Dict[str, Dict[str, float]] = _wire(_BUNDLES)

    def bundle(self, agent: str) -> Dict[str, float]:
        """The named agent's enforced bundle (KeyError if absent)."""
        return dict(self.shares[agent])


class CapacityResponse(_Message):
    """Acknowledges a capacity grant; reports the cell's state back.

    ``aggregate_elasticity`` carries the cell's per-resource sum of
    re-scaled (Eq. 12) agent elasticities — exactly the weight the
    coordinator needs to compute the *next* epoch's Eq. 13 split, so a
    grant round is one request/response per cell.
    """

    epoch: int = _wire(_INTEGER)
    agents: Tuple[str, ...] = _wire(_STRING_LIST)
    capacities: Dict[str, float] = _wire(_NUMBER_MAP)
    aggregate_elasticity: Dict[str, float] = _wire(_NUMBER_MAP)


class CellInfo(_Message):
    """One cell worker's identity and state, as the coordinator sees it.

    A dead cell's ``grant`` is empty.
    """

    cell: str = _wire(_NON_EMPTY)
    host: str = _wire(_NON_EMPTY)
    port: int = _wire(_INTEGER)
    pid: int = _wire(_INTEGER)
    alive: bool = _wire(_BOOLEAN)
    agents: Tuple[str, ...] = _wire(_STRING_LIST)
    grant: Dict[str, float] = _wire(_NUMBER_MAP_OR_EMPTY)


class CellsResponse(_Message):
    """``GET /v1/cells`` — the coordinator's shard map.

    Smart clients use this to submit samples *directly* to the worker
    that owns their agent (one hop instead of two); operators use it to
    find each cell's metrics endpoint and pid.
    """

    epoch: int = _wire(_INTEGER)
    capacities: Dict[str, float] = _wire(_NUMBER_MAP)
    cells: Tuple[CellInfo, ...] = _wire(_array(CellInfo))

    def owner_of(self, agent: str) -> CellInfo:
        """The live cell currently hosting ``agent`` (KeyError if none)."""
        for cell in self.cells:
            if cell.alive and agent in cell.agents:
                return cell
        raise KeyError(f"no live cell owns agent {agent!r}")


class HealthResponse(_Message):
    """``GET /healthz`` — liveness plus a tiny service summary."""

    status: str = _wire(_NON_EMPTY)
    epoch: int = _wire(_INTEGER)
    agents: Tuple[str, ...] = _wire(_STRING_LIST)
    pending_samples: int = _wire(_INTEGER)
    uptime_seconds: float = _wire(_NUMBER)
    mechanism: str = _wire(_NON_EMPTY, "ref")


class ErrorResponse(_Message):
    """Any non-2xx response body."""

    error: str = _wire(_NON_EMPTY)
    detail: str = _wire(_STRING, "")
