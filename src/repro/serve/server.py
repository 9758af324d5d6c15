"""The asyncio HTTP allocation server.

A deliberately small HTTP/1.1 implementation — one buffered
``asyncio.Protocol`` per connection on ``loop.create_server`` (stdlib
only, persistent connections, pipelining) — wrapping a
:class:`~repro.dynamic.controller.DynamicAllocator` as a long-lived
service:

========  =================  ==============================================
method    path               meaning
========  =================  ==============================================
POST      ``/v1/agents``     register / deregister an agent (churn)
POST      ``/v1/samples``    submit one measured (bundle, IPC) sample
POST      ``/v1/capacity``   apply a hierarchical capacity grant (sharding)
GET       ``/v1/allocation`` the current epoch's enforced allocation
GET       ``/healthz``       liveness + service summary
GET       ``/metrics``       Prometheus text exposition (repro.obs)
========  =================  ==============================================

Connections are HTTP/1.1 *persistent*: a client loops many requests
over one socket (``Connection: keep-alive``, the 1.1 default) and the
server only closes on an explicit ``Connection: close``, an idle
timeout, or a request it could not parse (after a malformed request the
byte stream has no trustworthy framing, so that connection — and only
that connection — is poisoned and closed).  ``POST /v1/samples``
additionally accepts a bulk body (``{"samples": [...]}``) so one round
trip carries an epoch's worth of measurements, acknowledged
per-sample.  Connection reuse is observable as
``repro_serve_connections_total`` and the
``repro_serve_requests_per_connection`` histogram.

Samples are coalesced by a :class:`~repro.serve.batching.SampleBatcher`;
an epoch tick applies the batch through
``DynamicAllocator.observe_sample`` and solves the mechanism exactly
once (``step(measure=False)``), so the solve rate is bounded by the
batch policy, not by the client count.  The tick task sleeps until the
oldest pending sample's deadline and, with nothing pending, until a
sample arrives: an idle server does not wake at all.  Agent churn
triggers an immediate tick so ``GET /v1/allocation`` reflects the new
membership.
``POST /v1/capacity`` is the hierarchical hook: a shard coordinator
(:mod:`repro.serve.shard`) re-slices the global capacity vector across
cell workers each epoch, and a grant both updates this cell's
capacities and reports its aggregate elasticities back in one round
trip.

With the default ``ref`` mechanism every tick runs the closed-form
proportional-elasticity allocator (Eq. 13) and one *batched*
Cobb-Douglas refit covering all dirty profilers, so tick latency is a
couple of NumPy calls regardless of agent count; SLSQP only enters for
the constrained mechanisms (``max-welfare-fair``, ``equal-slowdown``),
warm-started from the previous epoch's enforced shares.  ``/healthz``
reports which mechanism the allocator runs.

Everything is single-threaded inside the event loop — route handlers
and epoch ticks never run concurrently, so the allocator needs no
locking.  Requests are counted and timed into a
:class:`~repro.obs.MetricsRegistry` (``repro_serve_*``), and every
epoch tick produces an ``epoch`` span via the allocator's tracer.

The read path is *snapshot-served*: ``GET /v1/allocation`` and
``GET /healthz`` are rendered to JSON bytes at most once per epoch (the
cache is invalidated by every epoch tick, which covers churn and
capacity grants too) and answered as a cached-bytes write — not a
dataclass→dict→``json.dumps`` per request.  The staleness bound is one
epoch; ``GET /metrics`` always renders live.

The HTTP plumbing (request parsing, limits, dispatch, error mapping,
request metrics) lives in :class:`HttpServerBase` so the shard
coordinator can speak the same dialect without duplicating it.
"""

from __future__ import annotations

import asyncio
import json
import threading
from typing import Callable, Container, Dict, Optional, Sequence, Set, Tuple

from ..dynamic.controller import DynamicAllocator, EpochRecord
from ..obs import MetricsRegistry, Series, global_registry, to_prometheus
from ..workloads import BENCHMARKS, get_workload
from .batching import BatchPolicy, SampleBatcher
from .client import ServeError
from .protocol import (
    AgentRequest,
    AgentResponse,
    AllocationResponse,
    BulkSampleRequest,
    BulkSampleResponse,
    CapacityRequest,
    CapacityResponse,
    ErrorResponse,
    HealthResponse,
    ProtocolError,
    SampleOutcome,
    SampleRequest,
    SampleResponse,
    parse_json,
)

__all__ = ["AllocationServer", "HttpServerBase", "ServerThread"]

#: Hard request-parsing limits; anything beyond them is a 4xx, not a crash.
MAX_REQUEST_LINE = 8192
MAX_HEADERS = 100
MAX_HEAD_BYTES = 1 << 16
MAX_BODY_BYTES = 1 << 20

#: Unparsed bytes a connection buffers before it stops reading: more
#: than the largest request can only pile up behind a pending reply.
_MAX_UNPARSED = MAX_HEAD_BYTES + MAX_BODY_BYTES

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    411: "Length Required",
    413: "Payload Too Large",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    502: "Bad Gateway",
    503: "Service Unavailable",
}

#: Batch-size histogram buckets (samples per epoch tick).
_BATCH_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)

#: Requests-per-connection histogram buckets (keep-alive reuse depth).
_CONNECTION_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0)

#: Seconds a fresh connection may take to deliver its first request.
FIRST_REQUEST_TIMEOUT = 30.0

#: Default seconds an idle persistent connection is held open between
#: requests before the server closes it.
DEFAULT_IDLE_TIMEOUT = 30.0


class _HttpError(Exception):
    """An error with a definite HTTP status, raised during parsing/routing."""

    def __init__(self, status: int, error: str, detail: str = ""):
        super().__init__(detail or error)
        self.status = status
        self.error = error
        self.detail = detail


def _check_register(
    request: AgentRequest, learn_demands: bool, registered: Container[str]
) -> None:
    """Refuse a register the flat server and the coordinator both refuse."""
    if request.profile_free and not learn_demands:
        raise _HttpError(
            400,
            "learning_disabled",
            "profile: null requires a server started with --learn-demands",
        )
    if not request.profile_free and request.workload not in BENCHMARKS:
        raise _HttpError(400, "unknown_workload", f"no benchmark named {request.workload!r}")
    if request.agent in registered:
        raise _HttpError(409, "agent_exists", f"{request.agent!r} is registered")


def _granted(request: CapacityRequest, names: Sequence[str]) -> Tuple[float, ...]:
    """The grant's capacities in ``names`` order; it must cover exactly ``names``."""
    if set(request.capacities) != set(names):
        raise _HttpError(
            400,
            "unknown_resource",
            f"grant must cover exactly {sorted(names)}, got {sorted(request.capacities)}",
        )
    return tuple(request.capacities[name] for name in names)


#: A parsed request: ``(end, method, path, body, keep_alive)``, where
#: ``end`` is the buffer offset just past it.
_Request = Tuple[int, str, str, bytes, bool]


def _parse_request(buffer: bytearray, start: int) -> Optional[_Request]:
    """Parse the request that begins at ``buffer[start]``.

    Returns None while the request is incomplete, and raises
    :class:`_HttpError` as soon as the bytes cannot become a request
    within the limits.  Lines end in CRLF or a bare LF.  ``keep_alive``
    follows HTTP/1.1: persistent by default, ``Connection: close`` opts
    out; HTTP/1.0 is one-shot unless the client asks for
    ``Connection: keep-alive``.
    """
    limit = start + MAX_HEAD_BYTES
    blank = buffer.find(b"\n\r\n", start, limit)
    bare = buffer.find(b"\n\n", start, blank + 2 if blank >= 0 else limit)
    if bare >= 0:
        head_end = bare + 2
    elif blank >= 0:
        head_end = blank + 3
    else:
        pending = len(buffer) - start
        if pending >= MAX_REQUEST_LINE and buffer.find(b"\n", start, start + MAX_REQUEST_LINE) < 0:
            raise _HttpError(431, "header_too_large", "request line too long")
        if pending >= MAX_HEAD_BYTES:
            raise _HttpError(431, "header_too_large", "request line or header too large")
        return None
    lines = buffer[start:head_end].decode("latin-1").split("\n")[:-2]
    if len(lines[0]) + 1 > MAX_REQUEST_LINE:
        raise _HttpError(431, "header_too_large", "request line too long")
    parts = lines[0].split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise _HttpError(400, "bad_request", "malformed request line")
    method, target, version = parts
    if len(lines) - 1 > MAX_HEADERS:
        raise _HttpError(431, "header_too_large", "too many headers")
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        name, colon, value = line.rstrip("\r").partition(":")
        if not colon:
            raise _HttpError(400, "bad_request", f"malformed header {name!r}")
        headers[name.strip().lower()] = value.strip()
    end = head_end
    body = b""
    if method in ("POST", "PUT", "PATCH"):
        length_text = headers.get("content-length")
        if length_text is None:
            raise _HttpError(411, "length_required", "POST needs Content-Length")
        try:
            length = int(length_text)
        except ValueError:
            raise _HttpError(400, "bad_request", "bad Content-Length") from None
        if length < 0:
            raise _HttpError(400, "bad_request", "bad Content-Length")
        if length > MAX_BODY_BYTES:
            raise _HttpError(413, "payload_too_large", f"body > {MAX_BODY_BYTES}B")
        end = head_end + length
        if len(buffer) < end:
            return None
        body = bytes(buffer[head_end:end])
    connection = headers.get("connection", "").lower()
    if version == "HTTP/1.0":
        keep_alive = connection == "keep-alive"
    else:
        keep_alive = connection != "close"
    return end, method, target.split("?", 1)[0], body, keep_alive


def _response(status: int, payload: object, content_type: str, keep_alive: bool) -> bytes:
    """One framed response; ``payload`` is bytes, text, or a JSON-able dict."""
    if isinstance(payload, str):
        body = payload.encode()
    elif isinstance(payload, (bytes, bytearray)):
        body = payload
    else:
        body = json.dumps(payload).encode()
    head = (
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n\r\n"
    )
    return head.encode("latin-1") + body


class _Connection(asyncio.Protocol):
    """One persistent HTTP/1.1 connection, answered from a byte buffer.

    ``data_received`` appends to the buffer and answers every complete
    request in it, in order.  A sync handler's reply is written inline.
    An async handler (the coordinator's proxies) runs as the one held
    task, and the next buffered request is parsed only after its reply
    is written, so pipelined replies keep request order.  Nothing is
    parsed while the transport's write buffer is over its high-water
    mark (``pause_writing`` until ``resume_writing``), and reading pauses
    while more than one largest request waits unparsed.

    One timer, re-armed rather than replaced, closes a connection whose
    next request is not complete ``FIRST_REQUEST_TIMEOUT`` after it was
    accepted, or ``idle_timeout`` after the previous reply.
    """

    def __init__(self, server: "HttpServerBase"):
        self._server = server
        self._loop = asyncio.get_running_loop()
        self._transport: Optional[asyncio.Transport] = None
        self._buffer = bytearray()
        self._handled = 0
        #: The async handler whose reply is due next, if any.
        self._task: Optional[asyncio.Task] = None
        self._paused = False  # write buffer over its high-water mark
        self._reading = True
        self._closing = False  # answer no further request
        self._eof = False  # the client half-closed: close once idle
        self._deadline = 0.0
        self._timer: Optional[asyncio.TimerHandle] = None

    # ------------------------------------------------------------------
    # asyncio.Protocol callbacks

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self._transport = transport  # type: ignore[assignment]
        self._server._connections.add(self)
        self._server._metric("connections").inc()
        self._wait(self._loop.time() + FIRST_REQUEST_TIMEOUT)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self._closing = True
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        self._server._connections.discard(self)
        self._server._metric("per_connection").observe(self._handled)

    def data_received(self, data: bytes) -> None:
        self._buffer += data
        self._process()

    def eof_received(self) -> bool:
        # Keep the write side open while a reply is still due.
        self._eof = True
        return self._task is not None or self._paused

    def pause_writing(self) -> None:
        self._paused = True

    def resume_writing(self) -> None:
        self._paused = False
        self._process()

    # ------------------------------------------------------------------
    # Requests and replies

    def _process(self) -> None:
        """Answer every complete buffered request, in order."""
        buffer = self._buffer
        start = 0
        try:
            while not (self._closing or self._paused or self._task is not None):
                try:
                    request = _parse_request(buffer, start)
                except _HttpError as error:
                    # Framing is untrusted now: answer and poison only
                    # this connection.  Counted before the write so a
                    # client that read the reply sees the counter bumped.
                    self._handled += 1
                    self._server._count_request("unparsed", error.status, self._loop.time())
                    payload = ErrorResponse(error.error, error.detail).as_dict()
                    self._send(_response(error.status, payload, "application/json", False))
                    self._closing = True
                    break
                if request is None:
                    break
                start, method, path, body, keep_alive = request
                self._answer(method, path, body, keep_alive)
        finally:
            del buffer[:start]
        if self._task is None and (self._closing or self._eof and not self._paused):
            self._close()
        elif self._reading != (len(buffer) <= _MAX_UNPARSED):
            self._reading = not self._reading
            if self._reading:
                self._transport.resume_reading()
            else:
                self._transport.pause_reading()

    def _answer(self, method: str, path: str, body: bytes, keep_alive: bool) -> None:
        # The latency clock starts here, with the request complete:
        # keep-alive idle time before it is the client's, not ours.
        started = self._loop.time()
        result = self._server._dispatch(method, path, body)
        if isinstance(result, tuple):
            self._reply(path, result, keep_alive, started)
        else:
            self._task = self._loop.create_task(self._finish(path, result, keep_alive, started))

    async def _finish(self, path: str, pending, keep_alive: bool, started: float) -> None:
        result = await pending
        self._task = None
        self._reply(path, result, keep_alive, started)
        self._process()

    def _reply(self, path: str, result, keep_alive: bool, started: float) -> None:
        server = self._server
        status, payload, content_type = result
        self._handled += 1
        route = path if path in server._route_table else "unknown"
        now = server._count_request(route, status, started)
        self._send(_response(status, payload, content_type, keep_alive))
        if not keep_alive:
            self._closing = True
        elif not self._closing:
            self._wait(now + server.idle_timeout)

    def _send(self, data: bytes) -> None:
        if not self._transport.is_closing():
            self._transport.write(data)

    # ------------------------------------------------------------------
    # Timeouts and shutdown

    def _wait(self, deadline: float) -> None:
        """Give the next request until ``deadline`` to complete."""
        self._deadline = deadline
        if self._timer is None or self._timer.when() > deadline:
            if self._timer is not None:
                self._timer.cancel()
            self._timer = self._loop.call_at(deadline, self._expire)

    def _expire(self) -> None:
        now = self._loop.time()
        if self._task is not None or self._paused:
            # A reply is still being produced or delivered; the wait for
            # the next request starts only after it.
            self._timer = self._loop.call_at(now + self._server.idle_timeout, self._expire)
        elif now < self._deadline:
            self._timer = self._loop.call_at(self._deadline, self._expire)
        else:
            # Idle keep-alive expiry or a stalled request: nothing to
            # answer, and no request to count.
            self._timer = None
            self._close()

    def _close(self) -> None:
        self._closing = True
        self._transport.close()

    def shutdown(self) -> None:
        """Answer the request in flight, if any, then close."""
        self._closing = True
        if self._task is None:
            self._close()

    def abort(self) -> None:
        self._transport.abort()


class HttpServerBase:
    """Shared asyncio HTTP/1.1 plumbing for the serve-layer processes.

    Subclasses provide :meth:`_routes` (path -> (method, handler)) and
    may override the lifecycle hooks:

    * :meth:`_on_start` — runs before the socket binds (e.g. epoch 0,
      worker spawning);
    * :meth:`_tick_loop` — the background task started after binding
      (epoch ticks, capacity-grant rounds); the default sleeps forever,
      and one that raises stops the server;
    * :meth:`_on_stop` — runs after the listener closed (final flush,
      worker teardown).

    Handlers are sync or async callables ``body -> (status, payload,
    content_type)``.  A sync handler is answered inline, while the bytes
    are still in hand; an async one lets a proxying subclass await
    upstream workers, and a handler may also be sync on its fast path
    and return a coroutine otherwise.  A handler may return pre-rendered
    ``bytes`` as the payload (the snapshot read path) — they are written
    as-is.  All request hygiene (size limits, timeouts, error mapping,
    the ``repro_serve_requests_total`` / request-latency metrics) lives
    here, so every server speaking this dialect gets the same hardening.

    Each connection is one :class:`_Connection` protocol (no asyncio
    streams): persistent by default (HTTP/1.1), it answers buffered
    requests in order until the client sends ``Connection: close``,
    goes quiet for ``idle_timeout`` seconds, or sends bytes that cannot
    be parsed (the framing is then untrusted, so the connection is
    answered with its 4xx and closed — poisoning only itself).  Snapshot
    byte caching for the hot read routes is provided by
    :meth:`_snapshot` / :meth:`_invalidate_snapshots`.
    """

    #: Every metric the flat server touches; the coordinator extends the table.
    _METRICS = {
        "connections": Series(
            "counter",
            "repro_serve_connections_total",
            "TCP connections accepted by the HTTP listener.",
        ),
        "per_connection": Series(
            "histogram",
            "repro_serve_requests_per_connection",
            "Requests served over each connection before it closed.",
            buckets=_CONNECTION_BUCKETS,
        ),
        "requests": Series(
            "counter",
            "repro_serve_requests_total",
            "HTTP requests handled, by route and status.",
            ("route", "status"),
        ),
        "latency": Series(
            "histogram",
            "repro_serve_request_latency_seconds",
            "Server-side request handling latency.",
            ("route",),
        ),
        "snapshots": Series(
            "counter",
            "repro_serve_snapshots_total",
            "Snapshot-served reads, by route and cache result.",
            ("route", "result"),
        ),
        "internal_errors": Series(
            "counter",
            "repro_serve_internal_errors_total",
            "Unexpected exceptions while handling a request.",
        ),
        "orphaned": Series(
            "counter",
            "repro_serve_orphaned_samples_total",
            "Pending samples dropped at flush time because their agent had deregistered.",
        ),
        "samples": Series(
            "counter",
            "repro_serve_samples_total",
            "Samples applied at epoch ticks, by outcome.",
            ("outcome",),
        ),
        "batches": Series(
            "counter",
            "repro_serve_batches_total",
            "Epoch ticks, by what triggered the flush.",
            ("trigger",),
        ),
        "batch_size": Series(
            "histogram",
            "repro_serve_batch_size",
            "Samples coalesced into each epoch tick.",
            buckets=_BATCH_BUCKETS,
        ),
        "epoch": Series("gauge", "repro_serve_epoch", "Most recently completed epoch index."),
        "bulk_samples": Series(
            "counter",
            "repro_serve_bulk_samples_total",
            "Samples carried by bulk POSTs, by ingress outcome.",
            ("outcome",),
        ),
    }

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        metrics: Optional[MetricsRegistry] = None,
        idle_timeout: float = DEFAULT_IDLE_TIMEOUT,
    ):
        self.host = host
        self.port = int(port)
        self.metrics = metrics if metrics is not None else global_registry()
        if not idle_timeout > 0:
            raise ValueError(f"idle_timeout must be positive, got {idle_timeout}")
        self.idle_timeout = float(idle_timeout)
        self._server: Optional[asyncio.AbstractServer] = None
        self._ticker: Optional[asyncio.Task] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._started_at = 0.0
        self._stopped = False
        #: Route -> rendered response bytes, dropped by _invalidate_snapshots.
        self._snapshots: Dict[str, bytes] = {}
        #: Open connections, for graceful shutdown.
        self._connections: Set[_Connection] = set()
        #: Path -> (method, handler); _routes() names only bound methods.
        self._route_table = self._routes()

    # ------------------------------------------------------------------
    # Lifecycle

    async def start(self) -> None:
        """Run :meth:`_on_start`, bind the socket, start the tick loop."""
        if self._server is not None:
            raise RuntimeError("server already started")
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        await self._on_start()
        try:
            self._server = await self._loop.create_server(
                lambda: _Connection(self), self.host, self.port
            )
        except BaseException:
            await self._on_stop()  # undo _on_start: nothing outlives a failed start
            raise
        self.port = self._server.sockets[0].getsockname()[1]
        self._started_at = self._loop.time()
        self._ticker = asyncio.create_task(self._tick_loop())
        self._ticker.add_done_callback(self._tick_ended)

    def _tick_ended(self, ticker: asyncio.Task) -> None:
        """A tick task that died stops the server; :meth:`stop` re-raises its error."""
        if not ticker.cancelled() and ticker.exception() is not None:
            self.request_stop()

    def request_stop(self) -> None:
        """Signal the server to stop (safe to call from a signal handler)."""
        if self._stop_event is not None:
            self._stop_event.set()

    def request_stop_threadsafe(self) -> None:
        """Like :meth:`request_stop`, callable from any thread."""
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self.request_stop)

    async def wait_stopped(self) -> None:
        """Block until :meth:`request_stop` (e.g. SIGTERM) is called."""
        assert self._stop_event is not None, "server not started"
        await self._stop_event.wait()

    async def stop(self) -> None:
        """Graceful shutdown: stop listening, drain, then run :meth:`_on_stop`.

        A tick task that died is re-raised once the teardown is complete.
        """
        if self._stopped:
            return
        self._stopped = True
        self.request_stop()
        ticker = self._ticker
        if ticker is not None:
            ticker.cancel()
            await asyncio.wait([ticker])
        if self._server is not None:
            self._server.close()
        # A connection mid-handler closes after its reply, an idle one at
        # once.  A handler still running after a second loses its reply:
        # the listener's wait_closed (3.12+) waits for every connection.
        for connection in list(self._connections):
            connection.shutdown()
        for _ in range(100):
            if not self._connections:
                break
            await asyncio.sleep(0.01)
        for connection in list(self._connections):
            connection.abort()
        if self._server is not None:
            await self._server.wait_closed()
        await self._on_stop()
        if ticker is not None and not ticker.cancelled():
            ticker.result()  # re-raise the failure that ended the tick loop

    async def _on_start(self) -> None:
        """Hook: runs inside :meth:`start`, before the socket binds."""

    async def _on_stop(self) -> None:
        """Hook: runs inside :meth:`stop`, after the listener closed."""

    async def _tick_loop(self) -> None:
        """Background task started after binding; default: do nothing."""
        while True:  # pragma: no cover - trivial default
            await asyncio.sleep(3600.0)

    # ------------------------------------------------------------------
    # Metrics

    def _metric(self, key: str, *labels):
        """The registry child of series ``key`` labelled ``labels``."""
        return self.metrics.child(self._METRICS[key], *labels)

    def _count_request(self, route: str, status: int, started: float) -> float:
        """Count one handled request into the request metrics; returns now."""
        if self._loop is None:
            return started
        now = self._loop.time()
        metrics, series = self.metrics, self._METRICS
        metrics.child(series["requests"], route, status).inc()
        metrics.child(series["latency"], route).observe(now - started)
        return now

    # ------------------------------------------------------------------
    # Snapshot read path

    def _snapshot(
        self, route: str, build: Callable[[], object]
    ) -> Tuple[int, bytes, str]:
        """Serve ``route`` from cached JSON bytes, rendering on a miss.

        ``build`` returns a protocol dataclass; its rendered bytes are
        kept until :meth:`_invalidate_snapshots`, so a read between
        invalidation points costs a dict lookup plus a socket write.
        Cache effectiveness is observable as
        ``repro_serve_snapshots_total{route,result=hit|miss}``.
        """
        body = self._snapshots.get(route)
        result = "hit"
        if body is None:
            result = "miss"
            body = json.dumps(build().as_dict()).encode()
            self._snapshots[route] = body
        self.metrics.child(self._METRICS["snapshots"], route, result).inc()
        return 200, body, "application/json"

    def _invalidate_snapshots(self) -> None:
        """Drop every cached snapshot (epoch tick, churn, grant, reap)."""
        self._snapshots.clear()

    # ------------------------------------------------------------------
    # Routing

    def _routes(self) -> Dict[str, Tuple[str, Callable[[bytes], Tuple[int, object, str]]]]:
        raise NotImplementedError

    def _dispatch(self, method: str, path: str, body: bytes):
        """Route one request to ``(status, payload, content_type)``.

        A sync handler's result comes back as is; an async handler's as
        a coroutine resolving to it.  Either way handler errors are
        mapped to their 4xx/5xx result, never raised.
        """
        entry = self._route_table.get(path)
        if entry is None:
            return (
                404,
                ErrorResponse("not_found", f"no route {path!r}").as_dict(),
                "application/json",
            )
        expected_method, handler = entry
        if method != expected_method:
            return (
                405,
                ErrorResponse(
                    "method_not_allowed", f"{path} expects {expected_method}"
                ).as_dict(),
                "application/json",
            )
        try:
            result = handler(body)
        except Exception as error:  # the service must outlive a broken handler
            return self._error_result(error)
        if asyncio.iscoroutine(result):
            return self._settle(result)
        return result

    async def _settle(self, pending) -> Tuple[int, object, str]:
        try:
            return await pending
        except Exception as error:
            return self._error_result(error)

    def _error_result(self, error: Exception) -> Tuple[int, object, str]:
        if isinstance(error, ProtocolError):
            status, payload = 400, ErrorResponse("bad_request", str(error))
        elif isinstance(error, (_HttpError, ServeError)) and error.status:  # a cell's refusal too
            status, payload = error.status, ErrorResponse(error.error, error.detail)
        else:
            self._metric("internal_errors").inc()
            detail = f"{type(error).__name__}: {error}"
            status, payload = 500, ErrorResponse("internal_error", detail)
        return status, payload.as_dict(), "application/json"


class AllocationServer(HttpServerBase):
    """Long-lived REF allocation service over HTTP.

    Parameters
    ----------
    allocator:
        The wrapped controller.  The server drives it exclusively in
        *external measurement* mode (``observe_sample`` +
        ``step(measure=False)``); its built-in machine is never used.
    policy:
        Sample-coalescing policy; ``max_delay`` is the service's epoch
        period, ``max_batch`` the early-flush bound.
    host / port:
        Listen address.  ``port=0`` binds an ephemeral port, exposed as
        ``server.port`` after :meth:`start`.
    metrics:
        Registry receiving the ``repro_serve_*`` request metrics.
        Defaults to the process-global registry; ``GET /metrics``
        renders the union of the global registry, this registry and the
        allocator's (each at most once).
    """

    def __init__(
        self,
        allocator: DynamicAllocator,
        policy: Optional[BatchPolicy] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        metrics: Optional[MetricsRegistry] = None,
        idle_timeout: float = DEFAULT_IDLE_TIMEOUT,
    ):
        super().__init__(
            host=host, port=port, metrics=metrics, idle_timeout=idle_timeout
        )
        self.allocator = allocator
        self.policy = policy if policy is not None else BatchPolicy()
        self._batcher: SampleBatcher[SampleRequest] = SampleBatcher(self.policy)
        #: Set when the batcher gains samples; the idle tick task waits on it.
        self._samples_waiting = asyncio.Event()
        self._epoch = 0
        self._current: Optional[EpochRecord] = None

    # ------------------------------------------------------------------
    # Lifecycle hooks

    async def _on_start(self) -> None:
        # Epoch 0 on the naive priors: /v1/allocation is answerable from
        # the very first request, before any sample has arrived.
        self._run_epoch([], trigger="startup")

    async def _on_stop(self) -> None:
        # In-flight samples still deserve an epoch: a client that got a
        # "queued" ack must find its measurement folded in, even across
        # a SIGTERM.
        final = self._batcher.flush()
        if final:
            self._run_epoch(final, trigger="shutdown")

    @property
    def current_epoch(self) -> int:
        """Index of the most recently completed epoch."""
        return self._epoch - 1

    @property
    def pending_samples(self) -> int:
        return self._batcher.pending

    @property
    def samples_received(self) -> int:
        return self._batcher.total_items

    @property
    def batches_flushed(self) -> int:
        return self._batcher.total_batches

    def summary_line(self) -> str:
        """Greppable one-line health summary (printed on shutdown)."""
        record = self._current
        feasible = record.enforced.is_feasible() if record else False
        return (
            f"serve: epochs={self._epoch} samples={self._batcher.total_items} "
            f"batches={self._batcher.total_batches} "
            f"agents={len(self.allocator.agent_names)} "
            f"mechanism={self.allocator.mechanism} feasible={feasible}"
        )

    # ------------------------------------------------------------------
    # Epoch ticking

    async def _tick_loop(self) -> None:
        """Flush each batch at its max-delay deadline, waking only then.

        With nothing pending the task waits for :meth:`_queued` to signal
        a first sample.  A batch flushed earlier (max-batch, churn, a
        grant) makes the wake-up at its old deadline a no-op: ``poll``
        finds nothing due and the loop re-reads the deadline.
        """
        loop = self._loop
        assert loop is not None
        while True:
            self._samples_waiting.clear()
            deadline = self._batcher.next_deadline(loop.time())
            if deadline is None:
                await self._samples_waiting.wait()
                continue
            await asyncio.sleep(deadline - loop.time())
            batch = self._batcher.poll(loop.time())
            if batch is not None:
                self._run_epoch(batch, trigger="max_delay")

    def _queued(self, batch) -> None:
        """After an enqueue: run a max-batch flush, or wake the tick task."""
        if batch is not None:
            self._run_epoch(batch, trigger="max_batch")
        elif self._batcher.pending:
            self._samples_waiting.set()

    def _run_epoch(self, batch, trigger: str) -> EpochRecord:
        """Apply one sample batch and solve the mechanism exactly once.

        Samples whose agent deregistered between enqueue and flush are
        *orphaned*: they are dropped here (and counted) instead of being
        pushed through ``observe_sample``, which treats an unknown agent
        as a caller bug.
        """
        outcomes: Dict[str, int] = {}
        for sample in batch:
            outcome = "accepted"
            if sample.agent not in self.allocator.workloads:
                outcome = "orphaned"
            else:
                try:
                    if not self.allocator.observe_sample(
                        sample.agent,
                        sample.bundle,
                        sample.ipc,
                        exploration=sample.exploration,
                    ):
                        outcome = "rejected"
                except ValueError:
                    # Belt and braces: the membership check above should
                    # have caught this, but a racing caller must still
                    # not crash the epoch.
                    outcome = "unknown_agent"
            outcomes[outcome] = outcomes.get(outcome, 0) + 1
        # One counter bump per outcome, not per sample.
        if outcomes.get("orphaned"):
            self._metric("orphaned").inc(outcomes["orphaned"])
        for outcome, count in outcomes.items():
            self._metric("samples", outcome).inc(count)
        record = self.allocator.step(self._epoch, measure=False)
        self._current = record
        self._epoch += 1
        self._metric("batches", trigger).inc()
        self._metric("batch_size").observe(len(batch))
        self._metric("epoch").set(self._epoch - 1)
        # Every state change flows through here (startup, churn, grants,
        # policy flushes, shutdown), so this is the single invalidation
        # point for the snapshot read path.
        self._invalidate_snapshots()
        return record

    # ------------------------------------------------------------------
    # Routing

    def _routes(self) -> Dict[str, Tuple[str, Callable[[bytes], Tuple[int, object, str]]]]:
        return {
            "/v1/agents": ("POST", self._route_agents),
            "/v1/samples": ("POST", self._route_samples),
            "/v1/capacity": ("POST", self._route_capacity),
            "/v1/allocation": ("GET", self._route_allocation),
            "/healthz": ("GET", self._route_health),
            "/metrics": ("GET", self._route_metrics),
        }

    def _route_agents(self, body: bytes) -> Tuple[int, object, str]:
        request = AgentRequest.from_dict(parse_json(body))
        if request.action == "register":
            _check_register(request, self.allocator.learn_demands, self.allocator.workloads)
            if request.profile_free:
                self.allocator.add_agent(
                    request.agent, None, workload_class=request.workload_class
                )
            else:
                self.allocator.add_agent(request.agent, get_workload(request.workload))
        else:
            if request.agent not in self.allocator.workloads:
                raise _HttpError(404, "unknown_agent", f"no agent {request.agent!r}")
            if len(self.allocator.workloads) == 1:
                raise _HttpError(
                    409, "last_agent", "cannot deregister the last agent"
                )
            self.allocator.remove_agent(request.agent)
        # Membership changed: re-solve immediately (any pending samples
        # ride along; a departed agent's orphans are dropped and counted
        # by _run_epoch) so the next GET /v1/allocation reflects the
        # churn.
        self._run_epoch(self._batcher.flush(), trigger="churn")
        response = AgentResponse(
            action=request.action,
            agent=request.agent,
            agents=self.allocator.agent_names,
            epoch=self.current_epoch,
        )
        return 200, response.as_dict(), "application/json"

    def _route_samples(self, body: bytes) -> Tuple[int, object, str]:
        data = parse_json(body)
        if "samples" in data:
            return self._ingest_bulk(BulkSampleRequest.from_dict(data))
        request = SampleRequest.from_dict(data)
        if request.agent not in self.allocator.workloads:
            raise _HttpError(404, "unknown_agent", f"no agent {request.agent!r}")
        assert self._loop is not None
        fold_epoch = self._epoch
        batch = self._batcher.add(request, self._loop.time())
        pending = self._batcher.pending
        self._queued(batch)
        response = SampleResponse(
            agent=request.agent, queued=True, epoch=fold_epoch, pending=pending
        )
        return 200, response.as_dict(), "application/json"

    def _ingest_bulk(self, request: BulkSampleRequest) -> Tuple[int, object, str]:
        """Fold a bulk sample array into the batcher in one call.

        Unlike the single-sample route, an unknown agent is *not* a 404
        for the whole request: each sample is accepted or rejected on
        its own, and the response reports the per-sample outcome.  The
        whole array is enqueued through one
        :meth:`~repro.serve.batching.SampleBatcher.add_many` call, so a
        bulk POST costs one round trip and at most one epoch tick no
        matter how many measurements it carries.
        """
        assert self._loop is not None
        outcomes = []
        accepted = []
        for sample in request.samples:
            if sample.agent not in self.allocator.workloads:
                outcomes.append(SampleOutcome(sample.agent, False, "unknown_agent"))
            else:
                accepted.append(sample)
                outcomes.append(SampleOutcome(sample.agent, True))
        rejected = len(outcomes) - len(accepted)
        fold_epoch = self._epoch
        batch = self._batcher.add_many(accepted, self._loop.time())
        pending = self._batcher.pending
        self._queued(batch)
        for outcome, count in (("queued", len(accepted)), ("rejected", rejected)):
            if count:
                self._metric("bulk_samples", outcome).inc(count)
        response = BulkSampleResponse(
            epoch=fold_epoch,
            pending=pending,
            accepted=len(accepted),
            rejected=rejected,
            results=tuple(outcomes),
        )
        return 200, response.as_dict(), "application/json"

    def _route_capacity(self, body: bytes) -> Tuple[int, object, str]:
        """Apply a coordinator capacity grant and report cell aggregates.

        The request must name exactly this cell's resources.  The grant
        is applied, the cell re-solves immediately (pending samples ride
        along), and the response carries the per-resource sum of
        re-scaled agent elasticities the coordinator needs for the next
        Eq. 13 split.
        """
        request = CapacityRequest.from_dict(parse_json(body))
        names = self.allocator.resource_names
        self.allocator.set_capacities(_granted(request, names))
        self._run_epoch(self._batcher.flush(), trigger="grant")
        aggregate = self.allocator.aggregate_elasticities()
        response = CapacityResponse(
            epoch=self.current_epoch,
            agents=self.allocator.agent_names,
            capacities={name: float(self.allocator.capacities[r])
                        for r, name in enumerate(names)},
            aggregate_elasticity={
                name: float(aggregate[r]) for r, name in enumerate(names)
            },
        )
        return 200, response.as_dict(), "application/json"

    def _route_allocation(self, _body: bytes) -> Tuple[int, object, str]:
        return self._snapshot("/v1/allocation", self._build_allocation)

    def _build_allocation(self) -> AllocationResponse:
        record = self._current
        assert record is not None, "start() runs epoch 0 before binding"
        allocation = record.enforced
        problem = allocation.problem
        return AllocationResponse(
            epoch=self.current_epoch,
            mechanism=allocation.mechanism,
            feasible=allocation.is_feasible(),
            capacities=dict(
                zip(problem.resource_names, (float(c) for c in problem.capacities))
            ),
            shares=allocation.as_dict(),
        )

    def _route_health(self, _body: bytes) -> Tuple[int, object, str]:
        # Snapshot-served: pending_samples and uptime_seconds are as of
        # the last epoch tick (staleness bound: one epoch).  epoch and
        # membership are always current because every change to them
        # runs _run_epoch, which invalidates.
        return self._snapshot("/healthz", self._build_health)

    def _build_health(self) -> HealthResponse:
        uptime = (self._loop.time() - self._started_at) if self._loop else 0.0
        return HealthResponse(
            status="ok",
            epoch=self.current_epoch,
            agents=self.allocator.agent_names,
            pending_samples=self._batcher.pending,
            uptime_seconds=max(0.0, uptime),
            mechanism=self.allocator.mechanism,
        )

    def _route_metrics(self, _body: bytes) -> Tuple[int, object, str]:
        text = to_prometheus(global_registry(), self.metrics, self.allocator.metrics)
        return 200, text, "text/plain; version=0.0.4"


class ServerThread:
    """Run an :class:`HttpServerBase` server on a daemon thread.

    The blocking :class:`~repro.serve.client.ServeClient` (tests, smoke
    drivers, notebooks) needs the event loop running elsewhere::

        thread = ServerThread(server)
        thread.start()           # blocks until the port is bound
        ...ServeClient("127.0.0.1", server.port)...
        thread.stop()

    Works for both :class:`AllocationServer` and
    :class:`~repro.serve.shard.ShardCoordinator` — anything with the
    base lifecycle (``start`` / ``wait_stopped`` / ``stop`` /
    ``request_stop_threadsafe``).
    """

    def __init__(self, server: HttpServerBase):
        self.server = server
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._error: Optional[BaseException] = None

    async def _main(self) -> None:
        try:
            await self.server.start()
        except BaseException as error:
            self._error = error
            self._ready.set()
            raise
        self._ready.set()
        try:
            await self.server.wait_stopped()
        finally:
            await self.server.stop()

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as error:  # surfaced via start()/stop()
            if self._error is None:
                self._error = error
            self._ready.set()

    def start(self, timeout: float = 10.0) -> "ServerThread":
        self._thread = threading.Thread(
            target=self._run, name="repro-serve", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError("server did not start in time")
        if self._error is not None:
            raise RuntimeError(f"server failed to start: {self._error}")
        return self

    def stop(self, timeout: float = 10.0) -> None:
        if self._thread is None:
            return
        self.server.request_stop_threadsafe()
        self._thread.join(timeout)
        if self._thread.is_alive():
            raise RuntimeError("server thread did not stop in time")
        self._thread = None
