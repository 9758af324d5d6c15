"""Blocking HTTP client for the allocation service, and the routes every client shares.

:class:`ServeClient` is used by the integration tests, the CI
service-smoke driver and anyone scripting against ``python -m repro
serve`` without an event loop.  Each route's request payload and reply
decoding are written once, in :class:`_Routes`; the shard coordinator's
non-blocking :class:`~repro.serve.link.CellLink` inherits the same
methods, so the two clients cannot drift apart on the wire format.

Transport is a **pooled persistent connection per thread**: the server
speaks HTTP/1.1 keep-alive, so one ``http.client.HTTPConnection`` is
reused across calls (connections live in a ``threading.local``, so a
single :class:`ServeClient` is still safe to share across threads).
A stale pooled socket — the server closed its end between our requests,
e.g. after an idle timeout or a restart — is reconnected once,
transparently; idempotent GETs get the same single transparent retry on
*any* transport failure.  Transport failures that survive the retry are
raised as :class:`ServeError` with ``status=0`` and the ``host:port``
in the message, never as bare ``ConnectionError``.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time
from typing import Callable, Dict, Iterable, Optional, Sequence, Tuple, TypeVar, Union

from .protocol import (
    AgentRequest,
    AgentResponse,
    AllocationResponse,
    BulkSampleRequest,
    BulkSampleResponse,
    CapacityRequest,
    CapacityResponse,
    CellsResponse,
    HealthResponse,
    SampleRequest,
    SampleResponse,
    parse_json,
)

__all__ = ["ServeClient", "ServeError"]

T = TypeVar("T")

#: Signatures of a pooled socket the server closed between our requests
#: (idle-timeout reap, restart).  The request was never processed, so a
#: single transparent retry on a fresh connection is safe for any method.
_STALE_SOCKET_ERRORS = (
    http.client.RemoteDisconnected,
    http.client.BadStatusLine,
    http.client.CannotSendRequest,
    ConnectionResetError,
    BrokenPipeError,
    ConnectionAbortedError,
)


class ServeError(RuntimeError):
    """A non-2xx response from the service, or a transport failure.

    ``status`` is the HTTP status for protocol-level errors and ``0``
    for transport failures (connection refused/reset, stale socket that
    survived the retry, timeouts) — check :attr:`is_transport`.
    """

    def __init__(self, status: int, error: str, detail: str = ""):
        message = f"transport: {error}" if status == 0 else f"HTTP {status}: {error}"
        if detail:
            message += f" ({detail})"
        super().__init__(message)
        self.status = status
        self.error = error
        self.detail = detail

    @property
    def is_transport(self) -> bool:
        """True when no HTTP response was obtained at all (``status == 0``)."""
        return self.status == 0


class _Routes:
    """The service's JSON routes, each a request payload and a reply decoder.

    A transport provides ``_call(method, path, payload, decode)``, which
    sends the request and returns :meth:`_decode` of the answer:
    :class:`ServeClient` returns it, the coordinator's non-blocking
    :class:`~repro.serve.link.CellLink` returns a coroutine resolving
    to it.  Works against both a flat
    :class:`~repro.serve.server.AllocationServer` and a
    :class:`~repro.serve.shard.ShardCoordinator` (same dialect; the
    coordinator adds ``GET /v1/cells``).
    """

    def _call(
        self,
        method: str,
        path: str,
        payload: Optional[Dict[str, object]],
        decode: Callable[[Dict[str, object]], T],
    ) -> T:
        raise NotImplementedError

    @staticmethod
    def _retryable(method: str, reused: bool, error: Exception) -> bool:
        """Whether a failed first attempt gets its one transparent retry."""
        stale = reused and isinstance(error, _STALE_SOCKET_ERRORS)
        return stale or method == "GET"

    def _transport_error(self, method: str, path: str, error: Exception) -> ServeError:
        """The :class:`ServeError` of a transport failure that survived the retry."""
        return ServeError(
            0,
            "transport_error",
            f"{method} {path} on {self.host}:{self.port}: {type(error).__name__}: {error}",
        )

    @staticmethod
    def _decode(status: int, text: str, decode: Callable[[Dict[str, object]], T]) -> T:
        """A reply: ``decode`` of a 200 body, else the error the body carries."""
        data = parse_json(text)
        if status != 200:
            raise ServeError(
                status,
                str(data.get("error", "unknown")),
                str(data.get("detail", "")),
            )
        return decode(data)

    def register(
        self,
        agent: str,
        workload: Optional[str] = None,
        workload_class: Optional[str] = None,
    ) -> AgentResponse:
        """Admit ``agent`` running benchmark ``workload``.

        ``workload=None`` sends the *profile-free* register variant
        (``"profile": null``) — the server must be running with
        ``--learn-demands`` and will learn the agent's demands online
        from its samples.  ``workload_class`` optionally hints the
        agent's class (``"C"``/``"M"``) for centroid priors; with a
        workload it is refused (:class:`~repro.serve.protocol.ProtocolError`)
        before anything is sent.
        """
        request = AgentRequest(
            "register",
            agent,
            workload=workload,
            profile_free=workload is None,
            workload_class=workload_class,
        )
        return self._call("POST", "/v1/agents", request.as_dict(), AgentResponse.from_dict)

    def deregister(self, agent: str) -> AgentResponse:
        """Retire ``agent``; capacity is re-divided from the next epoch."""
        request = AgentRequest("deregister", agent)
        return self._call("POST", "/v1/agents", request.as_dict(), AgentResponse.from_dict)

    def submit_sample(
        self,
        agent: str,
        bandwidth_gbps: float,
        cache_kb: float,
        ipc: float,
        exploration: bool = False,
    ) -> SampleResponse:
        """Queue one measured (bundle, IPC) observation for the next epoch.

        ``exploration=True`` marks a deliberately perturbed measurement
        so the server's outlier gate does not reject it.
        """
        request = SampleRequest(
            agent=agent,
            bandwidth_gbps=bandwidth_gbps,
            cache_kb=cache_kb,
            ipc=ipc,
            exploration=exploration,
        )
        return self._call("POST", "/v1/samples", request.as_dict(), SampleResponse.from_dict)

    def post_samples_bulk(
        self,
        samples: Iterable[Union[SampleRequest, Tuple[str, float, float, float]]],
    ) -> BulkSampleResponse:
        """Ship an epoch's worth of measurements in ONE round trip.

        ``samples`` is a sequence of :class:`SampleRequest` objects or
        ``(agent, bandwidth_gbps, cache_kb, ipc)`` tuples.  The response
        reports per-sample accept/reject, index-aligned with the input.
        """
        request = BulkSampleRequest(
            samples=tuple(
                item
                if isinstance(item, SampleRequest)
                else SampleRequest(
                    agent=item[0],
                    bandwidth_gbps=item[1],
                    cache_kb=item[2],
                    ipc=item[3],
                )
                for item in samples
            )
        )
        return self._call(
            "POST", "/v1/samples", request.as_dict(), BulkSampleResponse.from_dict
        )

    def grant_capacity(self, capacities: Dict[str, float]) -> CapacityResponse:
        """Apply a hierarchical capacity grant (coordinator → cell worker).

        Returns the cell's post-grant state, including the aggregate
        elasticities the next Eq. 13 split needs.
        """
        request = CapacityRequest(capacities=dict(capacities))
        return self._call(
            "POST", "/v1/capacity", request.as_dict(), CapacityResponse.from_dict
        )

    def cells(self) -> CellsResponse:
        """The coordinator's shard map (coordinator-only route)."""
        return self._call("GET", "/v1/cells", None, CellsResponse.from_dict)

    def allocation(self) -> AllocationResponse:
        """The current epoch's enforced allocation."""
        return self._call("GET", "/v1/allocation", None, AllocationResponse.from_dict)

    def health(self) -> HealthResponse:
        return self._call("GET", "/healthz", None, HealthResponse.from_dict)


class ServeClient(_Routes):
    """Thin, typed, blocking client over the service's routes (:class:`_Routes`)."""

    def __init__(self, host: str, port: int, timeout: float = 10.0):
        self.host = host
        self.port = int(port)
        self.timeout = timeout
        self._local = threading.local()

    # ------------------------------------------------------------------
    # Transport

    def _connection(self) -> Tuple[http.client.HTTPConnection, bool]:
        """This thread's pooled connection, plus whether it is reused."""
        connection = getattr(self._local, "connection", None)
        if connection is not None:
            return connection, True
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        self._local.connection = connection
        return connection, False

    def _discard(self) -> None:
        """Drop (and close) this thread's pooled connection, if any."""
        connection = getattr(self._local, "connection", None)
        self._local.connection = None
        if connection is not None:
            try:
                connection.close()
            except OSError:  # pragma: no cover - close is best-effort
                pass

    def close(self) -> None:
        """Close this thread's pooled connection (idempotent)."""
        self._discard()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def _request(
        self, method: str, path: str, payload: Optional[Dict[str, object]] = None
    ) -> Tuple[int, str]:
        body = None
        headers: Dict[str, str] = {}
        if payload is not None:
            body = json.dumps(payload)
            headers["Content-Type"] = "application/json"
        for attempt in (0, 1):
            connection, reused = self._connection()
            try:
                connection.request(method, path, body=body, headers=headers)
                response = connection.getresponse()
                text = response.read().decode("utf-8", "replace")
                if response.will_close:
                    # The server asked to close (e.g. it answered a
                    # parse error); start fresh next call.
                    self._discard()
                return response.status, text
            except (http.client.HTTPException, OSError) as error:
                self._discard()
                if attempt == 0 and self._retryable(method, reused, error):
                    continue  # one transparent reconnect
                raise self._transport_error(method, path, error) from error
        raise AssertionError("unreachable")  # pragma: no cover

    def _call(self, method, path, payload, decode):
        status, text = self._request(method, path, payload)
        return self._decode(status, text, decode)

    def metrics_text(self) -> str:
        """Raw Prometheus text exposition from ``GET /metrics``."""
        status, text = self._request("GET", "/metrics")
        if status != 200:
            raise ServeError(status, "metrics_unavailable", text[:200])
        return text

    # ------------------------------------------------------------------
    # Conveniences

    def wait_ready(
        self,
        timeout: float = 10.0,
        interval: float = 0.05,
        require: "str | Sequence[str]" = ("ok", "degraded"),
    ) -> HealthResponse:
        """Poll ``/healthz`` until the service is serving (or raise TimeoutError).

        A *degraded* sharded coordinator — alive and serving after a
        worker death — counts as ready by default: the health object is
        returned and callers branch on ``health.status``.  Callers that
        genuinely need a fully healthy fleet pass ``require="ok"`` (a
        single status or any sequence of acceptable statuses).
        """
        accepted = (require,) if isinstance(require, str) else tuple(require)
        deadline = time.monotonic() + timeout
        last_error: Optional[Exception] = None
        last_status: Optional[str] = None
        while time.monotonic() < deadline:
            try:
                health = self.health()
                last_status = health.status
                if health.status in accepted:
                    return health
            except (OSError, socket.timeout, ServeError, ValueError) as error:
                last_error = error
            time.sleep(interval)
        detail = (
            f"last status {last_status!r}" if last_status is not None else last_error
        )
        raise TimeoutError(f"service not ready after {timeout}s: {detail}")

    def wait_for_epoch(self, epoch: int, timeout: float = 10.0) -> HealthResponse:
        """Block until the service has completed at least ``epoch`` epochs."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            health = self.health()
            if health.epoch >= epoch:
                return health
            time.sleep(0.01)
        raise TimeoutError(f"epoch {epoch} not reached after {timeout}s")
