"""The shard coordinator's non-blocking link to one cell worker.

A :class:`CellLink` is one HTTP/1.1 keep-alive connection, an
``asyncio.Protocol`` on the coordinator's own event loop: no executor
thread carries a cell RPC.  Each request is framed in one buffer and
sent with one ``write``; concurrent requests are *pipelined* on the one
connection, which the cell's front end answers in request order, so
replies are matched to waiters first-in, first-out.  A reply is framed
by its ``Content-Length``; ``Connection: close`` ends the connection
after it.

Failures follow the rule :class:`~repro.serve.client.ServeClient`
follows, from the base both share: a request on a connection that
already carried one, failed by a stale signature (the peer closed
before any byte of its reply), is retried once on a fresh connection; a
failed GET is retried once whatever the failure; anything left is a
:class:`~repro.serve.client.ServeError` with ``status=0``.  When the
connection drops, or the oldest request outlives ``timeout`` (the
connection is then aborted), every request in flight fails at once.

The route methods (``register``, ``post_samples_bulk``,
``grant_capacity``, ...) are ``ServeClient``'s, returning coroutines.
Each one sends through :meth:`CellLink._request`, the one place a cell
RPC is written and its ``(status, text)`` reply awaited.
"""

from __future__ import annotations

import asyncio
import http.client
import json
from collections import deque
from typing import Deque, Dict, Optional, Tuple

from .client import _Routes

__all__ = ["CellLink"]

#: Largest reply head the link buffers before it calls the reply malformed.
_MAX_REPLY_HEAD = 1 << 16


class _LinkProtocol(asyncio.Protocol):
    """One connection of a :class:`CellLink`: pipelined requests, FIFO replies."""

    def __init__(self, link: "CellLink"):
        self._link = link
        self._loop = asyncio.get_running_loop()
        self._transport: Optional[asyncio.Transport] = None
        self._buffer = bytearray()
        #: ``(reply future, deadline)`` of each request in flight, oldest first.
        self._waiting: Deque[Tuple[asyncio.Future, float]] = deque()
        self._sent = 0
        self._timer: Optional[asyncio.TimerHandle] = None
        #: No further request may be written (closed, closing or failed).
        self.closed = False
        self.lost: asyncio.Future = self._loop.create_future()

    # ------------------------------------------------------------------
    # asyncio.Protocol callbacks

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self._transport = transport  # type: ignore[assignment]

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self._lose(exc)
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        if self._link._protocol is self:
            self._link._protocol = None
        if not self.lost.done():
            self.lost.set_result(None)

    def eof_received(self) -> bool:
        self._lose(None)
        return False  # the transport closes itself

    def data_received(self, data: bytes) -> None:
        self._buffer += data
        try:
            close = self._parse()
        except http.client.HTTPException as error:
            self._fail(error)
            self._transport.abort()
            return
        if close:
            # The requests behind a ``Connection: close`` reply were
            # never answered.
            self._fail(http.client.RemoteDisconnected("server closed the connection"))
            self._transport.close()

    # ------------------------------------------------------------------
    # Requests and replies

    def send(self, data: bytes, timeout: float) -> Tuple[asyncio.Future, bool]:
        """Write one framed request.

        Returns the future of its ``(status, text)`` reply, and whether
        another request was written on this connection before it.
        """
        future = self._loop.create_future()
        reused = self._sent > 0
        if self.closed:
            future.set_exception(http.client.CannotSendRequest("connection closed"))
            return future, reused
        self._waiting.append((future, self._loop.time() + timeout))
        self._sent += 1
        self._transport.write(data)
        if self._timer is None:
            self._timer = self._loop.call_at(self._waiting[0][1], self._expire)
        return future, reused

    def _parse(self) -> bool:
        """Hand every complete reply in the buffer to its waiter, in order.

        Returns True after a ``Connection: close`` reply.
        """
        buffer = self._buffer
        start = 0
        try:
            while start < len(buffer):
                if not self._waiting:
                    raise http.client.HTTPException("reply without a request")
                head_end = buffer.find(b"\r\n\r\n", start)
                if head_end < 0:
                    if len(buffer) - start > _MAX_REPLY_HEAD:
                        raise http.client.LineTooLong("reply head")
                    return False
                lines = buffer[start:head_end].decode("latin-1").split("\r\n")
                parts = lines[0].split(None, 2)
                if len(parts) < 2 or not parts[0].startswith("HTTP/1.") or not parts[1].isdigit():
                    raise http.client.BadStatusLine(lines[0])
                length = None
                close = False
                for line in lines[1:]:
                    name, _, value = line.partition(":")
                    name, value = name.strip().lower(), value.strip()
                    if name == "content-length" and value.isdigit():
                        length = int(value)
                    elif name == "connection":
                        close = value.lower() == "close"
                if length is None:
                    raise http.client.HTTPException("reply without a Content-Length")
                end = head_end + 4 + length
                if len(buffer) < end:
                    return False
                text = buffer[head_end + 4 : end].decode("utf-8", "replace")
                start = end
                future, _ = self._waiting.popleft()
                if not future.done():  # its caller may have been cancelled
                    future.set_result((int(parts[1]), text))
                if close:
                    return True
            return False
        finally:
            del buffer[:start]

    def _lose(self, exc: Optional[Exception]) -> None:
        """The peer closed or reset the connection.

        The oldest request fails as an ``IncompleteRead`` (never stale)
        when part of its reply had arrived; the rest as disconnected.
        """
        if self._buffer and self._waiting:
            future, _ = self._waiting.popleft()
            if not future.done():
                future.set_exception(http.client.IncompleteRead(bytes(self._buffer)))
        if exc is None:
            exc = http.client.RemoteDisconnected("Remote end closed connection without response")
        self._fail(exc)

    def _fail(self, error: Exception) -> None:
        """Fail every request in flight; the connection takes no more."""
        self.closed = True
        self._buffer.clear()
        while self._waiting:
            future, _ = self._waiting.popleft()
            if not future.done():
                future.set_exception(error)

    def _expire(self) -> None:
        # One timer, re-armed for the oldest request rather than
        # replaced per request: replies arrive in order, so the oldest
        # request has the earliest deadline.
        self._timer = None
        if not self._waiting:
            return
        deadline = self._waiting[0][1]
        if deadline > self._loop.time():
            self._timer = self._loop.call_at(deadline, self._expire)
            return
        self._fail(TimeoutError("timed out"))
        self._transport.abort()

    def close(self) -> None:
        self.closed = True
        self._transport.close()


def _retrieve(task: asyncio.Task) -> None:
    """Mark a finished task's exception as seen, whoever awaits it."""
    if not task.cancelled():
        task.exception()


class CellLink(_Routes):
    """A pipelined, non-blocking HTTP/1.1 keep-alive link to one cell.

    Created without a loop; the connection opens on the first request,
    on the running loop, and re-opens after a failure.  ``close`` ends
    it for good.
    """

    def __init__(self, host: str, port: int, timeout: float = 10.0):
        self.host = host
        self.port = int(port)
        self.timeout = float(timeout)
        self._protocol: Optional[_LinkProtocol] = None
        self._connecting: Optional[asyncio.Task] = None
        self._closed = False

    # ------------------------------------------------------------------
    # Transport

    async def _open(self) -> _LinkProtocol:
        """Open one connection to the cell."""
        loop = asyncio.get_running_loop()
        try:
            _, protocol = await asyncio.wait_for(
                loop.create_connection(lambda: _LinkProtocol(self), self.host, self.port),
                self.timeout,
            )
        except asyncio.TimeoutError:
            raise TimeoutError("timed out") from None
        return protocol

    async def _connect(self) -> _LinkProtocol:
        self._protocol = await self._open()
        return self._protocol

    async def _connection(self) -> _LinkProtocol:
        """The open connection, or the one concurrent requests are opening."""
        if self._closed:
            raise ConnectionAbortedError("link closed")
        protocol = self._protocol
        if protocol is not None and not protocol.closed:
            return protocol
        connecting = self._connecting
        if connecting is None or connecting.done():
            connecting = asyncio.get_running_loop().create_task(self._connect())
            connecting.add_done_callback(_retrieve)
            self._connecting = connecting
        # Shielded: a cancelled request must not cancel the others' connect.
        return await asyncio.shield(connecting)

    async def _request(
        self, method: str, path: str, payload: Optional[Dict[str, object]] = None
    ) -> Tuple[int, str]:
        """Send one request and await its reply as ``(status, text)``."""
        head = f"{method} {path} HTTP/1.1\r\nHost: {self.host}:{self.port}\r\n"
        body = b""
        if payload is not None:
            body = json.dumps(payload).encode()
            head += f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
        data = head.encode("latin-1") + b"\r\n" + body
        for attempt in (0, 1):
            reused = False
            try:
                protocol = await self._connection()
                future, reused = protocol.send(data, self.timeout)
                return await future
            except (http.client.HTTPException, OSError) as error:
                if attempt == 0 and self._retryable(method, reused, error):
                    continue  # one transparent reconnect
                raise self._transport_error(method, path, error) from error
        raise AssertionError("unreachable")  # pragma: no cover

    async def _call(self, method, path, payload, decode):
        status, text = await self._request(method, path, payload)
        return self._decode(status, text, decode)

    async def close(self) -> None:
        """Close the connection for good, failing any request in flight."""
        self._closed = True
        if self._connecting is not None and not self._connecting.done():
            await asyncio.wait([self._connecting])
        protocol, self._protocol = self._protocol, None
        if protocol is not None:
            protocol.close()
            await protocol.lost
