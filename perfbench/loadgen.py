"""Open-loop, pipelined HTTP/1.1 load generator.

One thread drives every connection through a ``select`` loop.  Each
request is written when it falls due, whether or not earlier replies
on its connection have arrived, so a server stall queues the requests
behind it instead of thinning them out.  Replies on a connection come
back in request order (HTTP/1.1 pipelining), so the i-th reply answers
the i-th request.

Only framing happens while the clock runs: bodies are kept as bytes
and checked after the window.  ``select`` is used rather than epoll
because its timeout has microsecond resolution, which keeps the
generator's own lateness well under the read latencies it measures.
"""

from __future__ import annotations

import gc
import selectors
import socket
import time
from typing import Callable, List, Optional, Sequence

from workloads import Request

clock = time.monotonic

_HEADER_END = b"\r\n\r\n"
_LENGTH = b"Content-Length: "


class Connection:
    """One keep-alive connection and the record of everything sent on it."""

    def __init__(self, host: str, port: int, schedule: Sequence[Request], origin: float):
        self.requests = list(schedule)
        n = len(self.requests)
        self.due = [origin + request.due for request in self.requests]
        self.sent = [0.0] * n
        self.recv = [0.0] * n
        self.status = [0] * n
        self.body: List[Optional[bytes]] = [None] * n
        self.next_send = 0
        self.next_recv = 0
        self.error: Optional[str] = None
        self._out = bytearray()
        self._in = bytearray()
        self._bodies: dict = {}
        self.sock = socket.create_connection((host, port), timeout=10.0)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setblocking(False)

    @property
    def done(self) -> bool:
        return self.error is not None or self.next_recv == len(self.requests)

    def next_due(self) -> Optional[float]:
        if self.error is None and self.next_send < len(self.requests):
            return self.due[self.next_send]
        return None

    def send_due(self, now: float) -> None:
        while self.next_send < len(self.requests) and self.due[self.next_send] <= now:
            self._out += self.requests[self.next_send].data
            self.sent[self.next_send] = now
            self.next_send += 1
        self.flush()

    def flush(self) -> None:
        if not self._out or self.error is not None:
            return
        try:
            written = self.sock.send(self._out)
        except BlockingIOError:
            return
        except OSError as error:
            self.error = f"send: {error}"
            return
        del self._out[:written]

    @property
    def wants_write(self) -> bool:
        return bool(self._out) and self.error is None

    def on_readable(self, now: float) -> None:
        try:
            data = self.sock.recv(1 << 20)
        except BlockingIOError:
            return
        except OSError as error:
            self.error = f"recv: {error}"
            return
        if not data:
            self.error = "server closed the connection"
            return
        buf = self._in
        buf += data
        pos = 0
        while True:
            end = buf.find(_HEADER_END, pos)
            if end < 0:
                break
            at = buf.find(_LENGTH, pos, end)
            line_end = buf.find(b"\r\n", at, end + 2)
            length = int(buf[at + len(_LENGTH):line_end])
            start = end + len(_HEADER_END)
            if len(buf) < start + length:
                break
            i = self.next_recv
            if i >= len(self.requests):
                self.error = "reply without a request"
                return
            self.status[i] = int(buf[pos + 9:pos + 12])
            body = bytes(buf[start:start + length])
            # Snapshot reads repeat byte-identical bodies for a whole
            # epoch; keeping one copy bounds the generator's memory.
            self.body[i] = self._bodies.setdefault(body, body)
            self.recv[i] = now
            self.next_recv = i + 1
            pos = start + length
        del buf[:pos]

    def close(self) -> None:
        self.sock.close()


def drive(
    conns: List[Connection],
    edges: Sequence[float],
    on_edge: Callable[[int], None],
    drain_timeout: float = 10.0,
) -> None:
    """Send every request when due and read replies until all arrive.

    ``edges`` are ascending absolute times: the measured window runs
    from the first to the last, and ``on_edge(k)`` fires on the first
    loop turn at or past ``edges[k]``.  Replies still missing
    ``drain_timeout`` seconds after the window are left unanswered (the
    caller counts them as failed).
    """
    selector = selectors.SelectSelector()
    for conn in conns:
        selector.register(conn.sock, selectors.EVENT_READ, conn)
    passed = 0
    # A collector pause would show up as server latency.
    gc.collect()
    gc.disable()
    try:
        while True:
            now = clock()
            while passed < len(edges) and now >= edges[passed]:
                on_edge(passed)
                passed += 1
            ended = passed == len(edges)
            for conn in conns:
                conn.send_due(now)
                events = selectors.EVENT_READ | (selectors.EVENT_WRITE if conn.wants_write else 0)
                if selector.get_key(conn.sock).events != events:
                    selector.modify(conn.sock, events, conn)
            if all(conn.done for conn in conns) and ended:
                break
            if now > edges[-1] + drain_timeout:
                break
            dues = [due for due in (conn.next_due() for conn in conns) if due is not None]
            if not ended:
                dues.append(edges[passed])
            timeout = max(0.0, min(dues) - clock()) if dues else 0.05
            for key, mask in selector.select(timeout):
                conn = key.data
                if mask & selectors.EVENT_READ:
                    conn.on_readable(clock())
                if mask & selectors.EVENT_WRITE:
                    conn.flush()
    finally:
        gc.enable()
        selector.close()
