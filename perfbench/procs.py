"""Spawning, timing and reaping ``python -m repro serve`` process trees."""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import threading
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional

clock = time.monotonic

_LISTEN_RE = re.compile(r"listening on http://[\d.]+:(\d+)")
_TICKS = os.sysconf("SC_CLK_TCK")


class ServerError(RuntimeError):
    """The server did not start, answer or stop as the benchmark requires."""


def _children(pid: int) -> List[int]:
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        # Field 4 (ppid) follows the parenthesised command name.
        if int(stat.rsplit(")", 1)[1].split()[1]) == pid:
            found.append(int(entry))
    return found


def process_tree(pid: int) -> List[int]:
    tree, frontier = [pid], [pid]
    while frontier:
        frontier = [child for parent in frontier for child in _children(parent)]
        tree += frontier
    return tree


def cpu_seconds(pids: Iterable[int]) -> float:
    """utime + stime of ``pids``, from ``/proc/<pid>/stat``."""
    total = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        total += int(fields[11]) + int(fields[12])
    return total / _TICKS


def peak_rss_mb(pids: Iterable[int]) -> float:
    """Sum of VmHWM (peak resident set) over ``pids``, in MiB."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            continue
    return total_kb / 1024.0


def _alive(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie awaiting its reaper."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


class Server:
    """One ``python -m repro serve`` process (and, sharded, its cells)."""

    def __init__(self, command: List[str], env: Dict[str, str], cwd: Path, log: Path):
        self.command = command
        self.env = env
        self.cwd = cwd
        self.log_path = log
        self.process: Optional[subprocess.Popen] = None
        self.port = 0
        self.lines: List[str] = []
        self._log = None
        self._reader: Optional[threading.Thread] = None
        self._listening = threading.Event()
        self.spawned_at = 0.0

    def spawn(self, timeout: float = 60.0) -> None:
        """Start the server and wait for its listen line."""
        self._log = open(self.log_path, "w")
        self.spawned_at = clock()
        # A session of its own, so a failed run can kill cells too.
        self.process = subprocess.Popen(
            self.command,
            cwd=self.cwd,
            env=self.env,
            stdout=subprocess.PIPE,
            stderr=self._log,
            text=True,
            start_new_session=True,
        )
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()
        if not self._listening.wait(timeout):
            raise ServerError(f"no listen line within {timeout:g}s; see {self.log_path}")
        if not self.port:
            raise ServerError(
                f"server exited before binding (rc={self.process.poll()}); "
                f"see {self.log_path}"
            )

    def _drain(self) -> None:
        assert self.process is not None and self.process.stdout is not None
        for line in self.process.stdout:
            self.lines.append(line.rstrip("\n"))
            match = _LISTEN_RE.search(line)
            if match and not self.port:
                self.port = int(match.group(1))
                self._listening.set()
        self._listening.set()

    def wait_allocation(self, agents: Iterable[str], timeout: float = 60.0) -> float:
        """Poll ``GET /v1/allocation`` until it lists ``agents``.

        Returns seconds from spawn to that reply: the set-up time.
        """
        wanted = set(agents)
        deadline = clock() + timeout
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10.0)
        try:
            while clock() < deadline:
                conn.request("GET", "/v1/allocation")
                reply = conn.getresponse()
                body = reply.read()
                if reply.status == 200 and wanted <= set(json.loads(body)["shares"]):
                    return clock() - self.spawned_at
                time.sleep(0.002)
        finally:
            conn.close()
        raise ServerError(f"allocation never listed all {len(wanted)} agents")

    def post(self, path: str, raw_request: bytes) -> bytes:
        """Send one pre-encoded request on a fresh connection; return its body."""
        head, _, body = raw_request.partition(b"\r\n\r\n")
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60.0)
        try:
            conn.request("POST", path, body=body, headers={"Content-Type": "application/json"})
            reply = conn.getresponse()
            data = reply.read()
        finally:
            conn.close()
        if reply.status != 200:
            raise ServerError(f"POST {path} answered {reply.status}: {data[:200]!r}")
        return data

    def tree(self) -> List[int]:
        assert self.process is not None
        return process_tree(self.process.pid)

    def stop(self, timeout: float = 60.0) -> Optional[str]:
        """SIGTERM the server; returns a problem description or None.

        The server must exit 0 and print a ``feasible=True`` summary.
        """
        if self.process is None:
            return None
        tree = process_tree(self.process.pid) if self.process.poll() is None else []
        self.process.send_signal(signal.SIGTERM)
        problem = None
        try:
            rc = self.process.wait(timeout)
        except subprocess.TimeoutExpired:
            problem = f"server did not exit within {timeout:g}s of SIGTERM"
            self.kill()
            rc = self.process.returncode
        if self._reader is not None:
            self._reader.join(10.0)
        self._wait_gone(tree)
        self._close_log()
        if problem is None and rc != 0:
            problem = f"server exited {rc} after SIGTERM: {self.lines[-1:]}"
        if problem is None and not any("feasible=True" in line for line in self.lines[-3:]):
            problem = f"no feasible=True summary at shutdown: {self.lines[-3:]}"
        return problem

    def kill(self) -> None:
        """SIGKILL the whole session (cells included) and reap it."""
        if self.process is None:
            return
        tree = process_tree(self.process.pid) if self.process.poll() is None else []
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.process.wait(30.0)
        if self._reader is not None:
            self._reader.join(10.0)
        self._wait_gone(tree)
        self._close_log()

    def _wait_gone(self, pids: Iterable[int], timeout: float = 30.0) -> None:
        deadline = clock() + timeout
        for pid in pids:
            while _alive(pid) and clock() < deadline:
                time.sleep(0.01)

    def _close_log(self) -> None:
        if self._log is not None:
            self._log.close()
            self._log = None
