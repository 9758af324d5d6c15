"""Span recording for a traced benchmark run, loaded at interpreter start.

Python imports ``sitecustomize`` from ``sys.path`` during start-up.  For a
traced run the benchmark puts this directory on the server's
``PYTHONPATH`` and names an output directory in ``PERFBENCH_TRACE_DIR``;
cell workers inherit both, so every process of ``python -m repro serve``
is traced and ``src/`` stays unmodified.  Without the variable this
module does nothing.

A post-import hook wraps each layer's public calls as soon as the module
that binds them has executed.  Names are patched where the caller looks
them up (``repro.dynamic.controller.fit_cobb_douglas_batch``, not
``repro.core.fitting``).  Each span records its name, start, end, parent
span and the id of the ``DynamicAllocator.step`` tick it ran under.
Spans stay in memory; at exit the process writes those that started
inside the measured window (``window.json``, written by the benchmark
before it stops the server) to ``spans-<pid>.bin`` — never to stdout,
which the shard coordinator stops draining after a cell's listen line.
"""

from __future__ import annotations

import os

_OUT = os.environ.get("PERFBENCH_TRACE_DIR")

if _OUT:
    import array
    import asyncio
    import atexit
    import functools
    import importlib.abc
    import itertools
    import json
    import sys
    import threading
    import time

    now = time.monotonic

    class _Spans:
        """Column store of finished spans; appends are serialised by a lock."""

        COLUMNS = (
            ("sid", "q"), ("name", "H"), ("start", "d"), ("end", "d"),
            ("parent", "q"), ("tick", "q"), ("n", "d"), ("main", "b"),
        )

        def __init__(self):
            self.names = {}
            self.cols = {key: array.array(code) for key, code in self.COLUMNS}
            self.lock = threading.Lock()
            self.ids = itertools.count()
            self.local = threading.local()
            self.registry_calls = array.array("d")
            self.registry_spent = array.array("d")
            self.lag_at = array.array("d")
            self.lag = array.array("d")
            self.tasks = []

        def name_id(self, name):
            return self.names.setdefault(name, len(self.names))

        def record(self, sid, nid, start, end, parent, tick, n):
            main = threading.current_thread() is threading.main_thread()
            cols = self.cols
            with self.lock:
                cols["sid"].append(sid)
                cols["name"].append(nid)
                cols["start"].append(start)
                cols["end"].append(end)
                cols["parent"].append(parent)
                cols["tick"].append(tick)
                cols["n"].append(n)
                cols["main"].append(main)

        def wrap(self, name, fn, count=None, tick=False):
            """Record a span around each call of the synchronous ``fn``.

            ``count(args, result)`` gives the span's work count; ``tick``
            marks the span that opens a new controller tick.
            """
            nid = self.name_id(name)
            local = self.local

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                stack = getattr(local, "stack", None)
                if stack is None:
                    stack = local.stack = []
                    local.tick = -1
                sid = next(self.ids)
                parent = stack[-1] if stack else -1
                outer_tick = local.tick
                if tick:
                    local.tick = sid
                stack.append(sid)
                n = -1.0
                start = now()
                try:
                    result = fn(*args, **kwargs)
                    if count is not None:
                        n = float(count(args, result))
                    return result
                finally:
                    end = now()
                    stack.pop()
                    self.record(sid, nid, start, end, parent, local.tick, n)
                    local.tick = outer_tick

            return traced

        def wrap_async(self, name, fn):
            """Span around an awaited call; it spans its awaits, so it
            takes no children and is nobody's child."""
            nid = self.name_id(name)

            @functools.wraps(fn)
            async def traced(*args, **kwargs):
                sid = next(self.ids)
                start = now()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    self.record(sid, nid, start, now(), -1, -1, -1.0)

            return traced

        def counted(self, fn):
            """Count each call with its start and duration, but no span:
            registry lookups are too frequent to keep one per call."""
            calls, spent, lock = self.registry_calls, self.registry_spent, self.lock

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                start = now()
                try:
                    return fn(*args, **kwargs)
                finally:
                    end = now()
                    with lock:
                        calls.append(start)
                        spent.append(end - start)

            return traced

        async def probe(self):
            """Oversleep of a 1 ms sleep: how late the event loop runs."""
            while True:
                started = now()
                await asyncio.sleep(0.001)
                self.lag_at.append(started)
                self.lag.append(now() - started - 0.001)

        def dump(self):
            try:
                with open(os.path.join(_OUT, "window.json")) as handle:
                    first, last = json.load(handle)
            except (OSError, ValueError):
                return  # no measured window: a set-up-only server
            with self.lock:
                starts = self.cols["start"]
                keep = [i for i, t in enumerate(starts) if first <= t < last]
                cols = {
                    key: array.array(code, (self.cols[key][i] for i in keep))
                    for key, code in self.COLUMNS
                }
                inside = [
                    (t, d) for t, d in zip(self.registry_calls, self.registry_spent)
                    if first <= t < last
                ]
            calls = array.array("d", (t for t, _ in inside))
            spent = array.array("d", (d for _, d in inside))
            lag = array.array(
                "d", (v for t, v in zip(self.lag_at, self.lag) if first <= t < last)
            )
            header = {
                "pid": os.getpid(),
                "ppid": os.getppid(),
                "names": sorted(self.names, key=self.names.get),
                "spans": len(keep),
                "registry_calls": len(calls),
                "lag": len(lag),
                "columns": [key for key, _ in self.COLUMNS],
            }
            path = os.path.join(_OUT, f"spans-{os.getpid()}.bin")
            with open(path + ".tmp", "wb") as handle:
                handle.write(json.dumps(header).encode() + b"\n")
                for key, _ in self.COLUMNS:
                    cols[key].tofile(handle)
                calls.tofile(handle)
                spent.tofile(handle)
                lag.tofile(handle)
            os.replace(path + ".tmp", path)

    SPANS = _Spans()
    atexit.register(SPANS.dump)

    def _method(cls, attr, name, **options):
        setattr(cls, attr, SPANS.wrap(name, getattr(cls, attr), **options))

    def _samples_in(args, result):
        return len(result.get("samples", ())) if isinstance(result, dict) else 0

    def _patch_server(module):
        base = module.HttpServerBase
        start = base.start

        async def start_with_probe(self):
            await start(self)
            SPANS.tasks.append(asyncio.get_running_loop().create_task(SPANS.probe()))

        base.start = start_with_probe
        snapshot = base._snapshot
        render = SPANS.wrap("protocol.render", snapshot)

        def traced_snapshot(self, route, build):
            if route == "/v1/allocation" and route not in self._snapshots:
                return render(self, route, build)
            return snapshot(self, route, build)

        base._snapshot = traced_snapshot
        module.parse_json = SPANS.wrap("protocol.parse_json", module.parse_json, _samples_in)
        module.to_prometheus = SPANS.wrap("obs.to_prometheus", module.to_prometheus)

    def _patch_shard(module):
        module.parse_json = SPANS.wrap("protocol.parse_json", module.parse_json, _samples_in)
        module.to_prometheus = SPANS.wrap("obs.to_prometheus", module.to_prometheus)
        module.split_capacity = SPANS.wrap("hierarchy.split", module.split_capacity)
        coordinator = module.ShardCoordinator
        coordinator._grant_round_locked = SPANS.wrap_async(
            "shard.grant_round", coordinator._grant_round_locked
        )
        coordinator._merged_allocation_locked = SPANS.wrap_async(
            "shard.merge", coordinator._merged_allocation_locked
        )

    def _patch_batching(module):
        batcher = module.SampleBatcher
        _method(batcher, "add_many", "batching.add_many", count=lambda a, r: len(a[1]))
        _method(batcher, "flush", "batching.flush", count=lambda a, r: len(r))

    def _patch_protocol(module):
        bulk = module.BulkSampleRequest
        bulk.from_dict = classmethod(
            SPANS.wrap(
                "protocol.bulk_from_dict",
                bulk.from_dict.__func__,
                count=lambda a, r: len(r.samples),
            )
        )

    def _patch_client(module):
        _method(module.ServeClient, "_request", "client.rpc")

    def _patch_controller(module):
        allocator = module.DynamicAllocator
        _method(allocator, "step", "dynamic.step", tick=True)
        _method(allocator, "_allocate", "dynamic.allocate")
        _method(allocator, "observe_sample", "dynamic.observe_sample")
        _method(allocator, "add_agent", "dynamic.add_agent")
        _method(allocator, "remove_agent", "dynamic.remove_agent")
        module.fit_cobb_douglas_batch = SPANS.wrap(
            "fitting.batch", module.fit_cobb_douglas_batch, count=lambda a, r: len(a[0])
        )
        module.apply_allocation_floors = SPANS.wrap(
            "enforce.floors", module.apply_allocation_floors
        )

    def _patch_online(module):
        profiler = module.OnlineProfiler
        profiler.needs_refit = property(
            SPANS.wrap("profiling.needs_refit", profiler.needs_refit.fget)
        )
        _method(profiler, "fit_inputs", "profiling.fit_inputs")
        apply_fit = SPANS.wrap(
            "profiling.apply_fit",
            profiler.apply_fit,
            count=lambda a, r: a[1] is not None and a[0].last_fit is a[1],
        )
        profiler.apply_fit = apply_fit

    def _patch_registry(module):
        base = module.Mechanism
        _method(base, "solve", "mechanism.solve")
        for value in vars(module).values():
            if isinstance(value, type) and issubclass(value, base) and "observe" in vars(value):
                _method(value, "observe", "mechanism.observe")

    def _patch_learning(module):
        learner = module.DemandLearner
        _method(learner, "report", "learning.report")
        _method(learner, "apply_caps", "learning.caps")
        _method(learner, "perturb", "learning.perturb")
        _method(learner, "note_epoch", "learning.note_epoch")

    def _patch_obs(module):
        registry = module.MetricsRegistry
        for attr in ("counter", "gauge", "histogram"):
            setattr(registry, attr, SPANS.counted(getattr(registry, attr)))

    PATCHES = {
        "repro.serve.server": _patch_server,
        "repro.serve.shard": _patch_shard,
        "repro.serve.batching": _patch_batching,
        "repro.serve.protocol": _patch_protocol,
        "repro.serve.client": _patch_client,
        "repro.dynamic.controller": _patch_controller,
        "repro.profiling.online": _patch_online,
        "repro.core.registry": _patch_registry,
        "repro.learning.controller": _patch_learning,
        "repro.obs.registry": _patch_obs,
    }

    class _PatchingLoader(importlib.abc.Loader):
        def __init__(self, loader, patch):
            self.loader = loader
            self.patch = patch

        def create_module(self, spec):
            return self.loader.create_module(spec)

        def exec_module(self, module):
            self.loader.exec_module(module)
            self.patch(module)

        def __getattr__(self, attr):
            return getattr(self.loader, attr)

    class _PostImportFinder(importlib.abc.MetaPathFinder):
        """Finds nothing itself; wraps the loader of each patched module."""

        def find_spec(self, fullname, path, target=None):
            patch = PATCHES.get(fullname)
            if patch is None:
                return None
            for finder in sys.meta_path:
                if finder is self or not hasattr(finder, "find_spec"):
                    continue
                spec = finder.find_spec(fullname, path, target)
                if spec is not None:
                    if spec.loader is not None:
                        spec.loader = _PatchingLoader(spec.loader, patch)
                    return spec
            return None

    sys.meta_path.insert(0, _PostImportFinder())
