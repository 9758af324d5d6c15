# Convenience targets for the REF reproduction.
#
# The CI workflow (.github/workflows/ci.yml) runs these same targets —
# lint, test, serve-devmode, perfbench-check, perfbench-smoke, coverage, smoke,
# bench-kernel, bench-solver, cold-start-check, dynamic-smoke,
# serve-smoke, shard-smoke, credit-smoke, regret-smoke — so `make ci`
# reproduces a full CI run locally with zero drift.

PYTHON ?= python
JOBS ?= 2
SMOKE_CACHE := .repro-smoke-cache
# Must match the CI reproduce-smoke job artifact set (28 cached profiles).
SMOKE_ARTIFACTS := fig8a fig8b fig8c fig9 table1 table2
# Coverage hard floor for `make coverage` / the CI coverage job.  Start
# at the measured baseline rounded down; ratchet up, never down.
COV_FLOOR ?= 80

.PHONY: install test serve-devmode perfbench-check perfbench-smoke coverage bench bench-kernel \
	bench-serve bench-solver cold-start-check examples reproduce \
	lint smoke dynamic-smoke metrics-smoke serve-smoke shard-smoke \
	credit-smoke regret-smoke perf-ab loc ci clean

install:
	$(PYTHON) -m pip install -e . || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest -x -q

# The serve tests under asyncio debug mode (python -X dev).  A socket or
# transport left unclosed (ResourceWarning, raised as an error inside
# __del__ and reported by pytest as an unraisable exception) fails the
# run, and so does an asyncio error report such as a task exception
# that is never retrieved (tests/conftest.py).  Guards the lifetimes of
# the HTTP front end's transports, timers and handler tasks, and of the
# shard coordinator's links to its cell workers (test_shard.py boots
# real worker subprocesses).
serve-devmode:
	$(PYTHON) -X dev -W error::ResourceWarning -m pytest tests/serve \
		tests/integration/test_keepalive.py tests/integration/test_serve.py \
		tests/integration/test_shard.py -q \
		-W error::pytest.PytestUnraisableExceptionWarning

# The open-loop benchmark's self-tests, then an import of every module
# its trace hook (perfbench/tracehook/sitecustomize.py) patches, with
# the hook live.  The hook wraps bindings by name (e.g.
# repro.dynamic.controller.apply_allocation_floors): one that is
# renamed or removed fails here instead of crashing `--trace 1` runs.
perfbench-check:
	$(PYTHON) -m pytest perfbench/tests -q
	PERFBENCH_TRACE_DIR=$$(mktemp -d) PYTHONPATH=perfbench/tracehook:src:$$PYTHONPATH \
		$(PYTHON) -c "import importlib, sitecustomize; \
		[importlib.import_module(name) for name in sitecustomize.PATCHES]; \
		print('perfbench-check OK:', len(sitecustomize.PATCHES), 'patched modules import')"

# Short traced runs of the open-loop benchmark against the real server.
# perfbench-check only imports the hooked modules; these call the
# wrapped bindings the ticks run through, so one that imports but
# breaks at call time (e.g. `OnlineProfiler.needs_refit` ceasing to be
# a property) fails here.  read-mostly covers the request path (HTTP
# plumbing, snapshot reads, scrapes and the request series it touches
# most), ingest-heavy the fit and the solve, churn-learn the credit
# mechanism's observe and the demand learner, sharded the coordinator
# (grant rounds, merged reads and the hierarchical split, each wrapped
# by the hook) and its cells.  Each passes only when the run's final
# JSON line reports "correct": true.
PERFBENCH_SMOKE_WORKLOADS := read-mostly ingest-heavy churn-learn sharded
perfbench-smoke:
	@for workload in $(PERFBENCH_SMOKE_WORKLOADS); do \
		$(PYTHON) perfbench/run.py --workload $$workload --seed 1 --seconds 3 --trace 1 \
			> $(SMOKE_CACHE).perfbench-$$workload.txt || exit 1; \
		tail -n 1 $(SMOKE_CACHE).perfbench-$$workload.txt | $(PYTHON) -c "import json, sys; \
			sys.exit(0 if json.loads(sys.stdin.read())['correct'] is True \
			else 'perfbench-smoke: the $$workload run is not correct')" || exit 1; \
		echo "perfbench-smoke OK: traced $$workload run correct"; \
	done

# The CI coverage job, runnable locally (needs pytest-cov installed):
# line coverage over src/repro with a hard fail-under floor and an HTML
# report in coverage-html/.
coverage:
	@$(PYTHON) -c "import pytest_cov" 2>/dev/null || \
		{ echo "coverage: pytest-cov is not installed (pip install pytest-cov)"; exit 1; }
	$(PYTHON) -m pytest -q --cov=repro --cov-report=term \
		--cov-report=html:coverage-html --cov-fail-under=$(COV_FLOOR)

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# Times the trace-driven Table 1 sweep through the reference simulator
# and the stack-distance kernel, hard-gates on bit-exact parity, and
# writes BENCH_kernel.json (speedup, accesses/sec).  Exits non-zero if
# parity breaks or the speedup falls below the acceptance floor.
bench-kernel:
	$(PYTHON) benchmarks/kernel_speedup.py

# Async load generator against an in-process allocation server plus a
# 1-vs-4-cell sharded sweep: writes BENCH_serve.json (p50/p99 request
# latency, allocations/sec, cells_axis, shard_speedup,
# hierarchical_parity_max_gap) and hard-asserts the batching contract,
# the Eq. 13 hierarchical parity gate (1e-6) and — on machines with
# >= 4 CPUs — the 2x shard-speedup floor (REPRO_SHARD_MIN_SPEEDUP
# overrides).
bench-serve:
	$(PYTHON) benchmarks/bench_serve_load.py

# Times the solver/fit hot path: batched Cobb-Douglas fitting vs the
# per-agent loop, the Eq. 13 closed form vs SLSQP, the 64-agent
# controller tick vs an eager per-sample-refit reference fed the same
# samples, and solve_batch vs the scalar loop.  Writes BENCH_solver.json; exits non-zero when parity
# breaks or a speedup falls below its acceptance floor (tick >= 3x).
bench-solver:
	$(PYTHON) benchmarks/bench_solver.py

# Paired A/B of the serve benchmark against a base revision: 10
# alternating pairs per workload of `perfbench/run.py --seconds 18
# --trace 0` (about 40 minutes), the paired table, the claim's verdict
# (better in >= 9/10 pairs and beyond the base's quartile spread) and
# BENCHMARK.json's bound on everything else.  CLAIM is optional: a
# change that claims no gain gets the bound verdict on every metric
# and workload.  SEED_BASE numbers the pairs' seeds and has no default:
# name seeds not used while writing the change.  Usage:
#   make perf-ab BASE=<rev> [CLAIM=<metric>:<workload>] SEED_BASE=<n> [LEDGER=ledger/<name>.json]
LEDGER ?= ledger/perf-ab.json
perf-ab:
	@test -n "$(BASE)" -a -n "$(SEED_BASE)" || \
		{ echo "usage: make perf-ab BASE=<rev> [CLAIM=<metric>:<workload>] SEED_BASE=<n>"; exit 2; }
	$(PYTHON) benchmarks/perf_ab.py --base $(BASE) $(if $(CLAIM),--claim $(CLAIM)) \
		--seed-base $(SEED_BASE) --ledger $(LEDGER)

# The net src/ line count against a base revision, two ways: all lines
# (git diff --numstat) and lines that carry code (no blank lines,
# comments or docstrings).  Usage: make loc BASE=<rev>
loc:
	@test -n "$(BASE)" || { echo "usage: make loc BASE=<rev>"; exit 2; }
	$(PYTHON) benchmarks/loc.py --base $(BASE)

# Hard budget on `python -m repro --help` in a fresh interpreter, plus
# a probe that building the parser imports neither NumPy nor SciPy.
cold-start-check:
	$(PYTHON) benchmarks/check_cold_start.py

examples:
	for script in examples/*.py; do echo "== $$script =="; $(PYTHON) $$script; done

reproduce:
	$(PYTHON) -m repro reproduce all --jobs $(JOBS)

lint:
	$(PYTHON) -m ruff check src tests benchmarks examples
	$(PYTHON) -m ruff format --check src tests benchmarks examples

# The CI reproduce-smoke job, runnable locally: parallel profiling must
# be bit-identical to the serial reference, and a warm second run must
# be served entirely from the profile cache (zero simulator
# invocations, all 28 profiles from disk).
smoke:
	rm -rf $(SMOKE_CACHE)
	$(PYTHON) -m repro reproduce $(SMOKE_ARTIFACTS) > $(SMOKE_CACHE).serial.txt
	$(PYTHON) -m repro reproduce $(SMOKE_ARTIFACTS) --jobs $(JOBS) \
		--cache-dir $(SMOKE_CACHE) > $(SMOKE_CACHE).parallel.txt 2> $(SMOKE_CACHE).stats-cold.txt
	diff $(SMOKE_CACHE).serial.txt $(SMOKE_CACHE).parallel.txt
	$(PYTHON) -m repro reproduce $(SMOKE_ARTIFACTS) --jobs $(JOBS) \
		--cache-dir $(SMOKE_CACHE) > $(SMOKE_CACHE).warm.txt 2> $(SMOKE_CACHE).stats-warm.txt
	diff $(SMOKE_CACHE).serial.txt $(SMOKE_CACHE).warm.txt
	grep -q "simulated_points=0 " $(SMOKE_CACHE).stats-warm.txt
	grep -q "disk_hits=28" $(SMOKE_CACHE).stats-warm.txt
	@echo "smoke OK: parallel output identical to serial; warm run fully cached"

# The CI dynamic-smoke job, runnable locally: 200 epochs of the
# allocation service with churn and ~10% injected faults must finish
# crash-free with a feasible allocation at every epoch, and the
# exported metrics artifact must cover every epoch and render as
# strictly-parseable Prometheus text.
dynamic-smoke:
	$(PYTHON) -m repro dynamic --epochs 200 --seed 2014 \
		--fault-drop 0.04 --fault-non-positive 0.03 --fault-outlier 0.03 \
		--churn 40:add:late=canneal --churn 120:remove:late \
		--events 20 --metrics-out $(SMOKE_CACHE).dynamic-metrics.json \
		| tee $(SMOKE_CACHE).dynamic.txt
	grep -q "feasible=True" $(SMOKE_CACHE).dynamic.txt
	$(PYTHON) benchmarks/check_dynamic_metrics.py $(SMOKE_CACHE).dynamic-metrics.json 200
	$(PYTHON) benchmarks/mechanism_sweep.py
	@echo "dynamic-smoke OK: 200 faulty, churning epochs; all feasible; metrics covered"

# Extra local check (subsumed by dynamic-smoke in CI): a 50-epoch run's
# metrics file must cover every epoch and be scrapeable.
metrics-smoke:
	$(PYTHON) -m repro dynamic --epochs 50 --seed 2014 \
		--metrics-out $(SMOKE_CACHE).metrics.json
	$(PYTHON) -c "import json; from repro.obs import MetricsRegistry; \
		r = MetricsRegistry.from_dict(json.load(open('$(SMOKE_CACHE).metrics.json'))); \
		h = r.get('repro_dynamic_epoch_latency_seconds'); \
		assert h is not None and h.count == 50, h"
	$(PYTHON) -m repro metrics $(SMOKE_CACHE).metrics.json --format prometheus \
		| $(PYTHON) -c "import sys; from repro.obs import parse_prometheus_text; \
		print(len(parse_prometheus_text(sys.stdin.read())), 'samples parse OK')"
	@echo "metrics-smoke OK: 50 epochs exported, covered and scrapeable"

# The CI service-smoke job, runnable locally: a real `repro serve`
# subprocess, 3 concurrent clients, 50 epochs, feasible allocations,
# strictly-parseable /metrics, clean SIGTERM shutdown.
serve-smoke:
	$(PYTHON) benchmarks/serve_smoke.py

# The CI shard-smoke job, runnable locally: `repro serve --cells 4`
# (coordinator + 4 cell worker subprocesses), concurrent clients, one
# worker SIGKILLed mid-run, rendezvous re-hash to the survivors, a
# feasible merged allocation on the degraded fleet, clean SIGTERM exit.
shard-smoke:
	$(PYTHON) benchmarks/shard_smoke.py

# The CI regret-smoke job, runnable locally: a 200-epoch profile-free
# `repro dynamic --learn-demands` run over churny agents, the regret
# harness gating convergence epoch and final-window/cumulative regret
# against the offline-profiled oracle (REPRO_REGRET_MAX_* override the
# gates; BENCH_regret.json carries the trajectory), and a profile-less
# agent served end to end both flat and through `--cells 4`.
regret-smoke:
	$(PYTHON) benchmarks/regret_smoke.py

# The CI credit-smoke job, runnable locally: 300 epochs of
# `repro dynamic --mechanism credit` under bursty churn (feasible
# throughout, balance gauges inside the bank bound) plus the horizon
# harness proving windowed SI/EF hold where per-epoch SI is traded.
credit-smoke:
	$(PYTHON) benchmarks/credit_smoke.py

# Mirrors .github/workflows/ci.yml job for job.  Coverage needs
# pytest-cov; when it is missing locally the leg is skipped with a
# notice instead of failing the whole run.
ci: lint test serve-devmode perfbench-check perfbench-smoke smoke bench-kernel bench-solver \
		cold-start-check dynamic-smoke serve-smoke shard-smoke credit-smoke regret-smoke \
		bench-serve
	@if $(PYTHON) -c "import pytest_cov" 2>/dev/null; then \
		$(MAKE) coverage; \
	else \
		echo "ci: skipping coverage leg (pytest-cov not installed)"; \
	fi

clean:
	rm -rf .pytest_cache .benchmarks .hypothesis benchmarks/results
	rm -rf $(SMOKE_CACHE) $(SMOKE_CACHE).*.txt $(SMOKE_CACHE).*.json
	rm -rf coverage-html .coverage
	rm -f BENCH_kernel.json BENCH_serve.json BENCH_solver.json BENCH_regret.json
	find . -name __pycache__ -type d -exec rm -rf {} +
