PYTHON ?= python
export PYTHONPATH := $(CURDIR)/src

.PHONY: check test test-fast test-resilience test-chaos test-check test-cluster test-matrix-pooled test-server coverage bench-smoke bench-commit bench-server bench

## check: what CI runs -- tier-1 tests plus a ~10s benchmark smoke.
check: test bench-smoke

## test: the full lane -- every test, including slow/subprocess ones.
test:
	$(PYTHON) -m pytest tests/ -q

## test-fast: the fast CI lane -- skips tests marked `slow` (the
## cross-backend equivalence matrix, fault-injection races, and other
## fork-heavy suites); finishes in a few seconds.
test-fast:
	$(PYTHON) -m pytest tests/ -q -m "not slow"

## coverage: line coverage over src/repro, gated at 80% on the obs,
## check, independence, and server subsystems and at 90% on the sans-IO
## distributed race core (requires pytest-cov; CI installs it).
coverage:
	$(PYTHON) -m pytest tests/ -q --cov=repro --cov-report=term-missing
	$(PYTHON) -m coverage report --include="*/repro/obs/*" --fail-under=80
	$(PYTHON) -m coverage report --include="*/repro/check/*" --fail-under=80
	$(PYTHON) -m coverage report --include="*/repro/independence/*" --fail-under=80
	$(PYTHON) -m coverage report --include="*/repro/server/*" --fail-under=80
	$(PYTHON) -m coverage report --include="*/repro/net/race.py" --fail-under=90

## test-resilience: the fault-injection smoke CI runs per injector seed.
## Uses a hard per-test timeout when pytest-timeout is available (a hung
## test here means a reaping/backstop regression).
REPRO_FAULT_SEED ?= 0
test-resilience:
	REPRO_FAULT_SEED=$(REPRO_FAULT_SEED) $(PYTHON) -m pytest tests/resilience -q \
		$(shell $(PYTHON) -c "import pytest_timeout" 2>/dev/null && echo "--timeout=60 --timeout-method=thread")

## test-chaos: the distributed chaos soak CI runs per seed -- faulty
## links, leases, journal recovery, the serial-equivalence matrix over
## every scenario in CHAOS_SCENARIOS, and the race core's unit suite.
REPRO_CHAOS_SEED ?= 0
test-chaos:
	REPRO_CHAOS_SEED=$(REPRO_CHAOS_SEED) $(PYTHON) -m pytest \
		tests/net/test_chaos.py tests/net/test_race.py \
		tests/ipc/test_reliable_channel.py tests/ipc/test_journal.py -q \
		$(shell $(PYTHON) -c "import pytest_timeout" 2>/dev/null && echo "--timeout=120 --timeout-method=thread")

## test-cluster: the real-wire cluster runtime -- TCP worker daemons,
## the impairment-proxy chaos matrix, zombie epoch fencing, journal
## torn-write recovery, authenticated gossip membership (HMAC frames,
## truncation/tamper sweeps, phi-accrual suspicion, worker re-join),
## the per-endpoint circuit breaker, the race core's unit suite and the
## simulated/socket twin-parity test, and the subprocess acceptance
## tests (real SIGKILL mid-race, respawn-and-rejoin, router
## kill-and-replay).  Per-test timeout when pytest-timeout is
## available (a hang here means a lost daemon).
test-cluster:
	REPRO_CHAOS_SEED=$(REPRO_CHAOS_SEED) $(PYTHON) -m pytest \
		tests/cluster tests/net/test_race.py tests/resilience/test_breaker.py \
		tests/ipc/test_journal_durable.py -q \
		$(shell $(PYTHON) -c "import pytest_timeout" 2>/dev/null && echo "--timeout=180 --timeout-method=thread")

## test-check: the schedule-exploration harness -- the checker's own
## suite, then an explore pass over every canonical block (CI fans this
## out as a strategy x seed matrix).  Uses a hard per-test timeout when
## pytest-timeout is available (a hang here means a lost handoff in the
## cooperative scheduler).
CHECK_STRATEGY ?= random
CHECK_SEED ?= 0
CHECK_SCHEDULES ?= 50
test-check:
	$(PYTHON) -m pytest tests/check -q \
		$(shell $(PYTHON) -c "import pytest_timeout" 2>/dev/null && echo "--timeout=300 --timeout-method=thread")
	$(PYTHON) -m repro check --all --strategy $(CHECK_STRATEGY) \
		--seed $(CHECK_SEED) --schedules $(CHECK_SCHEDULES) --stats

## test-matrix-pooled: the cross-backend equivalence matrix with the
## pre-warmed world pool enabled -- the pooled process backend (and the
## pool-oblivious SimBackend) must still agree with the serial oracle.
test-matrix-pooled:
	REPRO_WORLD_POOL=1 $(PYTHON) -m pytest \
		tests/obs/test_equivalence_matrix.py tests/process/test_world_pool.py -q

## test-server: the multi-tenant race-server battery -- the
## admission/DRR Hypothesis state machine, server basics, the lease
## ledger under concurrent races, the concurrent equivalence matrix,
## the worker-assassination soak, and the steady-state soak (2,000
## pooled server blocks, 1,100 fork-per-block blocks past the old
## select() fd ceiling, 300 library-caller blocks: open fds, live
## slabs, /dev/shm entries, threads and children must stay flat).
## REPRO_SERVER_SEED varies the assassination soak's kill schedule;
## any schedule must leave results untouched.
## Per-test timeout when pytest-timeout is available (a hang here
## means a stuck dispatcher or an unfinished ticket).
REPRO_SERVER_SEED ?= 0
test-server:
	REPRO_SERVER_SEED=$(REPRO_SERVER_SEED) $(PYTHON) -m pytest \
		tests/server tests/process/test_pool_concurrency.py -q \
		$(shell $(PYTHON) -c "import pytest_timeout" 2>/dev/null && echo "--timeout=180 --timeout-method=thread")

bench-smoke:
	$(PYTHON) benchmarks/bench_parallel_backends.py --quick

## bench-commit: the commit-latency sweep (pipe pickling vs the
## shared-memory pointer-swap commit, 1..4096 dirty pages); --quick in
## CI, full sweep locally regenerates BENCH_commit_latency.json.
BENCH_SEED ?= 0
bench-commit:
	$(PYTHON) benchmarks/bench_commit_latency.py --seed $(BENCH_SEED)

## bench-server: the multi-tenant throughput sweep (pooled workers vs
## fork-per-block across three concurrency levels); --quick in CI, full
## sweep locally regenerates BENCH_server_throughput.json.  Exits
## non-zero unless pooled wins by >=2x at the top level with a fair
## per-tenant goodput spread.
bench-server:
	$(PYTHON) benchmarks/bench_server_throughput.py --seed $(BENCH_SEED)

## bench: regenerate every paper table/figure (slow).
bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -q
