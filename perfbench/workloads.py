"""The four workloads: set-up, warm-up, the measured loops and the oracles.

All load comes from the calling thread.  Inputs come only from the
workload seed; every block's answer is checked against one computed
outside the system under test (``perfbench.arms`` and the query
engine's static plan), and a failure is counted and the run goes on.
"""

from __future__ import annotations

import contextlib
import random
import time
from collections import deque
from typing import Callable, Dict, List, Optional, Tuple

from repro.cluster import WorkerEndpoint, generate_secret, load_secret
from repro.cluster.auth import dial_handshake
from repro.cluster.executor import ClusterExecutor
from repro.cluster.spawn import spawn_worker
from repro.cluster.stream import connect
from repro.core.alternative import Alternative
from repro.core.backends.process import ProcessBackend
from repro.core.concurrent import ConcurrentExecutor
from repro.core.selection import OrderedPolicy
from repro.core.sequential import SequentialExecutor
from repro.errors import AltBlockFailure, AltTimeout
from repro.process.pool import WorldPool
from repro.server import (
    RaceServer,
    ServerConfig,
    SubmissionRejected,
    SwarmClient,
    build_demo_engine,
)

from perfbench import spec
from perfbench.arms import PAGE, SpinArm, TagArm

#: Nominal spin-loop rounds per millisecond of arm work.  A fixed input
#: constant, not a calibration: the same seed gives the same arms on any
#: host.  About right for CPython 3.11 on a 2-CPU x86 host.
SPINS_PER_MS = 5000

TICKET_TIMEOUT = 60.0


class Tally:
    """Blocks attempted, failed and wrong, and completed-block latencies."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wrong: List[str] = []
        self.failures: Dict[str, int] = {}
        self.latencies: List[float] = []

    def fail(self, reason: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.failures[reason] = self.failures.get(reason, 0) + 1

    def complete(self, latency: float, correct: bool, detail: str = "") -> None:
        """A block that returned: counted failed if its answer is wrong."""
        if not correct:
            self.wrong.append(detail)
            self.fail("wrong-answer")
            return
        self.attempted += 1
        self.latencies.append(latency)

    def absorb(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.wrong += other.wrong
        for reason, count in other.failures.items():
            self.failures[reason] = self.failures.get(reason, 0) + count


def replay_bytes(arm: Alternative, seed: int, space_size: int) -> bytes:
    """The parent's bytes after a serial run of ``arm`` alone."""
    executor = SequentialExecutor(
        policy=OrderedPolicy(), seed=seed, space_size=space_size
    )
    parent = executor.new_parent()
    executor.run([arm], parent=parent)
    return parent.space.read(0, space_size)


def spin_arms(rng: random.Random, block: int, arms: int,
              ms_range: Tuple[float, float], space_pages: int,
              few: Tuple[int, int], many: Optional[Tuple[int, int]],
              ) -> List[SpinArm]:
    """Seeded CPU-bound arms: a duration in ``ms_range`` each, and a write
    set of ``few`` pages or, with even odds when ``many`` is given, of
    ``many`` pages (page 0 holds the variable directory)."""
    bodies = []
    for index in range(arms):
        spins = int(rng.uniform(*ms_range) * SPINS_PER_MS)
        low, high = many if many is not None and rng.random() < 0.5 else few
        pages = sorted(rng.sample(range(1, space_pages), rng.randint(low, high)))
        bodies.append(SpinArm(f"b{block}-arm{index}", rng.getrandbits(63),
                              spins, tuple(pages)))
    return bodies


class Workload:
    """One system under test plus the loop that drives it."""

    name = ""
    open_loop_rate = 0.0
    warm_seconds = 0.5

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rng = random.Random(seed)
        self.tally = Tally()
        self.goodput_phase: Tuple[int, float] = (0, 0.0)
        """Correct blocks completed in the goodput phase, and its length."""
        self.lags: List[float] = []
        self.counters: Dict[str, float] = {}
        self.sequential_s: List[float] = []
        self.concurrent_s: List[float] = []
        self.paused: Callable = contextlib.nullcontext
        """Context manager that stops span recording around oracle work;
        the traced run replaces it."""
        self._blocks = 0

    def next_seed(self) -> int:
        """A fresh per-block seed; it is also the block's trace id."""
        self._blocks += 1
        return self.seed * 1_000_000 + self._blocks

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        """Fill caches and finish lazy set-up; nothing here is recorded."""
        self.loop(Tally(), self.warm_seconds)

    def loop(self, tally: Tally, seconds: float) -> float:
        """Window-1 closed loop.  Returns the time spent inside blocks: the
        loop's own checks and baselines are not load."""
        busy = 0.0
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            busy += self.one_block(tally)
        return busy

    def one_block(self, tally: Tally) -> float:
        raise NotImplementedError

    def measure(self, seconds: float) -> None:
        busy = self.loop(self.tally, seconds)
        self.goodput_phase = (len(self.tally.latencies), busy)

    def context(self) -> Dict[str, float]:
        """Workload-specific facts for the run's record."""
        return {}

    def pool_counters(self) -> Dict[str, int]:
        pool = getattr(self, "pool", None)
        if pool is None:
            return {"fallbacks": 0, "respawns": 0}
        return {"fallbacks": pool.fallbacks, "respawns": pool.respawns}


# ----------------------------------------------------------------------
# server workloads


class _Serve(Workload):
    """A ``RaceServer(workers=2, max_inflight_arms=4)`` over a shared
    ``WorldPool(4)``; zipf-skewed tenants; a closed loop with a window of
    4 blocks for goodput over the first third of the run, then an open
    loop at a fixed rate for latency over the rest."""

    window = 4
    tenants = 4

    def setup(self) -> None:
        self.pool = WorldPool(4)
        self.server = RaceServer(ServerConfig(
            backend="process", workers=2, max_inflight_arms=4, pool=self.pool,
        ))
        swarm = SwarmClient(self.server, tenants=self.tenants, zipf_s=1.1)
        self.tenant_names, self.weights = swarm.tenant_names, swarm.weights

    def teardown(self) -> None:
        self.server.shutdown()
        self.pool.shutdown()

    def make_block(self) -> Tuple[List[Alternative], Callable, str]:
        """``(arms, answer check, description)`` for the next block."""
        raise NotImplementedError

    def warm_up(self) -> None:
        self.closed_loop(Tally(), self.warm_seconds)

    def measure(self, seconds: float) -> None:
        batches = self.server.metrics.counter("server_batches_total")
        batches_before = batches.value
        closed = Tally()
        elapsed = self.closed_loop(closed, seconds / 3)
        self.goodput_phase = (len(closed.latencies), elapsed)
        self.open_loop(self.tally, seconds * 2 / 3, self.open_loop_rate)
        self.tally.absorb(closed)
        started = self.tally.attempted - self.tally.failures.get("rejected", 0)
        self.counters["server.blocks_per_batch"] = started / max(
            1.0, batches.value - batches_before
        )

    def submit(self, tally: Tally):
        tenant = self.rng.choices(self.tenant_names, self.weights)[0]
        arms, check, what = self.make_block()
        try:
            ticket = self.server.submit(tenant, arms, seed=self.next_seed())
        except SubmissionRejected:
            tally.fail("rejected")
            return None
        return ticket, check, what

    @staticmethod
    def settle(tally: Tally, pending, due: Optional[float] = None) -> None:
        """Wait for and check one block."""
        ticket, check, what = pending
        if not ticket.wait(TICKET_TIMEOUT):
            tally.fail("ticket-timeout")
            return
        if ticket.error is not None:
            tally.fail(f"ticket-error: {ticket.error}")
            return
        done_at = ticket.submitted_at + ticket.latency
        latency = done_at - (ticket.submitted_at if due is None else due)
        tally.complete(latency, check(ticket.value),
                       f"{what}: got {ticket.value!r}")

    def closed_loop(self, tally: Tally, seconds: float) -> float:
        """Keep ``window`` blocks outstanding; returns the phase length."""
        inflight: deque = deque()
        started = time.monotonic()
        deadline = started + seconds
        while time.monotonic() < deadline or inflight:
            while len(inflight) < self.window and time.monotonic() < deadline:
                pending = self.submit(tally)
                if pending is not None:
                    inflight.append(pending)
            if inflight:
                self.settle(tally, inflight.popleft())
        return time.monotonic() - started

    def open_loop(self, tally: Tally, seconds: float, rate: float) -> None:
        """Send on a fixed schedule; latency counts from when a block was
        due, and ``self.lags`` records how late each send was."""
        pending: deque = deque()
        started = time.monotonic()
        sent = 0
        while True:
            due = started + sent / rate
            if due >= started + seconds:
                break
            while pending and pending[0][0][0].done:
                self.settle(tally, *pending.popleft())
            wait = due - time.monotonic()
            if wait > 0:
                time.sleep(wait)
            self.lags.append(time.monotonic() - due)
            submitted = self.submit(tally)
            if submitted is not None:
                pending.append((submitted, due))
            sent += 1
        while pending:
            self.settle(tally, *pending.popleft())


class ServePool(_Serve):
    name = "serve-pool"
    open_loop_rate = spec.OPEN_LOOP_RATE["serve-pool"]

    def make_block(self):
        tag = f"tag-{self.rng.getrandbits(48):012x}"
        arms = [Alternative(f"{tag}-arm{i}", body=TagArm(tag)) for i in range(2)]
        return arms, lambda value: value == tag, tag


class ServeQuery(_Serve):
    name = "serve-query"
    open_loop_rate = spec.OPEN_LOOP_RATE["serve-query"]
    warm_seconds = 1.0

    def setup(self) -> None:
        super().setup()
        # The demo's own table; the seed draws the query stream.
        self.engine, self.queries = build_demo_engine()
        self.order: List[int] = []

    def make_block(self):
        # Each query once per round, in a seeded order: the mix of cheap
        # and dear queries is the same in every run.
        if not self.order:
            self.order = list(range(len(self.queries)))
            self.rng.shuffle(self.order)
        index = self.order.pop()
        arms = self.engine.plan_alternatives(self.queries[index])
        return arms, lambda rows: sorted(rows) == self.expected[index], \
            str(self.queries[index])

    def warm_up(self) -> None:
        # The oracle: each query's rows from the engine's static plan,
        # computed once, outside the server and outside set-up time.
        self.expected = [
            sorted(self.engine.execute_static(query)[0])
            for query in self.queries
        ]
        super().warm_up()


# ----------------------------------------------------------------------
# library caller: measured PI


class RacePi(Workload):
    """``ConcurrentExecutor`` on a pooled ``ProcessBackend`` (pool of 3),
    3 arms per block, each block also run by ``SequentialExecutor`` with
    random selection (the section 4 baseline)."""

    name = "race-pi"
    space_pages = 512
    replay_share = 0.125

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.loser_gaps: List[float] = []

    def context(self) -> Dict[str, float]:
        """The mean gap between the slowest arm's finish and the winner's:
        what a block waits when losers run to completion."""
        return {"slowest_arm_minus_winner_ms":
                1e3 * sum(self.loser_gaps) / max(1, len(self.loser_gaps))}

    def setup(self) -> None:
        self.pool = WorldPool(3)
        self.backend = ProcessBackend(pool=self.pool)

    def teardown(self) -> None:
        self.pool.shutdown()

    def one_block(self, tally: Tally) -> float:
        block = self.next_seed()
        bodies = spin_arms(self.rng, block, 3, (5.0, 40.0), self.space_pages,
                           few=(2, 8), many=(200, 400))
        replay = self.rng.random() < self.replay_share
        arms = [Alternative(body.name, body=body) for body in bodies]
        size = self.space_pages * PAGE
        executor = ConcurrentExecutor(
            backend=self.backend, seed=block, space_size=size
        )
        parent = executor.new_parent()
        started = time.perf_counter()
        try:
            result = executor.run(arms, parent=parent)
        except (AltBlockFailure, AltTimeout) as exc:
            tally.fail(type(exc).__name__)
            return time.perf_counter() - started
        took = time.perf_counter() - started
        with self.paused():
            correct = result.value in [body.expected() for body in bodies]
            if correct and replay:
                winner = arms[result.winner.index]
                correct = replay_bytes(winner, block, size) == \
                    parent.space.read(0, size)
        tally.complete(took, correct, f"block {block}: {result.value!r}")
        self.loser_gaps.append(
            max(outcome.finished_at for outcome in result.outcomes)
            - result.winner.finished_at
        )
        baseline = SequentialExecutor(try_all=False, seed=block,
                                      space_size=size)
        seq_started = time.perf_counter()
        baseline.run(arms)
        self.sequential_s.append(time.perf_counter() - seq_started)
        self.concurrent_s.append(took)
        return took


# ----------------------------------------------------------------------
# cluster with majority consensus


class ClusterVote(Workload):
    """One long-lived ``ClusterExecutor(use_consensus=True)`` -- one
    caller -- over 3 localhost ``WorkerDaemon`` processes sharing an HMAC
    secret; default ``race_timeout``; 3 short arms per block, window 1.
    Each block's seed is set on the executor before the block runs.

    The warm-up block runs on a second executor without consensus: it
    brings each daemon's imports in (the arms' module is unpickled there)
    but asks no vote, so the first measured block is still the first the
    voters see.
    """

    name = "cluster-vote"
    space_pages = 16
    daemons = 3

    def setup(self) -> None:
        self.secret = generate_secret()
        self.handles = []
        try:
            for index in range(self.daemons):
                self.handles.append(
                    spawn_worker(f"perf-w{index}", secret=self.secret)
                )
            key = load_secret(self.secret)
            for handle in self.handles:
                stream = dial_handshake(connect(handle.host, handle.port), key)
                try:
                    stream.send({"kind": "ping"})
                    reply = stream.recv(timeout=5.0)
                finally:
                    stream.close()
                if not reply or reply.get("kind") != "pong":
                    raise RuntimeError(f"{handle.name} did not answer a ping")
        except BaseException:
            self.teardown()
            raise
        self.endpoints = [
            WorkerEndpoint(handle.name, handle.host, handle.port)
            for handle in self.handles
        ]
        self.executor = ClusterExecutor(
            self.endpoints, seed=self.seed, use_consensus=True,
            secret=self.secret,
        )

    def teardown(self) -> None:
        for handle in self.handles:
            handle.stop()
            handle.cleanup()
        self.handles = []

    def warm_up(self) -> None:
        self.one_block(Tally(), ClusterExecutor(
            self.endpoints, seed=self.seed, secret=self.secret,
        ))

    def one_block(self, tally: Tally,
                  executor: Optional[ClusterExecutor] = None) -> float:
        block = self.next_seed()
        bodies = spin_arms(self.rng, block, 3, (20.0, 20.0), self.space_pages,
                           few=(1, 4), many=None)
        arms = [Alternative(body.name, body=body) for body in bodies]
        executor = executor or self.executor
        executor.seed = block
        size = self.space_pages * PAGE
        parent = executor.new_parent(space_size=size)
        started = time.perf_counter()
        try:
            result = executor.run(arms, parent=parent)
        except AltBlockFailure as exc:
            tally.fail(type(exc).__name__)
            return time.perf_counter() - started
        took = time.perf_counter() - started
        with self.paused():
            winner = arms[result.winner.index]
            correct = (
                result.value == bodies[result.winner.index].expected()
                and replay_bytes(winner, block, size)
                == parent.space.read(0, size)
            )
        degraded = any(
            "degrading to serial replay" in label
            for _, label in result.timeline
        )
        if degraded:
            self.counters["cluster.degraded_blocks"] = (
                self.counters.get("cluster.degraded_blocks", 0.0) + 1
            )
        if degraded and correct:
            tally.fail("degraded-to-serial-replay")
        else:
            tally.complete(took, correct, f"block {block}: {result.value!r}")
        return took


WORKLOADS = {
    cls.name: cls for cls in (ServePool, ServeQuery, RacePi, ClusterVote)
}
