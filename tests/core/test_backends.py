"""Pluggable execution backends: real racing, cancellation, isolation.

The paper's transparency requirement (section 3.1) means switching the
backend must never change *what* an alternative block computes -- only how
fast.  These tests pin:

- serial replay: ``backend=SerialBackend()`` is bit-identical to the
  default executor for a fixed seed;
- fastest-first for real: thread/process backends pick the wall-clock
  winner and cancelled losers record strictly less work than their full
  cost;
- isolation: a loser's writes -- including a loser cancelled mid-write --
  never appear in the parent, on every backend;
- failure/timeout semantics survive the backend swap.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.core.alternative import AltContext, Alternative
from repro.core.backends import (
    BACKENDS,
    CancellationToken,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    default_parallel_backend,
    get_backend,
)
from repro.core.concurrent import ConcurrentExecutor
from repro.errors import AltBlockFailure, AltTimeout, Eliminated
from repro.pages.address_space import AddressSpace
from repro.pages.store import PageStore
from repro.process.primitives import EliminationMode

HAS_FORK = hasattr(os, "fork")

needs_fork = pytest.mark.skipif(not HAS_FORK, reason="requires os.fork")


def parallel_backends():
    """Every truly-parallel backend this host supports."""
    backends = [ThreadBackend()]
    if HAS_FORK:
        backends.append(ProcessBackend(kill_grace=2.0))
    return backends


def cooperative_arm(name, steps, value, step_seconds=0.01, record=True):
    """An arm that sleeps cooperatively (a cancellation point per step)."""

    def body(ctx):
        if record:
            ctx.put(f"started_{name}", True)
        for _ in range(steps):
            ctx.sleep(step_seconds)
        if record:
            ctx.put(f"finished_{name}", True)
        ctx.put("who", name)
        return value

    return Alternative(name, body=body, cost=steps * step_seconds)


# ----------------------------------------------------------------------
# plumbing


class TestFactory:
    def test_backends_tuple(self):
        assert BACKENDS == ("serial", "thread", "process", "sim")

    def test_get_backend_by_name(self):
        assert isinstance(get_backend("serial"), SerialBackend)
        assert isinstance(get_backend("thread"), ThreadBackend)
        assert get_backend("THREAD").name == "thread"

    def test_get_backend_sim(self):
        backend = get_backend("sim")
        assert backend.name == "sim"
        assert backend.is_parallel

    @needs_fork
    def test_get_backend_process(self):
        backend = get_backend("process", kill_grace=0.5)
        assert isinstance(backend, ProcessBackend)
        assert backend.kill_grace == 0.5

    def test_get_backend_unknown(self):
        with pytest.raises(ValueError, match="unknown backend"):
            get_backend("quantum")

    def test_default_parallel_backend(self):
        backend = default_parallel_backend()
        assert backend.is_parallel
        if HAS_FORK:
            assert isinstance(backend, ProcessBackend)

    def test_serial_is_not_parallel(self):
        assert not SerialBackend().is_parallel
        assert ThreadBackend().is_parallel


class TestCancellationToken:
    def test_starts_clear(self):
        token = CancellationToken()
        assert not token.cancelled

    def test_cancel_is_idempotent(self):
        token = CancellationToken()
        token.cancel()
        token.cancel()
        assert token.cancelled
        assert token.wait(0.0)

    def test_wait_times_out(self):
        token = CancellationToken()
        assert not token.wait(0.01)


class TestContextCancellation:
    def _context(self, token):
        space = AddressSpace(PageStore(page_size=256), size=4096)
        return AltContext(space, token=token)

    def test_check_eliminated_raises_after_cancel(self):
        token = CancellationToken()
        ctx = self._context(token)
        ctx.check_eliminated()  # no-op while alive
        token.cancel()
        assert ctx.eliminated
        with pytest.raises(Eliminated):
            ctx.check_eliminated()

    def test_sleep_is_a_cancellation_point(self):
        token = CancellationToken()
        ctx = self._context(token)
        token.cancel()
        with pytest.raises(Eliminated):
            ctx.sleep(10.0)  # returns immediately, not after 10 s

    def test_tokenless_context_never_eliminated(self):
        ctx = self._context(None)
        assert not ctx.eliminated
        ctx.check_eliminated()
        ctx.sleep(0.0)


# ----------------------------------------------------------------------
# serial replay: the deterministic default is unchanged


class TestSerialReplay:
    def _arms(self):
        return [
            Alternative(
                "hash",
                body=lambda ctx: ctx.put("route", "hash") or "hash",
                cost=3.0,
            ),
            Alternative(
                "scan",
                body=lambda ctx: ctx.put("route", "scan") or "scan",
                cost=1.0,
            ),
            Alternative(
                "closed",
                guard=lambda ctx, value: False,
                body=lambda ctx: "never",
                cost=0.5,
            ),
        ]

    def test_bit_identical_to_default_executor(self):
        baseline = ConcurrentExecutor(seed=11).run(self._arms())
        explicit = ConcurrentExecutor(seed=11, backend=SerialBackend()).run(
            self._arms()
        )
        assert explicit.winner.name == baseline.winner.name
        assert explicit.value == baseline.value
        assert explicit.elapsed == baseline.elapsed
        assert explicit.wasted_work == baseline.wasted_work
        assert explicit.timeline == baseline.timeline
        assert [o.status for o in explicit.outcomes] == [
            o.status for o in baseline.outcomes
        ]
        assert [o.cpu_consumed for o in explicit.outcomes] == [
            o.cpu_consumed for o in baseline.outcomes
        ]

    def test_replay_is_stable_across_runs(self):
        first = ConcurrentExecutor(seed=5, backend=SerialBackend()).run(
            self._arms()
        )
        second = ConcurrentExecutor(seed=5, backend=SerialBackend()).run(
            self._arms()
        )
        assert first.elapsed == second.elapsed
        assert first.winner.name == second.winner.name


# ----------------------------------------------------------------------
# real racing: fastest-first, loser cancellation, wasted work


class TestParallelRacing:
    @pytest.mark.parametrize(
        "backend,extra_racers",
        [pytest.param(b, 0, id=b.name) for b in parallel_backends()]
        + (
            [
                pytest.param(
                    ProcessBackend(kill_grace=2.0), 10, id="process-12-racers"
                )
            ]
            if HAS_FORK
            else []
        ),
    )
    def test_wall_clock_winner_and_loser_cancellation(
        self, backend, extra_racers
    ):
        slow_cost = 2.0
        arms = [
            cooperative_arm("slow", steps=200, value=1),  # 2.0 s standalone
            cooperative_arm("fast", steps=5, value=2),  # 0.05 s standalone
        ] + [
            cooperative_arm(f"slow-{i}", steps=200, value=1)
            for i in range(extra_racers)
        ]
        executor = ConcurrentExecutor(backend=backend)
        started = time.perf_counter()
        result = executor.run(arms)
        wall = time.perf_counter() - started
        assert result.winner.name == "fast"
        assert result.value == 2
        # The block concluded far sooner than the slow arm's full cost.
        assert wall < slow_cost * 0.5
        losers = [o for o in result.outcomes if o.name != "fast"]
        for loser in losers:
            assert loser.status == "eliminated"
            # Cancelled losers record strictly less work than their cost.
            assert 0.0 < loser.cpu_consumed < slow_cost
        assert result.wasted_work < slow_cost * len(losers)
        assert result.wasted_work == pytest.approx(
            sum(loser.cpu_consumed for loser in losers), abs=1e-9
        )

    @pytest.mark.parametrize(
        "backend,blob",
        [pytest.param(b, None, id=b.name) for b in parallel_backends()]
        + (
            [
                pytest.param(
                    ProcessBackend(kill_grace=2.0),
                    list(range(50_000)),
                    id="process-large-payload",
                )
            ]
            if HAS_FORK
            else []
        ),
    )
    def test_winner_writes_reach_parent(self, backend, blob):
        host_memory = {"owner": "parent"}
        fast = cooperative_arm("fast", steps=2, value=2)
        space_size = 64 * 1024
        if blob is not None:
            space_size = 1024 * 1024  # the pickled blob spans many pages
            plain = fast.body

            def fast_body(ctx):
                # A forked arm's write to inherited host memory is a real
                # copy-on-write fault: it never reaches this process.
                host_memory["owner"] = "child"
                ctx.put("blob", blob)
                return plain(ctx)

            fast = Alternative("fast", body=fast_body, cost=fast.cost)
        executor = ConcurrentExecutor(backend=backend, space_size=space_size)
        parent = executor.new_parent()
        parent.space.put("base", "preloaded")
        result = executor.run(
            [
                cooperative_arm("slow", steps=100, value=1),
                fast,
            ],
            parent=parent,
        )
        assert result.winner.name == "fast"
        assert parent.space.get("who") == "fast"
        assert parent.space.get("finished_fast") is True
        assert parent.space.get("base") == "preloaded"
        if blob is not None:
            assert parent.space.get("blob") == blob
            assert host_memory == {"owner": "parent"}

    @pytest.mark.parametrize(
        "backend", parallel_backends(), ids=lambda b: b.name
    )
    def test_failed_arms_and_winner(self, backend):
        arms = [
            Alternative(
                "broken",
                body=lambda ctx: (_ for _ in ()).throw(RuntimeError("boom")),
                cost=0.1,
            ),
            cooperative_arm("ok", steps=2, value="fine"),
        ]
        result = ConcurrentExecutor(backend=backend).run(arms)
        assert result.winner.name == "ok"
        assert result.outcome("broken").status == "failed"

    @pytest.mark.parametrize(
        "backend", parallel_backends(), ids=lambda b: b.name
    )
    def test_all_failed_raises(self, backend):
        arms = [
            Alternative("a", guard=lambda ctx, v: False, body=lambda ctx: 1),
            Alternative("b", guard=lambda ctx, v: False, body=lambda ctx: 2),
        ]
        with pytest.raises(AltBlockFailure) as info:
            ConcurrentExecutor(backend=backend).run(arms)
        statuses = {o.status for o in info.value.outcomes}
        assert statuses == {"failed"}

    @pytest.mark.parametrize(
        "backend", parallel_backends(), ids=lambda b: b.name
    )
    def test_timeout_cancels_everyone(self, backend):
        arms = [
            cooperative_arm("glacial-1", steps=500, value=1),
            cooperative_arm("glacial-2", steps=500, value=2),
        ]
        executor = ConcurrentExecutor(backend=backend, timeout=0.1)
        started = time.perf_counter()
        with pytest.raises(AltTimeout):
            executor.run(arms)
        # Cooperative cancellation stops both arms well before 5 s.
        assert time.perf_counter() - started < 2.0

    @pytest.mark.parametrize(
        "backend", parallel_backends(), ids=lambda b: b.name
    )
    def test_asynchronous_elimination(self, backend):
        executor = ConcurrentExecutor(
            backend=backend, elimination=EliminationMode.ASYNCHRONOUS
        )
        parent = executor.new_parent()
        result = executor.run(
            [
                cooperative_arm("slow", steps=100, value=1),
                cooperative_arm("fast", steps=2, value=2),
            ],
            parent=parent,
        )
        assert result.winner.name == "fast"
        assert parent.space.get("who") == "fast"
        assert result.outcome("slow").status == "eliminated"

    def test_thread_backend_too_late_sibling(self):
        # A non-cooperative arm that never checks its token finishes after
        # the winner and is told "too late"; its writes are discarded.
        def oblivious(ctx):
            time.sleep(0.3)  # no cancellation points
            ctx.put("late_write", True)
            return "late"

        arms = [
            Alternative("oblivious", body=oblivious, cost=0.3),
            cooperative_arm("fast", steps=2, value="won"),
        ]
        executor = ConcurrentExecutor(backend=ThreadBackend())
        parent = executor.new_parent()
        result = executor.run(arms, parent=parent)
        assert result.winner.name == "fast"
        late = result.outcome("oblivious")
        assert late.status == "eliminated"
        assert "too late" in late.detail
        assert "late_write" not in parent.space.names()


# ----------------------------------------------------------------------
# isolation: losers' writes never appear in the parent


class TestLoserIsolation:
    @pytest.mark.parametrize(
        "backend",
        [SerialBackend()] + parallel_backends(),
        ids=lambda b: b.name,
    )
    def test_loser_writes_invisible(self, backend):
        executor = ConcurrentExecutor(backend=backend)
        parent = executor.new_parent()
        parent.space.put("shared", "original")
        arms = [
            cooperative_arm("slow", steps=50, value=1),
            cooperative_arm("fast", steps=1, value=2),
        ]
        result = executor.run(arms, parent=parent)
        assert result.winner.name == "fast"
        names = parent.space.names()
        # The loser began executing (it wrote its start marker in its own
        # space) but none of its writes survived elimination.
        assert "started_slow" not in names
        assert "finished_slow" not in names
        assert parent.space.get("shared") == "original"

    @pytest.mark.parametrize(
        "backend", parallel_backends(), ids=lambda b: b.name
    )
    def test_loser_cancelled_mid_write_sequence(self, backend):
        """A loser killed between writes leaks neither the writes it made
        nor the ones it never reached."""

        def mid_write_body(ctx):
            ctx.put("partial", "written-before-kill")
            for _ in range(500):  # cancellation lands in here
                ctx.sleep(0.01)
            ctx.put("final", "never-reached")
            return "loser"

        arms = [
            Alternative("mid-write", body=mid_write_body, cost=5.0),
            cooperative_arm("fast", steps=2, value="winner", record=False),
        ]
        executor = ConcurrentExecutor(backend=backend)
        parent = executor.new_parent()
        result = executor.run(arms, parent=parent)
        assert result.winner.name == "fast"
        names = parent.space.names()
        assert "partial" not in names
        assert "final" not in names
        assert parent.space.get("who") == "fast"
        # The loser did real work before dying -- the measurable waste.
        assert result.outcome("mid-write").cpu_consumed > 0.0

    def test_store_has_no_leaked_frames_after_block(self):
        executor = ConcurrentExecutor(backend=ThreadBackend())
        parent = executor.new_parent()
        baseline = executor.manager.store.live_frames
        executor.run(
            [
                cooperative_arm("slow", steps=50, value=1),
                cooperative_arm("fast", steps=1, value=2),
            ],
            parent=parent,
        )
        # Loser spaces were released: no more frames than the parent needs.
        assert executor.manager.store.live_frames <= baseline + 2
