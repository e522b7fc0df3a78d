"""Real-process racing on the host's COW fork.

Every arm is a forked child of this process (``ProcessBackend``); the
first to synchronize wins, its writes come home, and its siblings are
killed and reaped.
"""

import os
import time

import pytest

from repro.core.alternative import Alternative
from repro.core.backends import ProcessBackend
from repro.core.concurrent import ConcurrentExecutor
from repro.errors import AltBlockFailure, AltTimeout

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="requires os.fork"
)


def fork_executor(**kwargs):
    """An executor whose arms race as forked host processes."""
    return ConcurrentExecutor(backend=ProcessBackend(kill_grace=0.5), **kwargs)


class TestRace:
    def test_fastest_callable_wins(self):
        def fast(ctx):
            return "fast"

        def slow(ctx):
            time.sleep(5.0)
            return "slow"

        started = time.perf_counter()
        result = fork_executor().run(
            [Alternative("slow", body=slow), Alternative("fast", body=fast)]
        )
        assert result.value == "fast"
        assert result.winner.name == "fast"
        assert time.perf_counter() - started < 4.0

    def test_failure_lets_slower_win(self):
        def failing(ctx):
            ctx.fail("bad guard")

        def steady(ctx):
            time.sleep(0.05)
            return 42

        result = fork_executor().run(
            [
                Alternative("failing", body=failing),
                Alternative("steady", body=steady),
            ]
        )
        assert result.value == 42
        assert result.outcomes[0].status == "failed"

    def test_exception_counts_as_failure(self):
        def crasher(ctx):
            raise RuntimeError("boom")

        def winner(ctx):
            time.sleep(0.05)
            return "ok"

        result = fork_executor().run(
            [
                Alternative("crasher", body=crasher),
                Alternative("winner", body=winner),
            ]
        )
        assert result.value == "ok"
        assert result.outcome("crasher").status == "failed"

    def test_all_fail_raises(self):
        def failing(ctx):
            ctx.fail("no")

        with pytest.raises(AltBlockFailure):
            fork_executor().run(
                [Alternative("a", body=failing), Alternative("b", body=failing)]
            )

    def test_timeout(self):
        def sleeper(ctx):
            time.sleep(30.0)  # no cancellation points: must be killed
            return 1

        started = time.perf_counter()
        with pytest.raises(AltTimeout):
            fork_executor(timeout=0.2).run([Alternative("sleeper", body=sleeper)])
        assert time.perf_counter() - started < 10.0

    def test_losers_are_killed(self, tmp_path):
        pid_file = tmp_path / "hang.pid"

        def fast(ctx):
            # Win only once the loser is provably running.
            deadline = time.monotonic() + 10.0
            while not pid_file.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
            return os.getpid()

        def hang(ctx):
            partial = tmp_path / "hang.pid.tmp"
            partial.write_text(str(os.getpid()))
            partial.rename(pid_file)
            time.sleep(60.0)

        result = fork_executor().run(
            [Alternative("fast", body=fast), Alternative("hang", body=hang)]
        )
        assert result.winner.name == "fast"
        assert result.value != os.getpid()  # the winner ran in a child
        assert result.outcome("hang").status == "eliminated"
        hang_pid = int(pid_file.read_text())
        # The killed pid must be gone (the race already reaped it).
        with pytest.raises(OSError):
            os.kill(hang_pid, 0)

    def test_child_isolation_is_real_cow(self):
        """A child's mutation of inherited memory is invisible here."""
        shared = {"value": "parent"}

        def mutator(ctx):
            shared["value"] = "child"
            time.sleep(0.05)
            return shared["value"]

        result = fork_executor().run([Alternative("mutator", body=mutator)])
        assert result.value == "child"
        assert shared["value"] == "parent"

    def test_exports_come_back(self):
        def producer(ctx):
            ctx.put("rows", [1, 2, 3])
            return "done"

        executor = fork_executor()
        parent = executor.new_parent()
        result = executor.run(
            [Alternative("producer", body=producer)], parent=parent
        )
        assert result.value == "done"
        assert parent.space.get("rows") == [1, 2, 3]

    def test_empty_race_rejected(self):
        with pytest.raises(ValueError):
            fork_executor().run([])


class TestAlternativeFrontEnd:
    def test_run_alternatives(self):
        def fast_body(ctx):
            ctx.put("who", "fast")
            return "fast"

        def slow_body(ctx):
            time.sleep(3.0)
            return "slow"

        executor = fork_executor()
        parent = executor.new_parent()
        result = executor.run(
            [
                Alternative("slow", body=slow_body),
                Alternative("fast", body=fast_body),
            ],
            parent=parent,
        )
        assert result.value == "fast"
        assert parent.space.get("who") == "fast"

    def test_guard_in_child(self):
        def safe_body(ctx):
            time.sleep(0.05)
            return 1

        arm = Alternative(
            "guarded",
            body=lambda ctx: -5,
            guard=lambda ctx, value: value > 0,
        )
        safe = Alternative("safe", body=safe_body)
        result = fork_executor().run([arm, safe])
        assert result.value == 1
        assert result.outcome("guarded").status == "failed"

    def test_pre_guard_closes_arm(self):
        closed = Alternative(
            "closed", body=lambda ctx: "x", pre_guard=lambda ctx: False
        )
        open_arm = Alternative("open", body=lambda ctx: "y")
        result = fork_executor().run([closed, open_arm])
        assert result.value == "y"
        assert result.winner.name == "open"


class TestOsHostStress:
    def test_large_export_payload(self):
        def producer(ctx):
            ctx.put("blob", list(range(50_000)))
            return "ok"

        executor = fork_executor(space_size=1024 * 1024)
        parent = executor.new_parent()
        result = executor.run(
            [Alternative("producer", body=producer)], parent=parent
        )
        assert result.value == "ok"
        assert len(parent.space.get("blob")) == 50_000
