"""The worker daemon's protocol surface, exercised over real sockets.

In-thread daemons: every conversation crosses a genuine localhost TCP
connection, only the process boundary is elided (the subprocess suite
covers that).
"""

import os
import statistics
import threading
import time

import pytest

from repro.cluster.daemon import WorkerDaemon
from repro.cluster.stream import StreamClosed, connect
from repro.core.alternative import Alternative
from repro.pages.store import PageStore
from repro.process.primitives import ProcessManager


# -- picklable demo bodies (they ship through the wire) -----------------

def put_result(ctx):
    ctx.put("result", 42)
    return 42


def slow_body(ctx):
    for _ in range(100):
        if ctx.token is not None and ctx.token.cancelled:
            return "cancelled"
        time.sleep(0.01)
    return "finished"


def failing_body(ctx):
    ctx.fail("guard says no")


def raising_body(ctx):
    raise RuntimeError("boom")


def reject_guard(ctx, value):
    return False


def put_after_a_beat(ctx):
    # Long enough that the handler is already waiting when it returns.
    time.sleep(0.01)
    return put_result(ctx)


def stubborn_body(ctx):
    time.sleep(0.3)  # never polls its token: outlives a soft crash
    return "late"


@pytest.fixture
def daemon():
    d = WorkerDaemon("w-test")
    d.start()
    yield d
    d.stop()


def dial(daemon):
    return connect(daemon.host, daemon.port)


def checkpoint_image(extra=None):
    """A parent image with known contents, as the executor would ship."""
    manager = ProcessManager(PageStore())
    parent = manager.create_initial(space_size=64 * 1024)
    parent.space.put("base", "shipped")
    if extra:
        for key, value in extra.items():
            parent.space.put(key, value)
    image = parent.space.read(0, parent.space.size)
    parent.space.release()
    return image


def ship_msg(alt, image, arm=0, epoch=1, **overrides):
    msg = {
        "kind": "ship",
        "alt": alt,
        "arm": arm,
        "epoch": epoch,
        "seed": 0,
        "name": alt.name,
        "image": image,
        "space_size": 64 * 1024,
        "hb_interval": 0.02,
    }
    msg.update(overrides)
    return msg


def await_result(stream, timeout=5.0):
    """Drain heartbeats until the result record lands."""
    deadline = time.monotonic() + timeout
    beats = 0
    while time.monotonic() < deadline:
        msg = stream.recv(timeout=0.2)
        if msg is None:
            continue
        if msg["kind"] == "hb":
            beats += 1
            continue
        if msg["kind"] == "result":
            return msg, beats
    pytest.fail("no result before the timeout")


class TestControlPlane:
    def test_ping_pong(self, daemon):
        with dial(daemon) as stream:
            assert stream.send({"kind": "ping"})
            reply = stream.recv(timeout=2.0)
            assert reply == {"kind": "pong", "node": "w-test"}

    def test_vote_grants_once_and_sticks(self, daemon):
        with dial(daemon) as stream:
            stream.send({"kind": "vote", "decision": "d1",
                         "requester": "alice"})
            first = stream.recv(timeout=2.0)
            assert first["granted"] is True
            stream.send({"kind": "vote", "decision": "d1",
                         "requester": "bob"})
            second = stream.recv(timeout=2.0)
            assert second["granted"] is False  # sticky, irrevocable
            stream.send({"kind": "vote", "decision": "d1",
                         "requester": "alice"})
            again = stream.recv(timeout=2.0)
            assert again["granted"] is True  # idempotent for the holder

    def test_shutdown_record_stops_the_daemon(self):
        daemon = WorkerDaemon("w-bye")
        daemon.start()
        with dial(daemon) as stream:
            stream.send({"kind": "shutdown"})
            assert stream.recv(timeout=2.0)["kind"] == "bye"
        deadline = time.monotonic() + 2.0
        while not daemon.stopping and time.monotonic() < deadline:
            time.sleep(0.01)
        assert daemon.stopping
        assert daemon.shm_leaks_at_shutdown == ()


class TestArmExecution:
    def test_ship_runs_body_in_shipped_world(self, daemon):
        alt = Alternative("the-answer", put_result)
        with dial(daemon) as stream:
            stream.send(ship_msg(alt, checkpoint_image()))
            result, _ = await_result(stream)
        assert result["ok"] is True
        assert result["value"] == 42
        assert result["epoch"] == 1
        assert result["pages_written"] >= 1
        assert result["dirty_pages"]  # the changed state ships home

    def test_shipped_image_is_visible_to_the_body(self, daemon):
        # Bodies must pickle: module-level only.
        alt = Alternative("reader", _read_base)
        with dial(daemon) as stream:
            stream.send(ship_msg(alt, checkpoint_image()))
            result, _ = await_result(stream)
        assert result["ok"] is True
        assert result["value"] == "shipped"

    def test_heartbeats_interleave_with_a_slow_body(self, daemon):
        alt = Alternative("slow", slow_body)
        with dial(daemon) as stream:
            stream.send(ship_msg(alt, checkpoint_image()))
            # Give the body a few heartbeat periods before cancelling.
            deadline = time.monotonic() + 5.0
            beats = 0
            while beats < 3 and time.monotonic() < deadline:
                msg = stream.recv(timeout=0.2)
                if msg is not None and msg["kind"] == "hb":
                    beats += 1
            assert beats >= 3
            stream.send({"kind": "cancel"})
            result, _ = await_result(stream)
        assert result["value"] == "cancelled"
        assert daemon.arms_cancelled == 1

    def test_guard_failure_ships_ok_false(self, daemon):
        alt = Alternative("failing", failing_body)
        with dial(daemon) as stream:
            stream.send(ship_msg(alt, checkpoint_image()))
            result, _ = await_result(stream)
        assert result["ok"] is False
        assert "guard says no" in result["detail"]

    def test_acceptance_test_failure_ships_ok_false(self, daemon):
        alt = Alternative("rejected", put_result, guard=reject_guard)
        with dial(daemon) as stream:
            stream.send(ship_msg(alt, checkpoint_image()))
            result, _ = await_result(stream)
        assert result["ok"] is False
        assert "acceptance" in result["detail"]

    def test_raising_body_ships_the_exception_not_silence(self, daemon):
        alt = Alternative("boom", raising_body)
        with dial(daemon) as stream:
            stream.send(ship_msg(alt, checkpoint_image()))
            result, _ = await_result(stream)
        assert result["ok"] is False
        assert "boom" in result["detail"]

    def test_orphaned_arm_is_cancelled_when_home_vanishes(self, daemon):
        alt = Alternative("slow", slow_body)
        stream = dial(daemon)
        stream.send(ship_msg(alt, checkpoint_image()))
        assert stream.recv(timeout=2.0) is not None  # it is running
        stream.close()  # home dies; the wire is the lease
        deadline = time.monotonic() + 5.0
        while daemon._inflight and time.monotonic() < deadline:
            time.sleep(0.02)
        assert not daemon._inflight  # the orphan self-terminated

    def test_orphan_exit_runs_the_shm_audit(self, daemon):
        """Satellite fix: the abnormal-exit path audits shm just like a
        polite shutdown does -- and after the arm's own hygiene, the
        audit must come back clean."""
        alt = Alternative("slow", slow_body)
        stream = dial(daemon)
        stream.send(ship_msg(alt, checkpoint_image()))
        assert stream.recv(timeout=2.0) is not None
        stream.close()
        deadline = time.monotonic() + 5.0
        while daemon.arms_orphaned == 0 and time.monotonic() < deadline:
            time.sleep(0.02)
        assert daemon.arms_orphaned == 1
        assert daemon.shm_leaks_after_orphan == ()

    def test_soft_crash_drops_the_connection_mid_arm(self, daemon):
        alt = Alternative("slow", slow_body)
        with dial(daemon) as stream:
            stream.send(ship_msg(alt, checkpoint_image(),
                                 crash_after=0.05))
            with pytest.raises(StreamClosed):
                while True:
                    stream.recv(timeout=0.5)


class TestResultOnCompletion:
    """The handler wakes when the arm body returns, not on its next
    receive timeout or heartbeat."""

    def test_result_ships_the_moment_the_arm_returns(self, daemon):
        alt = Alternative("the-answer", put_after_a_beat)
        image = checkpoint_image()
        took = []
        for _ in range(5):
            with dial(daemon) as stream:
                sent = time.perf_counter()
                stream.send(ship_msg(alt, image, hb_interval=1.0))
                result, beats = await_result(stream)
                took.append(time.perf_counter() - sent)
            assert result["value"] == 42
            assert beats == 0
        # A 50 ms receive poll could not answer before its timeout.
        assert statistics.median(took) < 0.025, took

    def test_open_fds_stay_flat_across_ships_crashes_and_orphans(
        self, daemon
    ):
        fast = Alternative("the-answer", put_result)
        slow = Alternative("slow", slow_body)
        image = checkpoint_image()

        def one_ship(i):
            stream = dial(daemon)
            try:
                if i % 10 == 3:  # soft crash mid-arm
                    stream.send(ship_msg(slow, image, crash_after=0.01))
                    with pytest.raises(StreamClosed):
                        while True:
                            stream.recv(timeout=2.0)
                elif i % 10 == 7:  # home vanishes mid-arm
                    stream.send(ship_msg(slow, image))
                    assert stream.recv(timeout=2.0)["kind"] == "hb"
                else:
                    stream.send(ship_msg(fast, image))
                    assert await_result(stream)[0]["value"] == 42
            finally:
                stream.close()

        def settle():
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline and (
                daemon._inflight or any(
                    t.name.startswith("daemon-w-test-")
                    for t in threading.enumerate()
                    if t.name != "daemon-w-test"
                )
            ):
                time.sleep(0.01)
            return len(os.listdir("/proc/self/fd"))

        for i in range(10):  # warm up every path once
            one_ship(i)
        before = settle()
        for i in range(200):
            one_ship(i)
        assert settle() == before
        assert daemon.arms_orphaned == 21

    @pytest.mark.filterwarnings(
        "error::pytest.PytestUnhandledThreadExceptionWarning"
    )
    def test_arm_outliving_a_soft_crash_raises_nothing(self, daemon):
        alt = Alternative("stubborn", stubborn_body)
        with dial(daemon) as stream:
            stream.send(ship_msg(alt, checkpoint_image(), crash_after=0.02))
            with pytest.raises(StreamClosed):
                while True:
                    stream.recv(timeout=2.0)
        # The handler is gone; the body returns afterwards and must not
        # signal into the handler's closed wake fd.
        for thread in threading.enumerate():
            if thread.name.startswith("daemon-w-test-arm"):
                thread.join(timeout=5.0)
        assert not daemon._inflight
        assert daemon.arms_run == 1


def _read_base(ctx):
    return ctx.get("base")
