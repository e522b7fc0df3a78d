"""ProcessBackend hardening: framing, truncation, promotion, reaping."""

import os
import pickle
import time

import pytest

from repro.core.alternative import Alternative
from repro.core.backends import ProcessBackend
from repro.core.backends.process import (
    _FRAME,
    _MAGIC,
    _RecordReader,
    _frame_record,
    _orphan_pids,
    _register_orphan,
    sweep_orphans,
)
from repro.core.concurrent import ConcurrentExecutor
from repro.errors import AltBlockFailure
from repro.resilience import FaultInjector, injected

pytestmark = [
    pytest.mark.slow,
    pytest.mark.subprocess,
    pytest.mark.skipif(not hasattr(os, "fork"), reason="requires os.fork"),
]


def assert_no_unreaped_children():
    """Every forked child must be reaped by the time a race returns."""
    assert not _orphan_pids
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def block(n=2, delay=0.05):
    """``n`` arms; arm 0 finishes first, later arms are slower."""
    def make(i):
        return Alternative(
            f"arm{i}", body=lambda ctx, i=i: ctx.sleep(i * delay) or f"v{i}"
        )
    return [make(i) for i in range(n)]


class TestRecordReader:
    def test_roundtrip(self):
        frame, code = _frame_record({"index": 0, "ok": True, "value": 7})
        assert code == 0
        reader = _RecordReader()
        (record,) = reader.feed(frame)
        assert record["value"] == 7
        assert not reader.pending and not reader.corrupt

    def test_split_delivery(self):
        frame, _ = _frame_record({"index": 1, "ok": False, "detail": "x"})
        reader = _RecordReader()
        assert reader.feed(frame[:5]) == []
        assert reader.pending
        (record,) = reader.feed(frame[5:])
        assert record["detail"] == "x"

    def test_checksum_mismatch_detected(self):
        frame, _ = _frame_record({"index": 0, "ok": True, "value": 1})
        tampered = frame[:-1] + bytes([frame[-1] ^ 0xFF])
        reader = _RecordReader()
        assert reader.feed(tampered) == []
        assert reader.corrupt
        assert "checksum" in reader.corrupt_detail

    def test_bad_magic_detected(self):
        frame, _ = _frame_record({"index": 0, "ok": True, "value": 1})
        reader = _RecordReader()
        assert reader.feed(b"XX" + frame[2:]) == []
        assert reader.corrupt
        assert "header" in reader.corrupt_detail

    def test_truncation_leaves_pending(self):
        frame, _ = _frame_record({"index": 0, "ok": True, "value": 1})
        reader = _RecordReader()
        assert reader.feed(frame[: _FRAME.size + 3]) == []
        assert reader.pending and not reader.corrupt

    def test_unpicklable_value_becomes_named_failure(self):
        frame, code = _frame_record(
            {"index": 0, "ok": True, "value": lambda: None}
        )
        assert code == 81
        (record,) = _RecordReader().feed(frame)
        assert record["ok"] is False
        assert record["abnormal"] is True
        assert "not picklable" in record["detail"]


class TestWinnerPromotion:
    def test_corrupt_record_never_wins(self, fault_seed):
        """The fastest arm's record is corrupted on the wire; the next
        intact finisher is promoted to winner."""
        injector = FaultInjector(seed=fault_seed).record_corrupt(arms=[0])
        executor = ConcurrentExecutor(backend=ProcessBackend(kill_grace=0.5))
        with injected(injector):
            result = executor.run(block())
        assert result.value == "v1"
        report = executor._last_race.report(0)
        assert report.abnormal
        assert "corrupt" in report.detail
        assert_no_unreaped_children()

    def test_winner_death_during_shipback_promotes_next(self, fault_seed):
        """A child dying mid-shipback (truncated frame) never becomes the
        winner; its sibling is promoted."""
        injector = FaultInjector(seed=fault_seed).pipe_truncate(arms=[0])
        executor = ConcurrentExecutor(backend=ProcessBackend(kill_grace=0.5))
        with injected(injector):
            result = executor.run(block())
        assert result.value == "v1"
        report = executor._last_race.report(0)
        assert report.abnormal
        assert "truncated" in report.detail
        assert_no_unreaped_children()

    def test_every_record_corrupt_fails_the_block(self, fault_seed):
        injector = FaultInjector(seed=fault_seed).record_corrupt(times=None)
        executor = ConcurrentExecutor(backend=ProcessBackend(kill_grace=0.5))
        with injected(injector), pytest.raises(AltBlockFailure):
            executor.run(block())
        assert_no_unreaped_children()

    def test_unpicklable_winner_value_demotes_the_arm(self):
        arms = [
            Alternative("bad", body=lambda ctx: (lambda: None)),
            Alternative("good", body=lambda ctx: ctx.sleep(0.05) or "good"),
        ]
        executor = ConcurrentExecutor(backend=ProcessBackend(kill_grace=0.5))
        result = executor.run(arms)
        assert result.value == "good"
        assert "not picklable" in result.outcome("bad").detail
        assert_no_unreaped_children()


class TestReaping:
    def test_sweep_orphans_reclaims_leaked_children(self):
        pid = os.fork()
        if pid == 0:  # pragma: no cover - child exits immediately below
            time.sleep(60)
            os._exit(0)
        _register_orphan(pid)
        assert sweep_orphans() == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)
        assert pid not in _orphan_pids

    def test_race_leaves_no_children_behind(self, fault_seed):
        injector = (
            FaultInjector(seed=fault_seed)
            .arm_sigkill(arms=[1])
            .arm_hang(arms=[2], duration=30.0)
        )
        executor = ConcurrentExecutor(backend=ProcessBackend(kill_grace=0.3))
        with injected(injector):
            result = executor.run(block(n=3))
        assert result.value == "v0"
        assert_no_unreaped_children()


class TestFdCeiling:
    def test_block_runs_with_fd_numbers_past_fd_setsize(self):
        """``select()`` cannot watch an fd numbered 1024 or more; a
        long-lived process gets there, and its blocks must still race."""
        import resource

        soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
        wanted = 1200
        if hard != resource.RLIM_INFINITY and hard < wanted:
            pytest.skip(f"hard RLIMIT_NOFILE {hard} is below {wanted}")
        if soft != resource.RLIM_INFINITY and soft < wanted:
            resource.setrlimit(resource.RLIMIT_NOFILE, (wanted, hard))
        base = os.open(os.devnull, os.O_RDONLY)
        held = [base]
        try:
            while held[-1] < 1023:
                held.append(os.dup(base))
            executor = ConcurrentExecutor(
                backend=ProcessBackend(kill_grace=0.5, pool=None)
            )
            result = executor.run(block())
            assert result.value == "v0"
        finally:
            for fd in held:
                os.close(fd)
            resource.setrlimit(resource.RLIMIT_NOFILE, (soft, hard))
        assert_no_unreaped_children()
