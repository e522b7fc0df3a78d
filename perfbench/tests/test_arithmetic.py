"""Self-tests for the benchmark's own arithmetic, on synthetic inputs.

Nothing here forks, spawns or times anything: these pin the formulas the
benchmark reports with.  Run with ``python3 -m pytest perfbench/tests``.
"""

import statistics

import pytest

from perfbench import stats
from perfbench.arms import SpinArm, lcg_jump
from perfbench.trace import Recorder, Span, layer_metrics
from perfbench.workloads import Tally


# ----------------------------------------------------------------------
# quantiles and the tail rule


def test_quantile_matches_linear_interpolation():
    samples = [5.0, 1.0, 3.0, 2.0, 4.0]
    assert stats.quantile(samples, 0.0) == 1.0
    assert stats.quantile(samples, 0.5) == 3.0
    assert stats.quantile(samples, 1.0) == 5.0
    assert stats.quantile(samples, 0.25) == 2.0
    assert stats.quantile([0.0, 10.0], 0.9) == pytest.approx(9.0)
    assert stats.quantile(samples, 0.5) == statistics.median(samples)


def test_quantile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        stats.quantile([], 0.5)
    with pytest.raises(ValueError):
        stats.quantile([1.0], 1.5)


@pytest.mark.parametrize("count, expected", [
    (1, 0.5),        # one sample: no tail to speak of, the median
    (20, 0.5),       # 10 beyond p50 is all 20 samples allow
    (100, 0.9),      # 10 beyond p90
    (400, 0.975),
    (1000, 0.99),    # enough for p99
    (100_000, 0.99), # never above p99
])
def test_tail_is_highest_percentile_with_ten_beyond(count, expected):
    q = stats.tail_q(count)
    assert q == pytest.approx(expected)
    if q > 0.5:
        assert count * (1 - q) >= stats.TAIL_MIN_BEYOND - 1e-9


def test_tail_returns_the_quantile_it_names():
    samples = [float(i) for i in range(100)]
    q, value = stats.tail(samples)
    assert q == pytest.approx(0.9)
    assert value == pytest.approx(stats.quantile(samples, 0.9))


# ----------------------------------------------------------------------
# failed_ratio counting


def test_failed_ratio():
    assert stats.failed_ratio(10, 0) == 0.0
    assert stats.failed_ratio(4, 1) == 0.25
    assert stats.failed_ratio(0, 0) == 0.0
    with pytest.raises(ValueError):
        stats.failed_ratio(1, 2)


def test_tally_counts_rejects_errors_and_wrong_answers_as_failed():
    tally = Tally()
    tally.complete(0.010, correct=True)
    tally.complete(0.020, correct=True)
    tally.fail("rejected")
    tally.fail("ticket-error: AltBlockFailure")
    tally.complete(0.030, correct=False, detail="block 7: got 'x'")
    tally.fail("degraded-to-serial-replay")
    assert tally.attempted == 6
    assert tally.failed == 4
    assert tally.wrong == ["block 7: got 'x'"]
    # Percentiles cover completed, correct blocks only.
    assert tally.latencies == [0.010, 0.020]
    assert stats.failed_ratio(tally.attempted, tally.failed) == pytest.approx(4 / 6)


def test_tally_absorb_merges_phases():
    closed, opened = Tally(), Tally()
    closed.complete(0.001, True)
    closed.fail("rejected")
    opened.fail("rejected")
    opened.complete(0.002, True)
    opened.absorb(closed)
    assert (opened.attempted, opened.failed) == (4, 2)
    assert opened.failures == {"rejected": 2}
    assert opened.latencies == [0.002]  # latency comes from its own phase


# ----------------------------------------------------------------------
# pi_measured and growth per 1,000 blocks


def test_pi_measured_is_ratio_of_means():
    sequential = [0.020, 0.010, 0.030]
    concurrent = [0.040, 0.040, 0.040]
    assert stats.pi_measured(sequential, concurrent) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        stats.pi_measured([0.1], [0.1, 0.2])
    with pytest.raises(ValueError):
        stats.pi_measured([], [])


def test_growth_per_kblock():
    assert stats.per_kblock(391, 3213, 2822) == pytest.approx(1000.0)
    assert stats.per_kblock(10, 10, 500) == 0.0
    assert stats.per_kblock(10, 9, 1000) == -1.0
    assert stats.per_kblock(10, 20, 0) == 0.0


# ----------------------------------------------------------------------
# self time of nested spans


def test_self_time_subtracts_union_of_children():
    # Parent 0..10; children overlap (2..5, 4..7) and one sticks out
    # past the parent's end (9..12): covered = 2..7 + 9..10 = 6.
    assert stats.self_time(0.0, 10.0, [(2, 5), (4, 7), (9, 12)]) == \
        pytest.approx(4.0)
    assert stats.self_time(0.0, 10.0, []) == 10.0
    assert stats.self_time(0.0, 10.0, [(0, 10), (3, 4)]) == 0.0


def _span(span_id, name, start, end, parent=None, block=None, detail=None):
    span = Span(span_id, name, start, parent, block)
    span.end = end
    span.detail = detail
    return span


def test_layer_metrics_from_synthetic_spans():
    spans = [
        _span(1, "server.submit", 0.000, 0.001, block=7),
        _span(2, "executor.run", 0.004, 0.014, block=7),
        _span(3, "primitives.alt_spawn", 0.004, 0.005, parent=2, block=7),
        _span(4, "backend.run_arms", 0.005, 0.012, parent=2, block=7,
              detail=0.002),
        _span(5, "pool.lease", 0.005, 0.006, parent=4, block=7, detail=True),
        _span(6, "pool.lease", 0.006, 0.007, parent=4, block=7, detail=False),
        _span(7, "primitives.alt_wait", 0.012, 0.013, parent=2, block=7),
        # A sequential run is not under the executor: its alt_wait must
        # not count as the concurrent executor's commit.
        _span(8, "sequential.run", 0.020, 0.030, block=7),
        _span(9, "primitives.alt_wait", 0.021, 0.022, parent=8, block=7),
        _span(10, "cluster.vote", 0.0, 0.002, detail=False),
        _span(11, "cluster.vote", 0.0, 0.004, detail=True),
    ]
    metrics = layer_metrics(spans)
    assert metrics["server.submit_us"] == pytest.approx(1000.0)
    assert metrics["server.queue_wait_ms"] == pytest.approx(4.0)
    assert metrics["executor.run_ms"] == pytest.approx(10.0)
    # 10 ms run minus spawn (1) + run_arms (7) + alt_wait (1).
    assert metrics["executor.self_ms"] == pytest.approx(1.0)
    assert metrics["primitives.spawn_us"] == pytest.approx(1000.0)
    assert metrics["primitives.commit_us"] == pytest.approx(1000.0)
    assert metrics["backend.run_arms_ms"] == pytest.approx(7.0)
    # run_arms lasted 7 ms; its winner finished 2 ms in.
    assert metrics["backend.elim_wait_ms"] == pytest.approx(5.0)
    assert metrics["pool.lease_ratio"] == pytest.approx(0.5)
    assert metrics["sequential.run_ms"] == pytest.approx(10.0)
    assert metrics["cluster.vote_ms"] == pytest.approx(3.0)
    assert metrics["cluster.votes_denied"] == 1.0
    assert metrics["querydb.plan_us"] == 0.0  # never called


def test_recorder_links_parents_blocks_and_pauses():
    recorder = Recorder()
    recorder.enabled = True

    def inner():
        return recorder.call("inner", lambda: 42, (), {}, None, None)

    def block_of(args, kwargs):
        return kwargs["seed"]

    assert recorder.call("outer", lambda seed: inner(), (), {"seed": 9},
                         block_of, None) == 42
    with recorder.paused():
        recorder.call("hidden", lambda: None, (), {}, None, None)
    inner_span, outer_span = recorder.spans
    assert (outer_span.name, outer_span.block, outer_span.parent) == \
        ("outer", 9, None)
    assert (inner_span.name, inner_span.block, inner_span.parent) == \
        ("inner", 9, outer_span.id)
    assert outer_span.start <= inner_span.start <= inner_span.end <= \
        outer_span.end


# ----------------------------------------------------------------------
# the arms' oracle


def test_lcg_jump_matches_the_spin_loop():
    class Space:
        def write(self, offset, data):
            pass

    class Context:
        space = Space()

        def put(self, name, value):
            pass

    arm = SpinArm("a", seed=12345, spins=1000, pages=())
    assert arm(Context()) == arm.expected()
    assert lcg_jump(7, 0) == 7
