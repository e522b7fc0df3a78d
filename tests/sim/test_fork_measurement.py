"""The section 4.4 real-fork meter that backs benchmark M1.

``measure_fork_cost`` lives next to its only user,
``benchmarks/bench_overhead_cow.py``; the module is loaded here by path
so the meter keeps running in the test suite.
"""

import importlib.util
import os
import sys

import pytest

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="requires os.fork"
)

_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)
_BENCH = os.path.join(_ROOT, "benchmarks", "bench_overhead_cow.py")


def _load_bench():
    spec = importlib.util.spec_from_file_location("bench_overhead_cow", _BENCH)
    module = importlib.util.module_from_spec(spec)
    # Dataclasses resolve their module through ``sys.modules``.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


measure_fork_cost = _load_bench().measure_fork_cost


class TestForkMeasurement:
    def test_measures_positive_latency(self):
        measurement = measure_fork_cost(
            space_bytes=64 * 1024, fraction_written=0.0, trials=3
        )
        assert measurement.mean_seconds > 0
        assert measurement.min_seconds <= measurement.mean_seconds
        assert measurement.mean_seconds <= measurement.max_seconds
        assert measurement.trials == 3

    def test_writing_pages_costs_more(self):
        size = 8 * 1024 * 1024  # large enough for faults to dominate noise
        clean = measure_fork_cost(size, fraction_written=0.0, trials=3)
        dirty = measure_fork_cost(size, fraction_written=1.0, trials=3)
        # The paper's independent variable at work on real hardware; use
        # a generous margin because wall-clock noise is real.
        assert dirty.mean_seconds > clean.mean_seconds * 0.8

    def test_validation(self):
        with pytest.raises(ValueError):
            measure_fork_cost(fraction_written=1.5)
        with pytest.raises(ValueError):
            measure_fork_cost(trials=0)
