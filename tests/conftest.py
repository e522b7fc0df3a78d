"""Suite-wide test configuration."""

import gc

import pytest

from hypothesis import HealthCheck, settings

# Property tests exercise real simulations; wall-clock deadlines only add
# flakiness on loaded machines, and the executors intentionally do a lot
# of work per example.
settings.register_profile(
    "repro",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")


@pytest.fixture(scope="session", autouse=True)
def shm_leak_audit():
    """Fail the whole suite if any test run leaked a slab or segment.

    The same audit every worker daemon runs at shutdown
    (:func:`repro.pages.shm.orphaned_segments`), promoted to a
    session-wide gate.  Once every test's objects are collected, no
    slab this process created may still be live: a live slab is one a
    commit adopted and nobody released, which a long-running server
    would accumulate block after block.  Only then are owned slabs
    reclaimed (exactly what the ``atexit`` hook would do moments later)
    and ``/dev/shm`` audited: segments predating the session are
    someone else's corpse and only reported; anything left carrying our
    prefix has no owner and would outlive the suite.
    """
    from repro.pages.shm import (
        cleanup_all_slabs,
        live_slab_count,
        orphaned_segments,
    )

    baseline = set(orphaned_segments())
    yield
    gc.collect()
    live = live_slab_count()
    cleanup_all_slabs()
    if live:
        pytest.fail(
            f"test run left {live} shared-memory slabs live "
            "(adopted pages never released)",
            pytrace=False,
        )
    leaked = sorted(set(orphaned_segments()) - baseline)
    if leaked:
        pytest.fail(
            "test run leaked /dev/shm segments: " + ", ".join(leaked),
            pytrace=False,
        )
