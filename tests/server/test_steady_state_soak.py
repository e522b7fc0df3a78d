"""Steady state: thousands of blocks leave no resource behind.

Every block that commits over the process backend adopts the winner's
shared-memory slab into a parent's page store.  The service only reaches
a steady state if that parent is released -- by the executor when it
made the parent, by the server once a captured space is copied, by the
store's finalizer when a library caller simply drops its parent.  Three
phases, each warmed up and then measured with the resource ledger (open
fds, live slabs, own ``/dev/shm`` entries, threads, children):

1. 2,000 blocks through a pooled :class:`~repro.server.RaceServer`;
2. 1,100 fork-per-block blocks on one long-lived executor -- past the
   1,024-fd ceiling ``select()`` imposed, so a leak of one fd per block
   would also stop the backend;
3. 300 library-caller blocks, each with a fresh executor and a parent
   the caller owns and drops.
"""

import gc
import os
import threading

import pytest

from repro.core.alternative import Alternative
from repro.core.backends import ProcessBackend
from repro.core.concurrent import ConcurrentExecutor
from repro.pages.shm import SLAB_PREFIX, live_slab_count
from repro.process.pool import WorldPool
from repro.server import RaceServer, ServerConfig

pytestmark = [
    pytest.mark.slow,
    pytest.mark.subprocess,
    pytest.mark.skipif(not hasattr(os, "fork"), reason="requires os.fork"),
    pytest.mark.skipif(
        not os.path.isdir("/proc/self/fd"), reason="needs /proc to count fds"
    ),
]

#: Fds a phase may gain after warm-up without counting as growth (a
#: lazily opened log or pipe); a per-block leak gains one per block.
FD_SLACK = 4


class _Tag:
    """Picklable null arm: writes its answer and returns it."""

    def __init__(self, value):
        self.value = value

    def __call__(self, ctx):
        ctx.put("answer", self.value)
        return self.value


def _block(seq):
    value = f"answer-{seq}"
    return value, [
        Alternative(f"b{seq}-arm{i}", body=_Tag(value)) for i in range(2)
    ]


def _children():
    """Live (non-zombie) children of this process."""
    me = os.getpid()
    found = 0
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == me and fields[0] != "Z":
            found += 1
    return found


def _ledger():
    prefix = f"{SLAB_PREFIX}_{os.getpid()}_"
    try:
        shm = sum(
            1 for name in os.listdir("/dev/shm") if name.startswith(prefix)
        )
    except OSError:
        shm = 0
    return {
        "fds": len(os.listdir("/proc/self/fd")),
        "live_slabs": live_slab_count(),
        "shm_entries": shm,
        "threads": threading.active_count(),
        "children": _children(),
    }


def _assert_flat(warm, end, phase):
    assert end["fds"] <= warm["fds"] + FD_SLACK, (phase, warm, end)
    for key in ("live_slabs", "shm_entries", "threads", "children"):
        assert end[key] <= warm[key], (phase, key, warm, end)


def _serve(server, first, count, window=64):
    """Submit ``count`` blocks in windows; every ticket must be right."""
    for start in range(first, first + count, window):
        tickets = []
        for seq in range(start, min(start + window, first + count)):
            value, arms = _block(seq)
            ticket = server.submit(
                f"tenant-{seq % 3}", arms, seed=seq,
                capture_space=seq % 4 == 0,
            )
            tickets.append((value, ticket))
        for value, ticket in tickets:
            assert ticket.wait(timeout=60.0), "block never finished"
            assert ticket.error is None, ticket.error
            assert ticket.value == value
            if ticket.variables is not None:
                assert ticket.variables == {"answer": value}


def test_pooled_server_reaches_a_steady_state():
    pool = WorldPool(size=4)
    server = RaceServer(
        ServerConfig(
            backend="process", workers=2, max_inflight_arms=4, pool=pool
        )
    )
    try:
        _serve(server, 0, 200)
        warm = _ledger()
        _serve(server, 200, 1800)
        end = _ledger()
    finally:
        server.shutdown()
        pool.shutdown()
    _assert_flat(warm, end, "pooled server")


def test_fork_per_block_runs_past_the_select_ceiling():
    executor = ConcurrentExecutor(backend=ProcessBackend(pool=None))

    def run(first, count):
        for seq in range(first, first + count):
            value, arms = _block(seq)
            assert executor.run(arms).value == value

    run(0, 100)
    warm = _ledger()
    run(100, 1000)
    end = _ledger()
    _assert_flat(warm, end, "fork per block")


def test_library_callers_dropping_their_parents():
    pool = WorldPool(size=2)
    backend = ProcessBackend(pool=pool)

    def run(first, count):
        for seq in range(first, first + count):
            value, arms = _block(seq)
            executor = ConcurrentExecutor(backend=backend, seed=seq)
            parent = executor.new_parent()
            assert executor.run(arms, parent=parent).value == value
            assert parent.space.get("answer") == value

    try:
        run(0, 50)
        gc.collect()
        warm = _ledger()
        run(50, 250)
        end = _ledger()
    finally:
        pool.shutdown()
    _assert_flat(warm, end, "library callers")
