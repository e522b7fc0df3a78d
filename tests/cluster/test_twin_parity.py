"""One race core, two drivers: the simulated and socket executors agree.

The same three-arm block -- two guards that refuse, one arm that
answers -- runs on :class:`DistributedAltExecutor` over the simulated
network and on :class:`ClusterExecutor` over three localhost
:class:`WorkerDaemon`\\ s.  Both drive :class:`~repro.net.race.Race`, so
they must converge on the same winner, value, variables and parent
bytes, and tell it in the same trace vocabulary.

Timing is arranged so the interleaving is the same on both substrates:
``guard-a`` refuses at once, ``the-answer`` takes a moment, and
``guard-b`` is still deliberating (simulated cost, or wall-clock sleep
that watches for a cancel) when the answer commits -- so it is the one
loser the core eliminates.
"""

import time
from collections import Counter

import pytest

from repro.check.chaos import make_net
from repro.cluster.daemon import WorkerDaemon
from repro.cluster.executor import ClusterExecutor, WorkerEndpoint
from repro.core.alternative import Alternative
from repro.net.distributed import DistributedAltExecutor
from repro.net.lease import RaceWarden
from repro.obs import events as _ev
from repro.obs.tracer import tracing

#: The events the race core emits (driver plumbing such as connection
#: and heartbeat events is substrate-specific and left out).
CORE_EVENTS = {
    _ev.BLOCK_BEGIN, _ev.BLOCK_END, _ev.WINNER_COMMIT, _ev.LOSER_ELIMINATE,
    _ev.WORKER_RESPAWN, _ev.DEGRADE,
}


def _patient(ctx, seconds):
    for _ in range(int(seconds / 0.02)):
        if ctx.token is not None and ctx.token.cancelled:
            return False
        time.sleep(0.02)
    return True


def guard_a(ctx):
    ctx.fail("guard-a rejects")


def the_answer(ctx):
    _patient(ctx, 0.15)
    ctx.put("result", 42)
    return 42


def guard_b(ctx):
    _patient(ctx, 0.6)
    ctx.fail("guard-b rejects")


def one_success_block():
    return [
        Alternative("guard-a", guard_a, cost=0.1),
        Alternative("the-answer", the_answer, cost=0.5),
        Alternative("guard-b", guard_b, cost=2.0),
    ]


def observe(executor):
    parent = executor.new_parent()
    parent.space.put("shared", "base")
    with tracing() as tracer:
        result = executor.run(one_success_block(), parent=parent)
    observed = {
        "outcome": (
            result.winner.name,
            result.value,
            {name: parent.space.get(name) for name in parent.space.names()},
            parent.space.read(0, parent.space.size),
        ),
        "events": Counter(
            (event.kind, event.arm, event.attrs.get("reason"))
            for event in tracer.events
            if event.kind in CORE_EVENTS
        ),
        "settled": executor.warden.table.all_settled,
    }
    parent.space.release()
    return observed


@pytest.fixture
def daemons():
    started = [WorkerDaemon(f"w{i}") for i in range(3)]
    endpoints = [WorkerEndpoint(d.node_id, *d.start()) for d in started]
    yield endpoints
    for daemon in started:
        daemon.stop()


def test_simulated_and_socket_drivers_agree(daemons):
    simulated = observe(DistributedAltExecutor(
        make_net(), home="home", workers=["w1", "w2", "w3"], seed=0,
        warden=RaceWarden(),
    ))
    wired = observe(ClusterExecutor(daemons, seed=0))

    assert simulated["outcome"] == wired["outcome"]
    assert simulated["outcome"][:2] == ("the-answer", 42)
    assert simulated["events"] == wired["events"]
    assert simulated["events"] == Counter({
        (_ev.BLOCK_BEGIN, None, None): 1,
        (_ev.WINNER_COMMIT, 1, None): 1,
        (_ev.LOSER_ELIMINATE, 2, "sibling-won"): 1,
        (_ev.BLOCK_END, None, None): 1,
    })
    assert simulated["settled"] and wired["settled"]
