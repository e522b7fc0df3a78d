"""The sans-IO race core driven by scripted events.

No sockets, no simulated network: each test plays the part of a driver,
telling :class:`~repro.net.race.Race` what happened and when, and checks
the decisions the core makes -- placement, the epoch fence, respawn
budgets, consensus rejections, the winner commit -- and that every lease
settles on every path.
"""

import ast
import inspect

import pytest

from repro.core.alternative import Alternative
from repro.core.result import OverheadBreakdown
from repro.errors import AltBlockFailure, ConsensusUnavailable
from repro.net import race as race_module
from repro.net.lease import RaceWarden
from repro.net.race import Race, bracket
from repro.obs import events as _ev
from repro.obs.tracer import tracing
from repro.pages.store import PageStore
from repro.process.primitives import ProcessManager
from repro.resilience.injector import FaultInjector, injected

NODES = ["w1", "w2", "w3"]
PAGE = b"\x42" * 64


def refuse(ctx):
    ctx.fail("refuses")


def answer(ctx):
    ctx.put("result", 42)
    return 42


def block():
    return [
        Alternative("a", refuse),
        Alternative("b", answer),
        Alternative("c", refuse),
    ]


def anywhere(node):
    return True


@pytest.fixture
def home():
    manager = ProcessManager(PageStore())
    parent = manager.create_initial(space_size=16 * 1024)
    yield manager, parent
    parent.space.release()


def launch(race, index, at=0.0, usable=anywhere):
    node = race.place(index, NODES, usable)
    return race.launch(index, node, at, "ship")


def commit(race, inc, parent, at, **kw):
    return race.win(
        inc, parent, 42, {1: PAGE}, at=at, resumed_at=at, kill_at=at,
        overhead=OverheadBreakdown(), **kw
    )


def race_events(tracer):
    return sorted(
        (e.kind, e.arm, e.attrs.get("reason"))
        for e in tracer.events
        if e.kind not in (_ev.LEASE_RENEW, _ev.LEASE_EXPIRE)
    )


class TestPlacement:
    def test_round_robin_from_the_arm_index(self):
        arms = [Alternative(f"x{i}", answer) for i in range(5)]
        race = Race(arms, RaceWarden(), seed=0)
        assert [race.place(i, NODES, anywhere) for i in range(5)] == [
            "w1", "w2", "w3", "w1", "w2"
        ]

    def test_skips_unusable_tried_and_dead_nodes(self):
        race = Race(block(), RaceWarden(), seed=0)
        assert race.place(0, NODES, lambda n: n != "w1") == "w2"
        race.tried[0].add("w2")
        race.dead.add("w3")
        assert race.place(0, NODES, anywhere) == "w1"
        race.tried[0].add("w1")
        assert race.place(0, NODES, anywhere) is None
        assert race.place(0, [], anywhere) is None

    def test_unsupervised_arm_lives_and_dies_on_its_own_node(self):
        race = Race(block(), None, seed=0)
        assert race.place(0, NODES, lambda n: n != "w1") is None
        race.stranded(0, 0.5, NODES)
        assert race.outcomes[0].status == "failed"
        assert race.outcomes[0].detail == "node w1 unreachable"
        race.ship_failed(1, "w2", 0.6, "cut")
        race.stranded(1, 0.6, NODES)
        assert race.outcomes[1].detail == "no reachable worker node"
        labels = [label for _, label in race.timeline]
        assert "b: ship to w2 failed (cut)" in labels

    def test_launch_grants_a_lease_per_incarnation(self):
        warden = RaceWarden()
        race = Race(block(), warden, seed=0)
        inc = launch(race, 1, at=0.25)
        assert (inc.worker, inc.epoch, inc.lease.worker) == ("w2", 1, "w2")
        assert race.next_epoch(1) == 2
        assert race.outcomes[1].started_at == 0.25
        assert race.live() == [inc]
        assert Race(block(), None, seed=0).next_epoch(1) == 0

    def test_a_failed_dial_buries_the_node(self):
        race = Race(block(), RaceWarden(), seed=0)
        race.ship_failed(0, "w1", 0.1, "refused", dead=True)
        assert race.place(0, NODES, anywhere) == "w2"
        assert race.place(1, ["w1"], anywhere) is None

    def test_worker_crash_draw(self):
        race = Race(block(), RaceWarden(), seed=0)
        assert race.crash_after(0) is None
        injector = FaultInjector(seed=0).worker_crash(arms=[0], duration=0.05)
        with injected(injector):
            assert race.crash_after(0) == 0.05
            assert race.crash_after(1) is None

    def test_keyed_rng_ignores_draw_order(self):
        race = Race(block(), None, seed=7)
        first = race.rng("cost", 1).random()
        race.rng("cost", 0).random()
        assert race.rng("cost", 1).random() == first


class TestCleanWin:
    def test_first_finisher_commits_and_losers_are_eliminated(self, home):
        manager, parent = home
        warden = RaceWarden()
        race = Race(block(), warden, seed=0, block=5)
        incs = [launch(race, i) for i in range(3)]
        with tracing() as tracer:
            assert not race.admit(incs[0], 0.1, False, "refuses")
            assert race.admit(incs[1], 0.2, True)
            assert race.vote(incs[1], 0.2, None)
            result = commit(race, incs[1], parent, 0.3)
        assert result.winner.name == "b" and result.value == 42
        assert [o.status for o in result.outcomes] == [
            "failed", "won", "eliminated"
        ]
        assert result.outcomes[0].detail == "refuses"
        assert parent.space.read(parent.space.page_size, len(PAGE)) == PAGE
        assert [l.state for l in warden.table.leases] == [
            "eliminated", "committed", "eliminated"
        ]
        assert warden.table.all_settled
        assert race_events(tracer) == [
            (_ev.LOSER_ELIMINATE, 2, "sibling-won"),
            (_ev.WINNER_COMMIT, 1, None),
        ]
        assert all(e.block == 5 for e in tracer.events)
        labels = [label for _, label in result.timeline]
        assert "a@w1 aborts: refuses" in labels
        assert "kill message to w3" in labels
        assert "parent resumes (state shipped home)" in labels

    def test_kill_schedule_and_wasted_work(self, home):
        _, parent = home
        race = Race(block(), None, seed=0)
        incs = [launch(race, i) for i in range(3)]
        incs[0].duration = 5.0
        assert race.admit(incs[1], 1.0, True)
        result = race.win(
            incs[1], parent, 42, {}, at=1.0, resumed_at=1.5, kill_at=2.0,
            kill_step=0.5, overhead=OverheadBreakdown(),
        )
        # The n-th kill message leaves at kill_at + n * kill_step.
        assert result.outcomes[0].finished_at == 2.0
        assert result.outcomes[2].cpu_consumed == 2.5
        assert result.wasted_work == pytest.approx(4.5)
        assert result.elapsed == 1.5

    def test_unsupervised_failure_raises_without_replay(self, home):
        manager, parent = home
        race = Race(block(), None, seed=0)
        incs = [launch(race, i) for i in range(3)]
        for inc in incs:
            inc.duration = 0.5
            race.admit(inc, 0.5, False, "refuses")
        with pytest.raises(AltBlockFailure, match="all remote") as err:
            race.fail(0.5, parent, manager)
        assert err.value.elapsed == 0.5
        assert [o.cpu_consumed for o in err.value.outcomes] == [0.5] * 3


class TestLeaseLapse:
    def test_zombie_is_fenced_and_the_respawn_commits_under_epoch_2(
            self, home):
        _, parent = home
        warden = RaceWarden()
        race = Race([Alternative("solo", answer)], warden, seed=0)
        first = launch(race, 0)
        with tracing() as tracer:
            race.lapse(first, 0.5)
            assert race.respawn(first, 0.5)
            second = launch(race, 0, at=0.5)
            # The healed partition delivers the zombie's late winner.
            assert not race.admit(first, 0.6, True, epoch=1)
            assert race.admit(second, 0.7, True, epoch=2)
            result = commit(race, second, parent, 0.7)
        assert (first.worker, second.worker, second.epoch) == ("w1", "w2", 2)
        assert result.value == 42
        assert [l.state for l in warden.table.leases] == [
            "expired", "committed"
        ]
        assert warden.table.all_settled
        respawn = [e for e in tracer.events if e.kind == _ev.WORKER_RESPAWN]
        assert respawn[0].attrs["epoch"] == 2
        assert respawn[0].attrs["dead_epoch"] == 1
        assert respawn[0].attrs["dead_worker"] == "w1"
        fence = [e for e in tracer.events if e.kind == _ev.LOSER_ELIMINATE]
        assert [(e.attrs["reason"], e.attrs["epoch"]) for e in fence] == [
            ("stale-epoch-fence", 1)
        ]
        labels = [label for _, label in result.timeline]
        assert "zombie solo@w1 fenced at winner-commit (epoch 1)" in labels

    def test_heartbeats_renew_only_the_live_incarnation(self):
        race = Race([Alternative("solo", answer)], RaceWarden(), seed=0)
        inc = launch(race, 0)
        race.renew(inc, 0.05)
        race.renew(inc, 0.07, epoch=1)
        race.renew(inc, 0.09, epoch=2)  # another incarnation's beat
        assert (inc.lease.renewals, inc.lease.last_renewal) == (2, 0.07)
        race.lapse(inc, 0.5)
        race.renew(inc, 0.6, epoch=1)  # a lapsed lease stays lapsed
        assert inc.lease.state == "expired"

    def test_a_stale_epoch_report_is_fenced(self):
        race = Race([Alternative("solo", answer)], RaceWarden(), seed=0)
        inc = launch(race, 0)
        assert not race.admit(inc, 0.1, True, epoch=7)

    def test_a_dead_node_is_buried_for_the_block(self):
        race = Race(block(), RaceWarden(), seed=0)
        inc = launch(race, 0)
        race.lapse(inc, 0.1, dead=True)
        assert race.place(1, NODES, anywhere) == "w2"
        assert race.place(2, ["w1"], anywhere) is None
        assert race.live() == []

    def test_respawns_exhausted_degrades_to_serial_replay(self, home):
        manager, parent = home
        warden = RaceWarden(max_respawns=0)
        race = Race([Alternative("solo", answer)], warden, seed=0)
        inc = launch(race, 0)
        race.lapse(inc, 0.3)
        with tracing() as tracer:
            assert not race.respawn(inc, 0.3)
            result = race.fail(0.3, parent, manager)
        assert "respawns exhausted" in race.outcomes[0].detail
        assert result.value == 42 and result.winner.status == "won"
        assert parent.space.get("result") == 42
        assert result.elapsed >= 0.3
        degrade = [e for e in tracer.events if e.kind == _ev.DEGRADE]
        assert degrade[0].attrs["reason"] == "all remote alternatives failed"
        labels = " ".join(label for _, label in result.timeline)
        assert "degrading to serial replay" in labels and "[replay]" in labels
        assert warden.table.all_settled

    def test_degradation_off_raises_and_still_settles(self, home):
        manager, parent = home
        warden = RaceWarden(max_respawns=0, degrade_to_serial=False)
        race = Race([Alternative("solo", answer)], warden, seed=0)
        inc = launch(race, 0)
        race.lapse(inc, 0.3)
        assert not race.respawn(inc, 0.3)
        with pytest.raises(AltBlockFailure) as err:
            race.fail(0.4, parent, manager)
        assert err.value.outcomes[0].status == "failed"
        assert warden.table.all_settled

    def test_failing_serial_replay_keeps_the_remote_timeline(self, home):
        manager, parent = home
        warden = RaceWarden()
        race = Race([Alternative("no", refuse)], warden, seed=0)
        with pytest.raises(AltBlockFailure) as err:
            race.fail(1.0, parent, manager)
        labels = [label for _, label in err.value.timeline]
        assert labels[0] == "block entered"
        assert any("degrading to serial replay" in label for label in labels)
        assert err.value.elapsed >= 1.0


class TestConsensus:
    def test_denied_then_the_next_finisher_wins(self, home):
        _, parent = home
        warden = RaceWarden()
        race = Race(block(), warden, seed=0)
        incs = [launch(race, i) for i in range(3)]

        def ask(inc):
            return inc.index != 0

        assert race.admit(incs[0], 0.1, True)
        assert not race.vote(incs[0], 0.1, ask)
        assert race.admit(incs[2], 0.2, True)
        assert race.vote(incs[2], 0.2, ask)
        result = commit(race, incs[2], parent, 0.2)
        assert result.winner.name == "c"
        labels = [label for _, label in result.timeline]
        assert "a reached sync but was not granted (consensus-denied)" in labels
        assert "majority grant to c (epoch 1)" in labels
        assert not race.starved
        assert warden.table.all_settled

    def test_unavailable_starves_the_block(self, home):
        manager, parent = home
        warden = RaceWarden(degrade_to_serial=False)
        race = Race(block(), warden, seed=0)
        inc = launch(race, 1)

        def ask(inc):
            raise ConsensusUnavailable("only 1 of 3 voters reachable")

        assert race.admit(inc, 0.1, True)
        assert not race.vote(inc, 0.1, ask)
        assert race.starved
        with pytest.raises(AltBlockFailure, match="consensus quorum"):
            race.fail(0.2, parent, manager, timed_out=15.0)
        assert warden.table.all_settled

    def test_a_programming_error_in_the_vote_is_not_swallowed(self):
        race = Race(block(), RaceWarden(), seed=0)
        inc = launch(race, 1)

        def ask(inc):
            raise TypeError("bug")

        race.admit(inc, 0.1, True)
        with pytest.raises(TypeError):
            race.vote(inc, 0.1, ask)


class TestPartitionAtCommit:
    def test_grant_is_revoked_and_the_next_finisher_wins(self, home):
        _, parent = home
        warden = RaceWarden()
        race = Race(block(), warden, seed=0)
        incs = [launch(race, i) for i in range(3)]
        incs[1].duration = 0.2
        with tracing() as tracer:
            assert race.admit(incs[1], 0.2, True)
            race.reject(incs[1], 0.25, "partitioned-at-commit", "cut off")
            assert race.admit(incs[0], 0.3, True)
            result = commit(race, incs[0], parent, 0.3)
        assert result.winner.name == "a"
        saboteur = result.outcomes[1]
        assert saboteur.status == "failed"
        assert saboteur.detail == "unreachable at winner-commit: cut off"
        assert saboteur.cpu_consumed == 0.2
        assert (_ev.LOSER_ELIMINATE, 1, "partitioned-at-commit") in (
            race_events(tracer)
        )
        labels = " ".join(label for _, label in result.timeline)
        assert "grant revoked" in labels
        assert warden.table.all_settled


class TestFailureReasons:
    @pytest.mark.parametrize("launched, timed_out, reason", [
        (False, None, "no worker node was reachable"),
        (True, None, "all remote alternatives failed"),
        (True, 15.0, "race timed out after 15.0s"),
    ])
    def test_reason(self, home, launched, timed_out, reason):
        manager, parent = home
        warden = RaceWarden(degrade_to_serial=False)
        race = Race(block(), warden, seed=0)
        if launched:
            launch(race, 0)
        with pytest.raises(AltBlockFailure) as err:
            race.fail(1.0, parent, manager, timed_out=timed_out)
        assert str(err.value) == reason
        assert warden.table.all_settled


class TestBracket:
    def test_empty_block_rejected(self):
        with pytest.raises(ValueError):
            bracket("sim", [], True, lambda block: None)

    def test_a_won_block_is_closed_with_its_winner(self, home):
        _, parent = home
        race = Race(block(), None, seed=0)
        inc = launch(race, 1)
        race.admit(inc, 0.2, True)

        with tracing() as tracer:
            result = bracket("sim", block(), False,
                             lambda block: commit(race, inc, parent, 0.2))
        end = tracer.events[-1]
        assert (end.kind, end.attrs["winner"]) == (_ev.BLOCK_END, "b")
        assert result.winner.name == "b"

    def test_a_failed_block_is_still_closed(self):
        def body(block):
            error = AltBlockFailure("nothing committed")
            error.elapsed = 2.5
            raise error

        with tracing() as tracer, pytest.raises(AltBlockFailure):
            bracket("sim", block(), True, body)
        begin, end = tracer.events
        assert (begin.kind, begin.attrs["backend"]) == (_ev.BLOCK_BEGIN, "sim")
        assert (end.kind, end.attrs["outcome"]) == (
            _ev.BLOCK_END, "AltBlockFailure"
        )
        assert end.attrs["elapsed_seconds"] == 2.5
        assert begin.block == end.block


def test_the_core_does_no_io():
    """The core imports no wire, no clock, no threads, and neither
    driver's substrate."""
    tree = ast.parse(inspect.getsource(race_module))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module)
    banned = {"socket", "threading", "queue", "time", "repro.net.network"}
    assert not imported & banned, imported & banned
    assert not [m for m in imported if m.startswith("repro.cluster")]
