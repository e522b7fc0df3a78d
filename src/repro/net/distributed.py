"""Distributed execution of an alternative block across network nodes.

Section 4.1 prices the distributed case explicitly:

- *Memory copying*: 'In the distributed case we must actually copy state
  for a remote child so that it can read or write locally' -- here, the
  parent image is checkpointed once and shipped to each worker node;
- 'There is more copying to be performed during synchronization, as the
  changed state is updated in the parent's storage' -- the winner's dirty
  pages travel back over the network before the parent resumes;
- *Sibling elimination* becomes termination messages with network
  latency, naturally asynchronous.

The race itself -- placement, leases and epochs, the commit fence, loser
elimination, degradation -- is :class:`~repro.net.race.Race`, the one
sans-IO protocol core shared with the real-wire
:class:`~repro.cluster.executor.ClusterExecutor`.
:class:`DistributedAltExecutor` is its *simulated* driver: it forks each
arm onto a node with :func:`~repro.net.rfork.remote_fork`, runs the body
inline, heartbeats the lease over :meth:`Network.transmit` (so injected
loss, duplication and partitions apply), delivers the results to the core
in completion order on the virtual clock, and ships the winner's state
home.  Synchronization is first-finisher-commits at home or a
:class:`~repro.consensus.majority.MajorityConsensusSemaphore` round.

With a :class:`~repro.net.lease.RaceWarden` attached the race is
*chaos-hardened*: a worker whose lease lapses is re-spawned on a healthy
node under a fresh incarnation epoch, zombies are fenced at
winner-commit, a mid-race partition becomes loser-elimination instead of
a raw :class:`~repro.errors.NetworkError`, and a block that cannot
complete remotely degrades to a serial replay on the home node.  Every
random decision comes from the core's keyed RNG, so a seeded run replays
bit-identically.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Sequence, Tuple

from repro.consensus.majority import MajorityConsensusSemaphore
from repro.consensus.node import ConsensusNode
from repro.core.alternative import AltContext, Alternative
from repro.core.result import AltResult, OverheadBreakdown
from repro.core.sequential import _run_body
from repro.errors import NetworkError
from repro.net.lease import RaceWarden
from repro.net.network import Network
from repro.net.race import Incarnation, Race, bracket
from repro.net.rfork import RemoteForkResult, remote_fork
from repro.process.process import SimProcess
from repro.sim.costs import CostModel

#: Size of one heartbeat message on the wire (control traffic).
HEARTBEAT_BYTES = 64


class _Body(NamedTuple):
    """What one incarnation's inline body run produced."""

    process: SimProcess
    ok: bool
    value: object
    detail: str


def _completion(inc: Incarnation) -> float:
    return inc.started + inc.duration


class DistributedAltExecutor:
    """Race alternatives across workstations instead of local children."""

    def __init__(
        self,
        network: Network,
        home: str,
        workers: Sequence[str],
        cost_model: Optional[CostModel] = None,
        use_consensus: bool = False,
        seed: int = 0,
        warden: Optional[RaceWarden] = None,
    ) -> None:
        if not workers:
            raise ValueError("need at least one worker node")
        self.network = network
        self.home = home
        self.workers = list(workers)
        self.cost_model = (
            cost_model if cost_model is not None else network.cost_model
        )
        self.use_consensus = use_consensus
        self.seed = seed
        self.warden = warden
        network.node(home)  # validate early
        for worker in self.workers:
            network.node(worker)

    def new_parent(self, space_size: int = 64 * 1024) -> SimProcess:
        """A fresh parent on the home node."""
        return self.network.node(self.home).manager.create_initial(
            space_size=space_size
        )

    @staticmethod
    def over_sockets(
        endpoints,
        seed: int = 0,
        warden: Optional[RaceWarden] = None,
        use_consensus: bool = False,
        **kwargs,
    ):
        """The same executor semantics over real TCP worker daemons.

        ``endpoints`` is a sequence of
        :class:`~repro.cluster.executor.WorkerEndpoint` (or
        ``(name, host, port)`` tuples) naming live
        :class:`~repro.cluster.daemon.WorkerDaemon` processes.  The
        returned :class:`~repro.cluster.executor.ClusterExecutor` drives
        the same :class:`~repro.net.race.Race` core -- shipped parent
        images, dirty-page commit, leases with epoch fencing,
        degrade-to-serial -- with the simulated wire swapped for sockets
        and the simulated clock for a wall clock.
        """
        from repro.cluster.executor import ClusterExecutor, WorkerEndpoint

        resolved = [
            endpoint if isinstance(endpoint, WorkerEndpoint)
            else WorkerEndpoint(*endpoint)
            for endpoint in endpoints
        ]
        return ClusterExecutor(
            resolved, seed=seed, warden=warden,
            use_consensus=use_consensus, **kwargs,
        )

    # ------------------------------------------------------------------

    def run(
        self,
        alternatives: Sequence[Alternative],
        parent: Optional[SimProcess] = None,
    ) -> AltResult:
        """Execute the block with one alternative per worker node.

        Alternatives beyond the worker count round-robin onto nodes; each
        still gets its own shipped copy of the parent image.
        """
        return bracket(
            "distributed", alternatives, self.warden is not None,
            lambda block: self._race(
                Race(alternatives, self.warden, self.seed, block), parent
            ),
        )

    def _race(self, race: Race, parent: Optional[SimProcess]) -> AltResult:
        parent = parent if parent is not None else self.new_parent()
        runs, clock = self._ship_all(race, parent)
        result = self._deliver(race, parent, runs)
        if result is not None:
            return result
        latest = max((_completion(inc) for inc in runs), default=clock)
        return race.fail(latest, parent, self.network.node(self.home).manager)

    # ------------------------------------------------------------------
    # shipping + remote execution (with optional lease supervision)

    def _ship_all(
        self, race: Race, parent: SimProcess
    ) -> Tuple[List[Incarnation], float]:
        """Fork every arm onto a node; the incarnations whose results
        reach the selection point, and the home clock after shipping."""
        clock = 0.0
        checkpointed = False
        runs: List[Incarnation] = []
        for index in range(len(race.arms)):
            while True:
                node = race.place(
                    index, self.workers,
                    lambda name: self.network.reachable(
                        self.home, name, at=clock
                    ),
                )
                if node is None:
                    race.stranded(index, clock, self.workers)
                    break
                try:
                    forked = remote_fork(
                        self.network, self.home, node, parent,
                        cost_model=self.cost_model,
                    )
                except NetworkError as exc:
                    # A partition opened mid-race: contain it here instead
                    # of letting it unwind the whole block.
                    race.ship_failed(index, node, clock, exc)
                    continue
                if not checkpointed:
                    clock += forked.checkpoint_time  # checkpoint happens once
                    checkpointed = True
                # Transfers leave the home node serially; restores overlap.
                clock += forked.transfer_time
                inc = self._execute(race, index, node, forked, clock)
                if inc.lease is None:
                    runs.append(inc)
                    break
                crash = race.crash_after(index)
                crash_at = (
                    None if crash is None
                    else inc.started + min(crash, inc.duration)
                )
                lapse = self._simulate_lease(
                    race, inc, crash_at if crash_at is not None
                    else _completion(inc),
                    beats_stop=crash_at is not None,
                )
                if lapse is None:
                    runs.append(inc)  # lease held through completion
                    break
                # The worker-side lease lapses on the same deadline, so an
                # orphan self-terminates instead of lingering.
                clock = max(clock, lapse)
                race.lapse(inc, lapse, dead=crash_at is not None)
                if crash_at is not None:
                    inc.duration = crash_at - inc.started
                elif inc.handle.ok:
                    # Zombie: the body finished after home gave up on it.
                    # It still reaches the selection point -- to be fenced.
                    runs.append(inc)
                if not race.respawn(inc, lapse):
                    break
        return runs, clock

    def _execute(
        self, race: Race, index: int, node: str,
        forked: RemoteForkResult, clock: float,
    ) -> Incarnation:
        """Run the arm's body in its restored child; launch the
        incarnation at the instant the child arrived."""
        arm = race.arms[index]
        child = forked.process
        context = AltContext(
            child.space,
            rng=race.rng("ctx", index),
            alt_index=index + 1,
            name=arm.name,
            process=child,
        )
        ok, value, detail = _run_body(arm, context)
        duration = (
            arm.sample_cost(race.rng("cost", index), context) + arm.guard_cost
        )
        pages = child.space.pages_written
        duration += self.cost_model.page_copy_time(pages)
        outcome = race.outcomes[index]
        outcome.pid, outcome.duration = child.pid, duration
        outcome.pages_written = pages
        return race.launch(
            index, node, clock + forked.restore_time, "rfork",
            duration=duration, pages=pages,
            handle=_Body(child, ok, value, detail),
        )

    def _simulate_lease(
        self, race: Race, inc: Incarnation, alive_until: float,
        beats_stop: bool,
    ) -> Optional[float]:
        """Heartbeat the lease over the faulty wire until ``alive_until``.

        Each beat is one :meth:`Network.transmit` (so injected loss,
        duplication, and partitions apply); arriving beats renew the
        lease.  Returns the instant the lease lapses, or ``None`` when it
        holds through ``alive_until`` (and beyond: the claim message is
        next).  ``beats_stop`` marks a crashed worker whose silence is
        permanent.
        """
        lease = inc.lease
        t = lease.granted_at + lease.interval
        while t <= alive_until + 1e-12:
            deliveries = self.network.transmit(
                inc.worker,
                self.home,
                ("hb", lease.arm, lease.epoch),
                nbytes=HEARTBEAT_BYTES,
                at=t,
            )
            for delivery in sorted(deliveries, key=lambda d: d.arrive_at):
                if delivery.arrive_at > lease.deadline:
                    return lease.deadline  # lapsed before this beat landed
                race.renew(inc, delivery.arrive_at)
            t += lease.interval
        if beats_stop:
            return lease.deadline  # silence is forever: certain lapse
        if lease.deadline < alive_until:
            return lease.deadline
        return None

    # ------------------------------------------------------------------
    # selection / commit

    def _deliver(
        self, race: Race, parent: SimProcess, runs: List[Incarnation]
    ) -> Optional[AltResult]:
        """Hand results to the core in completion order until one
        commits; ``None`` when nothing could."""
        model = self.cost_model
        semaphore = self._semaphore()
        sync_latency = (
            semaphore.latency(model) if semaphore is not None
            else model.network_latency + model.sync_latency
        )

        def ask(inc: Incarnation) -> bool:
            return semaphore.try_acquire("block", inc.handle.process.pid)

        for inc in sorted(runs, key=_completion):
            at = _completion(inc)
            body = inc.handle
            if not (race.admit(inc, at, body.ok, body.detail)
                    and race.vote(inc, at, ask if semaphore is not None else None)):
                continue
            try:
                state_ship = self.network.transfer(
                    inc.worker, self.home, inc.pages * model.page_size
                )
            except NetworkError as exc:
                # A mid-race partition cut the winner off before its pages
                # came home.  The commit never happened, so the grant dies
                # with the partition: promote the next finisher.
                race.reject(inc, at + sync_latency, "partitioned-at-commit",
                            str(exc))
                semaphore = self._semaphore()
                continue
            # The claim message travels home, then 'the changed state is
            # updated in the parent's storage'.
            race.note(at + sync_latency, "sync granted at home")
            resume_at = at + sync_latency + state_ship
            table = body.process.space.table
            return race.win(
                inc, parent, body.value,
                {vpn: table.read_page(vpn) for vpn in table.dirty_pages},
                at=at,
                resumed_at=resume_at,
                kill_at=resume_at + model.network_latency,
                kill_step=model.kill_latency,
                overhead=OverheadBreakdown(
                    setup=inc.started,  # checkpoint + ship + restore
                    runtime=model.page_copy_time(inc.pages),
                    selection=sync_latency + state_ship,
                ),
            )
        return None

    def _semaphore(self) -> Optional[MajorityConsensusSemaphore]:
        """A fresh majority semaphore, or ``None`` when the first
        finisher commits at home."""
        if not self.use_consensus:
            return None
        return MajorityConsensusSemaphore(
            [ConsensusNode(f"sync-{w}") for w in self.workers]
        )
