"""The section 3.4 distributed race, written once and free of I/O.

Paper sections 3.4 and 4.1 describe one protocol for racing alternatives
on remote workstations: ship a copy of the parent, keep each remote child
alive by lease, let at most one incarnation commit its pages, then
eliminate the rest.  :class:`Race` is that protocol as one sans-IO state
machine.  It owns every decision:

- *per-block state* -- the outcomes, the timeline, and each
  :class:`Incarnation` with its lease and epoch, plus the per-arm tried,
  dead and attempt sets;
- *placement* -- round-robin over a rotation the driver supplies,
  filtered by the driver's ``usable(node)`` predicate;
- *leases and commit* -- grant, renew, lapse and respawn under the warden's
  budget, the incarnation-epoch fence at commit, and one bookkeeping path
  for every rejection (zombie fenced, arm failed, consensus denied or
  unavailable, partitioned at commit);
- *conclusion* -- the winner's dirty pages applied to the parent, loser
  elimination, and ``settle()`` of every lease; otherwise a failure
  reason followed by a serial replay at home or
  :class:`~repro.errors.AltBlockFailure`.

The core never reads a clock and never touches a wire: every call carries
the instant, stamped by the driver's clock, at which it happened.  Two
drivers feed it.  :class:`~repro.net.distributed.DistributedAltExecutor`
derives the events from the simulated network and its virtual clock;
:class:`~repro.cluster.executor.ClusterExecutor` reads them off sockets
and the wall clock.  The interleaving strategy is the driver's; the
protocol term is this module's.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Set

from repro.core.alternative import Alternative
from repro.core.result import AltOutcome, AltResult, OverheadBreakdown
from repro.core.selection import OrderedPolicy
from repro.core.sequential import SequentialExecutor
from repro.errors import AltBlockFailure, ConsensusUnavailable
from repro.net.lease import Lease, RaceWarden
from repro.obs import events as _ev
from repro.obs.tracer import active as _active_tracer
from repro.resilience.injector import active as _active_injector, suppressed

#: Rejections of an incarnation the warden already gave up on.
_FENCED = ("lease-expired", "stale-epoch-fence")


def _name(node: Any) -> str:
    return getattr(node, "name", node)


@dataclass(eq=False)
class Incarnation:
    """One arm shipped to one worker under one lease epoch."""

    index: int
    node: Any
    started: float
    epoch: int = 0
    lease: Optional[Lease] = None
    duration: Optional[float] = None
    """Body time, once known: simulated up front, reported on the wire."""

    pages: int = 0
    stale: bool = False
    """The lease lapsed; a result from here can only be fenced."""

    finished: bool = False
    """A result came home (and was admitted or rejected)."""

    handle: Any = None
    """The driver's own state: the forked process, or the connection."""

    @property
    def worker(self) -> str:
        return _name(self.node)


def bracket(
    backend: str,
    alternatives: Sequence[Alternative],
    supervised: bool,
    body: Callable[[Optional[int]], AltResult],
) -> AltResult:
    """Run ``body(block)`` inside the ``BLOCK_BEGIN``/``BLOCK_END`` pair."""
    if not alternatives:
        raise ValueError("an alternative block needs at least one arm")
    tracer = _active_tracer()
    block = tracer.next_block() if tracer.enabled else None
    if tracer.enabled:
        tracer.emit(
            _ev.BLOCK_BEGIN, block=block,
            name=f"alt-block#{block} [{backend}]", backend=backend,
            arms=len(alternatives), supervised=supervised,
        )
    try:
        result = body(block)
    except AltBlockFailure as exc:
        if tracer.enabled:
            tracer.emit(
                _ev.BLOCK_END, block=block, outcome=type(exc).__name__,
                elapsed_seconds=float(getattr(exc, "elapsed", 0.0) or 0.0),
            )
        raise
    if tracer.enabled:
        tracer.emit(
            _ev.BLOCK_END, block=block, outcome="won",
            winner=result.winner.name, elapsed_seconds=result.elapsed,
        )
    return result


class Race:
    """The state and decisions of one distributed alternative block."""

    def __init__(
        self,
        alternatives: Sequence[Alternative],
        warden: Optional[RaceWarden],
        seed: int,
        block: Optional[int] = None,
    ) -> None:
        self.arms = list(alternatives)
        self.warden = warden
        self.seed = seed
        self.block = block
        self.outcomes = [
            AltOutcome(index=i, name=arm.name, status="untried")
            for i, arm in enumerate(self.arms)
        ]
        self.timeline = [(0.0, "block entered")]
        self.incarnations: List[Incarnation] = []
        self.tried: List[Set[str]] = [set() for _ in self.arms]
        self.attempts = [0] * len(self.arms)
        self.dead: Set[str] = set()
        self.starved = False
        """Some commit found fewer than a quorum of voters answering."""

    # ------------------------------------------------------------------
    # shared pieces

    def rng(self, purpose: str, index: int) -> random.Random:
        """Keyed RNG, the FaultInjector convention: an arm's draws never
        depend on how many draws other arms or incarnations consumed, so
        a seeded run replays bit-identically."""
        return random.Random(f"{self.seed}:{purpose}:{index}")

    def crash_after(self, index: int) -> Optional[float]:
        """Seconds into its body at which ``worker-crash`` kills the arm."""
        injector = _active_injector()
        rule = injector.draw("worker-crash", index) if injector else None
        return rule.duration if rule is not None else None

    def note(self, at: float, text: str) -> None:
        self.timeline.append((at, text))

    def emit(self, kind: str, **attrs) -> None:
        tracer = _active_tracer()
        if tracer.enabled:
            tracer.emit(kind, block=self.block, **attrs)

    def live(self) -> List[Incarnation]:
        """Incarnations still running under a valid lease."""
        return [i for i in self.incarnations if not (i.stale or i.finished)]

    # ------------------------------------------------------------------
    # placement

    def place(self, index: int, rotation: Sequence[Any],
              usable: Callable[[Any], bool]) -> Optional[Any]:
        """The first untried, undead, usable node, round-robin from
        ``index``.  Unsupervised, an arm lives and dies on its own node."""
        if not rotation:
            return None
        start = index % len(rotation)
        ordered = list(rotation[start:]) + list(rotation[:start])
        for node in ordered if self.warden is not None else ordered[:1]:
            key = str(node)
            if key not in self.tried[index] and key not in self.dead \
                    and usable(node):
                return node
        return None

    def stranded(self, index: int, at: float, rotation: Sequence[Any]) -> None:
        """No node is left for this arm: it fails without running."""
        if rotation and not self.tried[index]:
            detail = f"node {_name(rotation[index % len(rotation)])} unreachable"
        else:
            detail = "no reachable worker node"
        self.outcomes[index].status = "failed"
        self.outcomes[index].detail = detail
        self.note(at, f"{self.arms[index].name}: {detail}")

    def ship_failed(self, index: int, node: Any, at: float, detail: Any,
                    dead: bool = False) -> None:
        self.tried[index].add(str(node))
        if dead:
            self.dead.add(str(node))
        self.note(at, f"{self.arms[index].name}: ship to {_name(node)} "
                      f"failed ({detail})")

    def next_epoch(self, index: int) -> int:
        """The epoch the arm's next incarnation will be granted."""
        if self.warden is None:
            return 0
        return self.warden.table.current_epoch(index) + 1

    def launch(self, index: int, node: Any, at: float, verb: str,
               **fields) -> Incarnation:
        """An incarnation of arm ``index`` started on ``node`` at ``at``;
        supervised, it runs under a freshly granted lease."""
        inc = Incarnation(index, node, at, **fields)
        label = f"{verb} {self.arms[index].name} onto {inc.worker}"
        if self.warden is not None:
            inc.lease = self.warden.table.grant(
                inc.worker, index, at=at,
                interval=self.warden.lease_interval,
                timeout=self.warden.lease_timeout,
            )
            inc.epoch = inc.lease.epoch
            label += f" (epoch {inc.epoch})"
        self.outcomes[index].started_at = at
        self.incarnations.append(inc)
        self.note(at, label)
        return inc

    # ------------------------------------------------------------------
    # leases

    def renew(self, inc: Incarnation, at: float,
              epoch: Optional[int] = None) -> None:
        """A heartbeat from ``inc`` reached home at ``at``.  A lapsed
        lease is never resurrected, and a beat that reports another
        incarnation's ``epoch`` renews nothing."""
        if not inc.lease.terminal and epoch in (None, inc.epoch):
            inc.lease.renew(at)

    def lapse(self, inc: Incarnation, at: float, dead: bool = False) -> None:
        """The warden declares ``inc`` dead at ``at``; ``dead`` also buries
        its node for the rest of the block."""
        inc.stale = True
        if not inc.lease.terminal:
            inc.lease.expire(at)
        if dead:
            self.dead.add(str(inc.node))
        self.note(at, f"lease of {self.arms[inc.index].name}@{inc.worker} "
                      f"expired (epoch {inc.epoch})")

    def respawn(self, inc: Incarnation, at: float) -> bool:
        """Spend one respawn on the lapsed ``inc``'s arm; False when the
        budget is gone and the arm has failed."""
        index = inc.index
        self.tried[index].add(str(inc.node))
        self.attempts[index] += 1
        if not self.warden.respawns_left(self.attempts[index]):
            self.outcomes[index].status = "failed"
            self.outcomes[index].detail = (
                f"lease expired (epoch {inc.epoch}); respawns exhausted"
            )
            return False
        self.emit(
            _ev.WORKER_RESPAWN, arm=index, name=self.arms[index].name,
            dead_worker=inc.worker, dead_epoch=inc.epoch,
            epoch=self.next_epoch(index), at=at,
        )
        return True

    # ------------------------------------------------------------------
    # commit

    def admit(self, inc: Incarnation, at: float, ok: bool, detail: str = "",
              epoch: Optional[int] = None) -> bool:
        """A result from ``inc`` reached home at ``at``.  True when it may
        go on to synchronize: its arm succeeded and it passes the epoch
        fence (``epoch`` is the one the worker reports, if any)."""
        inc.finished = True
        reason = None
        if inc.lease is not None:
            if inc.lease.terminal:
                reason = "lease-expired"
            elif (epoch is not None and epoch != inc.epoch) or (
                    inc.epoch != self.warden.table.current_epoch(inc.index)):
                reason = "stale-epoch-fence"
        if reason is None and not ok:
            reason = "arm-failed"
        if reason is not None:
            self.reject(inc, at, reason, detail)
        return reason is None

    def vote(self, inc: Incarnation, at: float,
             ask: Optional[Callable[[Incarnation], bool]]) -> bool:
        """The synchronization step: ``ask(inc)`` is the driver's majority
        round (``None`` means first finisher commits)."""
        if ask is None:
            return True
        try:
            granted = ask(inc)
        except ConsensusUnavailable as exc:
            self.starved = True
            self.reject(inc, at, "consensus-unavailable", str(exc))
            return False
        if not granted:
            self.reject(inc, at, "consensus-denied")
            return False
        self.note(at, f"majority grant to {self.arms[inc.index].name} "
                      f"(epoch {inc.epoch})")
        return True

    def reject(self, inc: Incarnation, at: float, reason: str,
               detail: str = "") -> None:
        """Record why ``inc`` may not commit."""
        name = self.arms[inc.index].name
        outcome = self.outcomes[inc.index]
        if reason in _FENCED:
            self.note(at, f"zombie {name}@{inc.worker} fenced at "
                          f"winner-commit (epoch {inc.epoch})")
            self.emit(_ev.LOSER_ELIMINATE, arm=inc.index, name=name,
                      reason="stale-epoch-fence", epoch=inc.epoch)
            return
        if reason.startswith("consensus"):
            self.note(at, f"{name} reached sync but was not granted "
                          f"({reason}{': ' + detail if detail else ''})")
            return
        outcome.status = "failed"
        outcome.finished_at = at
        outcome.cpu_consumed = inc.duration or 0.0
        if reason == "arm-failed":
            outcome.detail = detail
            self.note(at, f"{name}@{inc.worker} aborts: {detail}")
            return
        outcome.detail = f"unreachable at winner-commit: {detail}"
        self.note(at, f"{name} granted sync but partitioned; grant revoked")
        self.emit(_ev.LOSER_ELIMINATE, arm=inc.index, name=name,
                  reason="partitioned-at-commit")

    # ------------------------------------------------------------------
    # conclusion

    def win(
        self,
        inc: Incarnation,
        parent,
        value: Any,
        pages: Dict[int, bytes],
        at: float,
        resumed_at: float,
        kill_at: float,
        overhead: OverheadBreakdown,
        kill_step: float = 0.0,
        **extra,
    ) -> AltResult:
        """Commit ``inc``: its dirty ``pages`` land in the parent's
        storage, every other live incarnation is sent a kill message (the
        n-th at ``kill_at + n * kill_step``), and every lease settles."""
        index = inc.index
        name = self.arms[index].name
        _apply_pages(parent, pages)
        self.note(at, f"{name} requests sync")
        self.note(resumed_at, "parent resumes (state shipped home)")
        self.emit(_ev.WINNER_COMMIT, arm=index, name=name, pages=inc.pages,
                  sim_time=at, epoch=inc.epoch or None)
        winner = self.outcomes[index]
        winner.status = "won"
        winner.value = value
        winner.finished_at = at
        winner.duration = winner.cpu_consumed = inc.duration or 0.0
        winner.pages_written = inc.pages
        wasted = 0.0
        slot = 0
        for other in self.incarnations:
            if other is inc:
                continue
            if other.stale:
                wasted += _burned(other, kill_at)
                continue
            kill = kill_at + slot * kill_step
            slot += 1
            outcome = self.outcomes[other.index]
            if not other.finished:
                self.note(kill, f"kill message to {other.worker}")
                self.emit(_ev.LOSER_ELIMINATE, arm=other.index,
                          name=outcome.name, reason="sibling-won")
                if outcome.status == "untried":
                    outcome.status = "eliminated"
                    outcome.finished_at = kill if other.duration is None \
                        else min(other.started + other.duration, kill)
            outcome.cpu_consumed = _burned(other, kill)
            wasted += outcome.cpu_consumed
        if self.warden is not None:
            self.warden.table.settle(at=resumed_at, winner_arm=index)
        return AltResult(
            value=value,
            winner=winner,
            outcomes=self.outcomes,
            elapsed=resumed_at,
            overhead=overhead,
            wasted_work=wasted,
            timeline=sorted(self.timeline, key=lambda pair: pair[0]),
            **extra,
        )

    def fail(self, at: float, parent, manager,
             timed_out: Optional[float] = None) -> AltResult:
        """Nothing committed by ``at``: settle every lease, then replay
        the block serially at home (when the warden allows) or raise."""
        if self.starved:
            reason = "consensus quorum unreachable"
        elif timed_out is not None:
            reason = f"race timed out after {timed_out:.1f}s"
        elif not self.incarnations:
            reason = "no worker node was reachable"
        else:
            reason = "all remote alternatives failed"
        if self.warden is not None:
            self.warden.table.settle(at=at, winner_arm=None)
            if self.warden.degrade_to_serial:
                return self._degrade(at, parent, manager, reason)
        for inc in self.incarnations:
            if not inc.stale and inc.duration is not None:
                self.outcomes[inc.index].cpu_consumed = inc.duration
        error = AltBlockFailure(reason)
        error.outcomes = self.outcomes
        error.elapsed = at
        error.timeline = sorted(self.timeline, key=lambda pair: pair[0])
        raise error

    def _degrade(self, at: float, parent, manager, reason: str) -> AltResult:
        """Replay the block serially on the home node, faults suppressed:
        arms run one at a time, in order, in fresh COW worlds of the
        parent -- one clean chance before the block concedes."""
        self.emit(_ev.DEGRADE, reason=reason)
        self.note(at, f"degrading to serial replay at home ({reason})")
        executor = SequentialExecutor(
            policy=OrderedPolicy(), try_all=True, seed=self.seed,
            manager=manager,
        )

        def merged(replayed):
            return sorted(
                self.timeline
                + [(at + t, f"[replay] {label}") for t, label in replayed],
                key=lambda pair: pair[0],
            )

        try:
            with suppressed():
                replay = executor.run(self.arms, parent=parent)
        except AltBlockFailure as exc:
            exc.timeline = merged(getattr(exc, "timeline", []))
            exc.elapsed = at + (getattr(exc, "elapsed", 0.0) or 0.0)
            raise
        return AltResult(
            value=replay.value,
            winner=replay.winner,
            outcomes=replay.outcomes,
            elapsed=at + replay.elapsed,
            overhead=replay.overhead,
            wasted_work=replay.wasted_work,
            timeline=merged(replay.timeline),
        )


def _burned(inc: Incarnation, until: float) -> float:
    """Work ``inc`` did from its start until ``until`` (its body time
    caps it when known)."""
    spent = max(0.0, until - inc.started)
    return spent if inc.duration is None else min(inc.duration, spent)


def _apply_pages(parent, pages: Dict[int, bytes]) -> None:
    """'The changed state is updated in the parent's storage.'"""
    page_size = parent.space.page_size
    for vpn in sorted(pages):
        data = pages[vpn]
        offset = vpn * page_size
        length = min(len(data), parent.space.size - offset)
        if length > 0:
            parent.space.write(offset, bytes(data[:length]))
