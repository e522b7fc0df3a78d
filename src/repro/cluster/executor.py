"""The home node of the real-wire cluster: race arms across daemons.

:class:`ClusterExecutor` is :class:`~repro.net.distributed.
DistributedAltExecutor` with the simulated substrate swapped out for
sockets and wall clocks:

- the parent image is checkpointed once and *actually shipped* (section
  4.1: "in the distributed case we must actually copy state for a remote
  child") to each worker daemon in a framed ``ship`` record;
- the remote child's dirty pages come home in its ``result`` record and
  are written into the parent's storage before the parent resumes;
- leases are renewed by real heartbeat records on the ship connection;
  the warden's deadlines are wall-clock instants, and an expired lease
  triggers a respawn on the next endpoint under a fresh incarnation
  epoch, with the stale connection left open on purpose: a
  healed-partition zombie's late winner shipment must *arrive* so the
  epoch fence can reject it at commit (the observable form of the
  section 3.4 at-most-once argument);
- sibling elimination is a ``cancel`` record -- a termination message
  with genuine network latency, naturally asynchronous;
- synchronization is either first-finisher-commits at home or a
  :class:`~repro.cluster.semaphore.ClusterMajoritySemaphore` round
  across the daemons' voters (``use_consensus=True``);
- when nothing can commit -- no endpoint reachable, respawns exhausted,
  consensus starved below quorum -- the block degrades to a serial
  replay on the home node with faults suppressed, the same last resort
  as the simulated path.

Determinism caveat, stated honestly: on a real wire the *interleaving*
is the kernel's, so unlike the simulated executor the timeline here is
measured, not derived.  What stays deterministic under a seed is every
injected decision (chaos draws are keyed by frame ordinal, crash
instants by arm) and the converged *outcome*: whichever arm commits,
the parent's bytes equal a serial replay of that arm from the same
image.  The chaos suite asserts exactly that.
"""

from __future__ import annotations

import queue
import random
import threading
import time
import uuid
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.cluster.auth import AuthError, dial_handshake, load_secret
from repro.cluster.membership import MembershipTable
from repro.cluster.semaphore import ClusterMajoritySemaphore
from repro.cluster.stream import RecordStream, StreamClosed, connect
from repro.core.alternative import Alternative
from repro.core.result import AltOutcome, AltResult, OverheadBreakdown
from repro.core.selection import OrderedPolicy
from repro.core.sequential import SequentialExecutor
from repro.errors import AltBlockFailure, ConsensusUnavailable
from repro.net.lease import Lease, RaceWarden
from repro.obs import events as _ev
from repro.obs.tracer import active as _active_tracer
from repro.pages.store import PageStore
from repro.process.primitives import ProcessManager
from repro.process.process import SimProcess
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.injector import active as _active_injector, suppressed


@dataclass(frozen=True)
class WorkerEndpoint:
    """One dialable worker daemon (possibly behind an impairment proxy)."""

    name: str
    host: str
    port: int

    @property
    def address(self) -> Tuple[str, int]:
        return self.host, self.port

    def __str__(self) -> str:
        return f"{self.name}@{self.host}:{self.port}"


@dataclass
class _Assignment:
    """One incarnation of one arm shipped to one endpoint."""

    index: int
    arm: Alternative
    endpoint: WorkerEndpoint
    epoch: int
    lease: Lease
    stream: RecordStream
    started: float
    """Wall instant (relative to block entry) the shipment left home."""

    stale: bool = False
    """The warden gave up on this incarnation (lease lapsed or the
    connection dropped).  The stream stays open so a zombie's late
    result still arrives -- and gets fenced."""

    finished: bool = False
    thread: Optional[threading.Thread] = None


class ClusterExecutor:
    """Race an alternative block across live worker daemons."""

    def __init__(
        self,
        endpoints: Sequence[WorkerEndpoint],
        seed: int = 0,
        warden: Optional[RaceWarden] = None,
        use_consensus: bool = False,
        race_timeout: float = 15.0,
        connect_timeout: float = 2.0,
        manager: Optional[ProcessManager] = None,
        membership: Optional[MembershipTable] = None,
        secret=None,
        breaker_threshold: int = 3,
        breaker_cooldown: float = 0.3,
    ) -> None:
        if not endpoints and membership is None:
            raise ValueError(
                "need at least one worker endpoint or a membership table"
            )
        self.endpoints = list(endpoints)
        self.seed = seed
        self.membership = membership
        """When set, the rotation is *live*: healthy/joining members from
        the table (at their current endpoints) take precedence, so a
        daemon that died and re-joined on a fresh port is dialable the
        moment its ``join`` lands -- no executor restart, no home-node
        restart."""
        self._key = load_secret(secret)
        self.breaker_threshold = breaker_threshold
        self.breaker_cooldown = breaker_cooldown
        self.breakers: Dict[str, CircuitBreaker] = {}
        """Per-endpoint circuit breakers, persisted *across* blocks: a
        corpse discovered in block N is still skipped in block N+1 until
        its cooldown admits a half-open probe."""
        # Real schedulers jitter; default lease terms are looser than the
        # simulated warden's so a busy CI box does not fake a death.
        self.warden = warden if warden is not None else RaceWarden(
            lease_interval=0.05, lease_timeout=0.6
        )
        self.use_consensus = use_consensus
        self.decision_id: Optional[str] = None
        """The id the voters decided the last consensus block under.
        Grants are sticky per decision, so every block asks a fresh one:
        a constant id would be granted once, to the first block's
        winner, and denied to every block after it."""
        self.race_timeout = race_timeout
        self.connect_timeout = connect_timeout
        self.manager = manager if manager is not None else ProcessManager(
            PageStore()
        )
        self.home = "home"

    def new_parent(self, space_size: int = 64 * 1024) -> SimProcess:
        """A fresh parent world on the home node."""
        return self.manager.create_initial(space_size=space_size)

    def _rng_for(self, purpose: str, index: int) -> random.Random:
        """Keyed RNG, the FaultInjector convention: independent of how
        many draws other arms or earlier incarnations consumed."""
        return random.Random(f"{self.seed}:{purpose}:{index}")

    # ------------------------------------------------------------------
    # endpoint health plumbing

    def _breaker(self, endpoint: WorkerEndpoint) -> CircuitBreaker:
        key = str(endpoint)
        breaker = self.breakers.get(key)
        if breaker is None:
            breaker = CircuitBreaker(
                name=key,
                fail_threshold=self.breaker_threshold,
                cooldown=self.breaker_cooldown,
            )
            self.breakers[key] = breaker
        return breaker

    def _rotation(self) -> List[WorkerEndpoint]:
        """The dialable endpoints, freshest view first.

        Membership members (healthy/joining before suspect, never dead)
        lead at their *current* endpoints; statically configured
        endpoints the table has never heard of trail as a fallback.
        """
        if self.membership is None:
            return self.endpoints
        known = set()
        rotation: List[WorkerEndpoint] = []
        for record in self.membership.alive():
            known.add(record.name)
            rotation.append(
                WorkerEndpoint(record.name, record.host, record.port)
            )
        dead_names = {
            r.name for r in self.membership.members() if r.state == "dead"
        }
        for endpoint in self.endpoints:
            if endpoint.name not in known and endpoint.name not in dead_names:
                rotation.append(endpoint)
        return rotation

    def _note_endpoint_failure(
        self, endpoint: WorkerEndpoint, detail: str
    ) -> None:
        """Direct data-path evidence: breaker plus membership suspicion."""
        self._breaker(endpoint).record_failure(detail=detail)
        if self.membership is not None:
            self.membership.observe_failure(endpoint.name, detail=detail)

    def _note_endpoint_success(self, endpoint: WorkerEndpoint) -> None:
        self._breaker(endpoint).record_success()

    # ------------------------------------------------------------------

    def run(
        self,
        alternatives: Sequence[Alternative],
        parent: Optional[SimProcess] = None,
    ) -> AltResult:
        """Execute the block, one arm per daemon (round-robin beyond)."""
        if not alternatives:
            raise ValueError("an alternative block needs at least one arm")
        parent = parent if parent is not None else self.new_parent()
        tracer = _active_tracer()
        block = tracer.next_block() if tracer.enabled else None
        if tracer.enabled:
            tracer.emit(
                _ev.BLOCK_BEGIN,
                block=block,
                name=f"alt-block#{block} [cluster]",
                backend="cluster",
                arms=len(alternatives),
                supervised=True,
            )
        try:
            result = self._run_inner(alternatives, parent, block)
        except AltBlockFailure as exc:
            if tracer.enabled:
                tracer.emit(
                    _ev.BLOCK_END,
                    block=block,
                    outcome=type(exc).__name__,
                    elapsed_seconds=float(getattr(exc, "elapsed", 0.0) or 0.0),
                )
            raise
        if tracer.enabled:
            tracer.emit(
                _ev.BLOCK_END,
                block=block,
                outcome="won",
                winner=result.winner.name,
                elapsed_seconds=result.elapsed,
            )
        return result

    # ------------------------------------------------------------------

    def _run_inner(self, alternatives, parent, block) -> AltResult:
        t0 = time.monotonic()
        clock = lambda: time.monotonic() - t0  # noqa: E731
        timeline: List[Tuple[float, str]] = [(0.0, "block entered")]
        outcomes = [
            AltOutcome(index=i, name=a.name, status="untried")
            for i, a in enumerate(alternatives)
        ]
        image = parent.space.read(0, parent.space.size)
        events: "queue.Queue" = queue.Queue()
        live: List[_Assignment] = []     # lease still governs these
        stale: List[_Assignment] = []    # kept open for zombie fencing
        tried: Dict[int, List[str]] = {i: [] for i in range(len(alternatives))}
        attempts: Dict[int, int] = {i: 0 for i in range(len(alternatives))}
        dead: Set[str] = set()
        fenced = 0

        for index, arm in enumerate(alternatives):
            assignment = self._ship(
                index, arm, image, parent.space.size, tried, attempts,
                dead, outcomes, timeline, events, clock, block,
            )
            if assignment is not None:
                live.append(assignment)

        winner_msg: Optional[dict] = None
        winner_assignment: Optional[_Assignment] = None
        semaphore = None
        if self.use_consensus:
            # The voting population is the live rotation.  With the
            # membership table fully dark (every member dead, statics
            # buried with them) fall back to the static list rather
            # than crash on an empty quorum; with no endpoints at all,
            # skip the semaphore entirely -- results are then rejected
            # as consensus-unavailable and the documented ladder
            # (reroute -> respawn -> serial replay) stays in charge.
            voters = [e.address for e in self._rotation()] or [
                e.address for e in self.endpoints
            ]
            if voters:
                semaphore = ClusterMajoritySemaphore(
                    voters, requester=self.home, secret=self._key
                )
            self.decision_id = f"block-{uuid.uuid4().hex}"
        consensus_starved = False
        tracer = _active_tracer()

        while live and winner_msg is None and clock() < self.race_timeout:
            wait = min(
                [a.lease.deadline - clock() for a in live] + [0.05]
            )
            try:
                item = events.get(timeout=max(wait, 0.001))
            except queue.Empty:
                item = None
            now = clock()
            if item is not None:
                kind, assignment, payload = item
                if kind == "hb":
                    self._on_heartbeat(assignment, payload, now)
                elif kind == "result":
                    assignment.finished = True
                    self._note_endpoint_success(assignment.endpoint)
                    ok, reason = self._commit_check(assignment, payload)
                    if ok and self.use_consensus:
                        if semaphore is None:
                            timeline.append(
                                (now, "consensus unavailable: "
                                      "no voting endpoints")
                            )
                            ok, reason = False, "consensus-unavailable"
                        else:
                            ok, reason = self._consensus_round(
                                semaphore, self.decision_id, assignment,
                                timeline, clock,
                            )
                        consensus_starved = (
                            consensus_starved or reason == "consensus-unavailable"
                        )
                    if ok:
                        winner_msg = payload
                        winner_assignment = assignment
                        break
                    self._reject(
                        assignment, payload, reason, outcomes,
                        timeline, now, block,
                    )
                    if reason in ("stale-epoch-fence", "lease-expired"):
                        fenced += 1
                    if (not assignment.stale
                            and reason not in ("consensus-denied",)):
                        # A definitive remote failure: the arm is done,
                        # its lease settles with the race.
                        live = [a for a in live if a is not assignment]
                        stale.append(assignment)
                elif kind == "drop":
                    self._on_drop(assignment, payload, timeline, now, block)
                    if not assignment.stale and not assignment.finished:
                        assignment.stale = True
                        if not assignment.lease.terminal:
                            assignment.lease.expire(now)
                        dead.add(str(assignment.endpoint))
                        self._note_endpoint_failure(
                            assignment.endpoint,
                            f"conn-drop: {payload}",
                        )
                        live = [a for a in live if a is not assignment]
                        stale.append(assignment)
                        replacement = self._respawn(
                            assignment, image, parent.space.size, tried,
                            attempts, dead, outcomes, timeline, events,
                            clock, block,
                        )
                        if replacement is not None:
                            live.append(replacement)
            # Wall-clock lease sweep: silence past a deadline is death.
            now = clock()
            for assignment in list(live):
                if assignment.lease.terminal or assignment.finished:
                    continue
                if now >= assignment.lease.deadline:
                    assignment.lease.expire(now)
                    assignment.stale = True
                    timeline.append((
                        now,
                        f"lease of {assignment.arm.name}@"
                        f"{assignment.endpoint.name} expired "
                        f"(epoch {assignment.epoch})",
                    ))
                    live = [a for a in live if a is not assignment]
                    stale.append(assignment)  # stream stays open: fence bait
                    replacement = self._respawn(
                        assignment, image, parent.space.size, tried,
                        attempts, dead, outcomes, timeline, events,
                        clock, block,
                    )
                    if replacement is not None:
                        live.append(replacement)

        now = clock()
        if winner_msg is None:
            # Nothing committed: cancel anything still running, settle
            # every lease, then degrade (or fail) exactly like the
            # simulated executor.
            for assignment in live + stale:
                self._dismiss(assignment, cancel=not assignment.finished)
            self.warden.table.settle(at=now, winner_arm=None)
            if not self.warden.table.all_settled:  # pragma: no cover
                raise AssertionError("leases leaked past settle()")
            reason = self._failure_reason(
                live, stale, attempts, consensus_starved, now
            )
            if self.warden.degrade_to_serial:
                return self._degrade_serial(
                    alternatives, parent, outcomes, timeline, now,
                    reason, block,
                )
            error = AltBlockFailure(reason)
            error.outcomes = outcomes
            error.elapsed = now
            error.timeline = sorted(timeline, key=lambda pair: pair[0])
            raise error

        # ---- winner commit: pages home, losers cancelled --------------
        assert winner_assignment is not None
        commit_started = now
        self._apply_pages(parent, winner_msg.get("dirty_pages") or {})
        index = winner_assignment.index
        timeline.append((now, f"{alternatives[index].name} requests sync"))
        timeline.append((clock(), "parent resumes (state shipped home)"))
        if tracer.enabled:
            tracer.emit(
                _ev.WINNER_COMMIT,
                block=block,
                arm=index,
                name=alternatives[index].name,
                pages=int(winner_msg.get("pages_written") or 0),
                sim_time=now,
                epoch=winner_assignment.epoch,
            )
        outcome = outcomes[index]
        outcome.status = "won"
        outcome.value = winner_msg.get("value")
        outcome.finished_at = now
        outcome.duration = float(winner_msg.get("duration") or 0.0)
        outcome.cpu_consumed = outcome.duration
        outcome.pages_written = int(winner_msg.get("pages_written") or 0)
        self._dismiss(winner_assignment, cancel=False)

        wasted = 0.0
        kill_at = clock()
        for assignment in live + stale:
            if assignment is winner_assignment:
                continue
            if not assignment.finished and not assignment.stale:
                timeline.append(
                    (kill_at,
                     f"kill message to {assignment.endpoint.name}")
                )
                if outcomes[assignment.index].status == "untried":
                    outcomes[assignment.index].status = "eliminated"
                    outcomes[assignment.index].finished_at = kill_at
                if tracer.enabled:
                    tracer.emit(
                        _ev.LOSER_ELIMINATE,
                        block=block,
                        arm=assignment.index,
                        name=alternatives[assignment.index].name,
                        reason="sibling-won",
                    )
            wasted += max(0.0, kill_at - assignment.started)
            self._dismiss(assignment, cancel=not assignment.finished)
        self.warden.table.settle(at=clock(), winner_arm=index)
        if not self.warden.table.all_settled:  # pragma: no cover
            raise AssertionError("leases leaked past settle()")

        elapsed = clock()
        overhead = OverheadBreakdown(
            setup=winner_assignment.started,
            runtime=float(winner_msg.get("duration") or 0.0),
            selection=max(0.0, elapsed - commit_started),
        )
        return AltResult(
            value=winner_msg.get("value"),
            winner=outcome,
            outcomes=outcomes,
            elapsed=elapsed,
            overhead=overhead,
            wasted_work=wasted,
            timeline=sorted(timeline, key=lambda pair: pair[0]),
            page_transport="socket",
        )

    # ------------------------------------------------------------------
    # shipping

    def _ship(
        self, index, arm, image, space_size, tried, attempts, dead,
        outcomes, timeline, events, clock, block,
    ) -> Optional[_Assignment]:
        """Ship one incarnation of ``arm``; None when no endpoint works."""
        tracer = _active_tracer()
        while True:
            endpoint = self._pick_endpoint(index, tried[index], dead)
            if endpoint is None:
                outcomes[index].status = "failed"
                outcomes[index].detail = "no reachable worker node"
                timeline.append(
                    (clock(), f"{arm.name}: no reachable worker node")
                )
                return None
            try:
                stream = connect(
                    endpoint.host, endpoint.port,
                    timeout=self.connect_timeout,
                    name=f"{arm.name}->{endpoint.name}",
                )
                stream = dial_handshake(
                    stream, self._key, timeout=self.connect_timeout
                )
            except (OSError, StreamClosed, AuthError) as exc:
                tried[index].append(str(endpoint))
                dead.add(str(endpoint))
                self._note_endpoint_failure(endpoint, f"dial: {exc}")
                timeline.append(
                    (clock(),
                     f"{arm.name}: ship to {endpoint.name} failed ({exc})")
                )
                continue
            started = clock()
            lease = self.warden.table.grant(
                endpoint.name, index, at=started,
                interval=self.warden.lease_interval,
                timeout=self.warden.lease_timeout,
            )
            shipped = stream.send({
                "kind": "ship",
                "alt": arm,
                "arm": index,
                "epoch": lease.epoch,
                "seed": self.seed,
                "name": arm.name,
                "image": image,
                "space_size": space_size,
                "hb_interval": self.warden.lease_interval,
                "crash_after": self._crash_after(index),
            })
            if not shipped:
                lease.expire(clock())
                stream.close()
                tried[index].append(str(endpoint))
                dead.add(str(endpoint))
                self._note_endpoint_failure(endpoint, "ship-send-failed")
                continue
            self._note_endpoint_success(endpoint)
            # Half-open sends later in the conversation (heartbeats from
            # our side, cancels) feed the same health plumbing.
            underlying = getattr(stream, "stream", stream)
            underlying.on_send_failure = (
                lambda _s, detail, ep=endpoint:
                    self._note_endpoint_failure(ep, detail)
            )
            if tracer.enabled:
                tracer.emit(
                    _ev.CONN_OPEN,
                    block=block,
                    arm=index,
                    name=endpoint.name,
                    peer=f"{endpoint.host}:{endpoint.port}",
                    epoch=lease.epoch,
                )
            timeline.append(
                (started, f"ship {arm.name} onto {endpoint.name} "
                          f"(epoch {lease.epoch})")
            )
            outcomes[index].started_at = started
            assignment = _Assignment(
                index=index,
                arm=arm,
                endpoint=endpoint,
                epoch=lease.epoch,
                lease=lease,
                stream=stream,
                started=started,
            )
            receiver = threading.Thread(
                target=self._receive,
                args=(assignment, events),
                name=f"recv-{arm.name}-e{lease.epoch}",
                daemon=True,
            )
            receiver.start()
            assignment.thread = receiver
            return assignment

    def _respawn(
        self, lapsed: _Assignment, image, space_size, tried, attempts,
        dead, outcomes, timeline, events, clock, block,
    ) -> Optional[_Assignment]:
        """A fresh incarnation on the next endpoint, if respawns remain."""
        index = lapsed.index
        tried[index].append(str(lapsed.endpoint))
        attempts[index] += 1
        if not self.warden.respawns_left(attempts[index]):
            outcomes[index].status = "failed"
            outcomes[index].detail = (
                f"lease expired (epoch {lapsed.epoch}); respawns exhausted"
            )
            return None
        tracer = _active_tracer()
        if tracer.enabled:
            tracer.emit(
                _ev.WORKER_RESPAWN,
                block=block,
                arm=index,
                name=lapsed.arm.name,
                dead_worker=lapsed.endpoint.name,
                dead_epoch=lapsed.epoch,
                epoch=lapsed.epoch + 1,
                at=clock(),
            )
        return self._ship(
            index, lapsed.arm, image, space_size, tried, attempts,
            dead, outcomes, timeline, events, clock, block,
        )

    def _pick_endpoint(
        self, index: int, tried: List[str], dead: Set[str]
    ) -> Optional[WorkerEndpoint]:
        """Round-robin home over the live rotation, breakers respected.

        ``tried``/``dead`` are keyed by the *full* ``name@host:port``
        string, not the bare name -- a daemon that died and re-joined on
        a fresh port is a different endpoint and stays dialable in the
        same race that buried its predecessor.
        """
        everyone = self._rotation()
        if not everyone:
            return None
        start = index % len(everyone)
        rotation = everyone[start:] + everyone[:start]
        candidates = [
            e for e in rotation
            if str(e) not in tried and str(e) not in dead
        ]
        for endpoint in candidates:
            if self._breaker(endpoint).allow():
                return endpoint
        # Every candidate's breaker is open.  The degradation ladder is
        # reroute -> respawn elsewhere -> serial replay; with untried
        # endpoints still on the table we probe one anyway rather than
        # fall straight through to the serial floor.
        return candidates[0] if candidates else None

    def _crash_after(self, index: int) -> Optional[float]:
        """The injected ``worker-crash`` instant for this arm, if any."""
        injector = _active_injector()
        if injector is None:
            return None
        rule = injector.draw("worker-crash", index)
        if rule is None:
            return None
        return rule.duration

    # ------------------------------------------------------------------
    # the receiver side

    def _receive(self, assignment: _Assignment, events) -> None:
        """Pump one assignment's stream into the main event queue."""
        while True:
            try:
                msg = assignment.stream.recv(timeout=0.25)
            except StreamClosed as exc:
                events.put(("drop", assignment, exc))
                return
            if msg is None:
                if assignment.stream.closed:
                    return
                continue
            kind = msg.get("kind")
            if kind == "hb":
                events.put(("hb", assignment, msg))
            elif kind == "result":
                events.put(("result", assignment, msg))
                return

    def _on_heartbeat(self, assignment, msg, now) -> None:
        # A duplicated or reordered heartbeat is harmless: renew() keeps
        # the latest instant, and a stale incarnation's beats fall on an
        # already-terminal lease, which we must not resurrect.
        # Any heartbeat -- even a zombie epoch's -- proves the *endpoint*
        # is alive, so the breaker and membership hear about it.
        self._breaker(assignment.endpoint).record_success()
        if self.membership is not None:
            self.membership.observe_ping(assignment.endpoint.name)
        if assignment.lease.terminal:
            return
        if msg.get("epoch") == assignment.epoch:
            assignment.lease.renew(now)

    def _on_drop(self, assignment, exc, timeline, now, block) -> None:
        tracer = _active_tracer()
        if tracer.enabled:
            tracer.emit(
                _ev.CONN_DROP,
                block=block,
                arm=assignment.index,
                name=assignment.endpoint.name,
                epoch=assignment.epoch,
                torn=bool(getattr(exc, "torn", False)),
                detail=str(exc),
            )
        if not assignment.finished and not assignment.stale:
            timeline.append(
                (now,
                 f"connection to {assignment.endpoint.name} dropped "
                 f"({'torn' if getattr(exc, 'torn', False) else 'closed'})")
            )

    # ------------------------------------------------------------------
    # commit path

    def _commit_check(
        self, assignment: _Assignment, msg: dict
    ) -> Tuple[bool, str]:
        """The epoch fence plus the arm's own verdict."""
        if not msg.get("ok"):
            return False, "arm-failed"
        if assignment.lease.terminal:
            return False, "lease-expired"
        if msg.get("epoch") != assignment.epoch:
            return False, "stale-epoch-fence"
        if assignment.epoch != self.warden.table.current_epoch(
                assignment.index):
            # A newer incarnation superseded this one mid-flight.
            return False, "stale-epoch-fence"
        return True, ""

    def _consensus_round(
        self, semaphore, decision, assignment, timeline, clock
    ) -> Tuple[bool, str]:
        requester = f"arm-{assignment.index}-epoch-{assignment.epoch}"
        try:
            granted = semaphore.try_acquire(decision, requester)
        except ConsensusUnavailable as exc:
            timeline.append((clock(), f"consensus unavailable: {exc}"))
            return False, "consensus-unavailable"
        if not granted:
            return False, "consensus-denied"
        timeline.append(
            (clock(),
             f"majority grant to {requester} "
             f"({semaphore.quorum} of {len(semaphore.endpoints)})")
        )
        return True, ""

    def _reject(
        self, assignment, msg, reason, outcomes, timeline, now, block
    ) -> None:
        tracer = _active_tracer()
        name = assignment.arm.name
        if reason in ("stale-epoch-fence", "lease-expired"):
            timeline.append(
                (now,
                 f"zombie {name}@{assignment.endpoint.name} fenced at "
                 f"winner-commit (epoch {assignment.epoch})")
            )
            if tracer.enabled:
                tracer.emit(
                    _ev.LOSER_ELIMINATE,
                    block=block,
                    arm=assignment.index,
                    name=name,
                    reason="stale-epoch-fence",
                    epoch=assignment.epoch,
                )
        elif reason == "arm-failed":
            outcomes[assignment.index].status = "failed"
            outcomes[assignment.index].detail = msg.get("detail") or ""
            outcomes[assignment.index].finished_at = now
            outcomes[assignment.index].cpu_consumed = float(
                msg.get("duration") or 0.0
            )
            timeline.append(
                (now, f"{name}@{assignment.endpoint.name} aborts: "
                      f"{msg.get('detail')}")
            )
        elif reason in ("consensus-denied", "consensus-unavailable"):
            timeline.append(
                (now, f"{name} reached sync but was not granted ({reason})")
            )

    def _dismiss(self, assignment: _Assignment, cancel: bool) -> None:
        """End one conversation: optional cancel record, then close."""
        if cancel:
            assignment.stream.send({"kind": "cancel"})
        assignment.stream.close()
        if assignment.thread is not None:
            assignment.thread.join(timeout=1.0)

    @staticmethod
    def _apply_pages(parent: SimProcess, dirty: Dict[int, bytes]) -> None:
        """'The changed state is updated in the parent's storage.'"""
        page_size = parent.space.page_size
        for vpn in sorted(dirty):
            data = dirty[vpn]
            offset = vpn * page_size
            length = min(len(data), parent.space.size - offset)
            if length > 0:
                parent.space.write(offset, bytes(data[:length]))

    # ------------------------------------------------------------------
    # failure / degradation

    def _failure_reason(
        self, live, stale, attempts, consensus_starved, now
    ) -> str:
        if consensus_starved:
            return "consensus quorum unreachable"
        if now >= self.race_timeout:
            return f"race timed out after {self.race_timeout:.1f}s"
        if not live and not stale:
            return "no worker node was reachable"
        return "all remote alternatives failed"

    def _degrade_serial(
        self, alternatives, parent, outcomes, timeline, clock_now,
        reason, block,
    ) -> AltResult:
        """Serial replay at home, faults suppressed -- the last resort."""
        tracer = _active_tracer()
        if tracer.enabled:
            tracer.emit(_ev.DEGRADE, block=block, reason=reason)
        timeline.append(
            (clock_now, f"degrading to serial replay at home ({reason})")
        )
        executor = SequentialExecutor(
            policy=OrderedPolicy(),
            try_all=True,
            seed=self.seed,
            manager=self.manager,
        )
        try:
            with suppressed():
                replay = executor.run(alternatives, parent=parent)
        except AltBlockFailure as exc:
            exc.timeline = sorted(
                timeline
                + [(clock_now + t, f"[replay] {label}")
                   for t, label in getattr(exc, "timeline", [])],
                key=lambda pair: pair[0],
            )
            exc.elapsed = clock_now + (getattr(exc, "elapsed", 0.0) or 0.0)
            raise
        merged = timeline + [
            (clock_now + t, f"[replay] {label}")
            for t, label in replay.timeline
        ]
        return AltResult(
            value=replay.value,
            winner=replay.winner,
            outcomes=replay.outcomes,
            elapsed=clock_now + replay.elapsed,
            overhead=replay.overhead,
            wasted_work=replay.wasted_work,
            timeline=sorted(merged, key=lambda pair: pair[0]),
        )

    def __repr__(self) -> str:
        return (
            f"ClusterExecutor(endpoints={len(self.endpoints)}, "
            f"seed={self.seed}, consensus={self.use_consensus})"
        )
