"""The home node of the real-wire cluster: race arms across daemons.

:class:`ClusterExecutor` is the *socket* driver of
:class:`~repro.net.race.Race`, the sans-IO section 3.4 race core that the
simulated :class:`~repro.net.distributed.DistributedAltExecutor` drives
too.  The core decides placement, leases, the epoch fence, commit and
elimination; this module only moves bytes and reads the wall clock:

- it dials each placed daemon, runs the handshake, and ships the parent
  image once per arm in a framed ``ship`` record (section 4.1: "in the
  distributed case we must actually copy state for a remote child");
- one receiver thread per connection pumps heartbeats, results and
  connection drops into a single event queue, which the home loop hands
  to the core stamped with the wall clock;
- a wall-clock sweep lapses every lease whose deadline passed, and a
  stale connection is left open on purpose: a healed-partition zombie's
  late winner shipment must *arrive* so the epoch fence can reject it
  (the observable form of the section 3.4 at-most-once argument);
- synchronization is first-finisher-commits at home or a
  :class:`~repro.cluster.semaphore.ClusterMajoritySemaphore` round across
  the daemons' voters (``use_consensus=True``);
- sibling elimination is a ``cancel`` record -- a termination message
  with genuine network latency, naturally asynchronous.

Per-endpoint circuit breakers and the optional membership table decide
which endpoints the core may place on, across blocks.

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
import threading
import time
import uuid
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.cluster.auth import AuthError, dial_handshake, load_secret
from repro.cluster.membership import MembershipTable
from repro.cluster.semaphore import ClusterMajoritySemaphore
from repro.cluster.stream import StreamClosed, connect
from repro.core.alternative import Alternative
from repro.core.result import AltResult, OverheadBreakdown
from repro.errors import ConsensusUnavailable
from repro.net.lease import RaceWarden
from repro.net.race import Incarnation, Race, bracket
from repro.obs import events as _ev
from repro.pages.store import PageStore
from repro.process.primitives import ProcessManager
from repro.process.process import SimProcess
from repro.resilience.breaker import CircuitBreaker


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

    # ------------------------------------------------------------------

    def run(
        self,
        alternatives: Sequence[Alternative],
        parent: Optional[SimProcess] = None,
    ) -> AltResult:
        """Execute the block, one arm per daemon (round-robin beyond)."""
        return bracket(
            "cluster", alternatives, True,
            lambda block: self._race(
                Race(alternatives, self.warden, self.seed, block), parent
            ),
        )

    def _race(self, race: Race, parent: Optional[SimProcess]) -> AltResult:
        parent = parent if parent is not None else self.new_parent()
        t0 = time.monotonic()
        clock = lambda: time.monotonic() - t0  # noqa: E731
        image = parent.space.read(0, parent.space.size)
        events: "queue.Queue" = queue.Queue()

        def ship(index: int) -> None:
            self._ship(race, index, image, parent.space.size, events, clock)

        for index in range(len(race.arms)):
            ship(index)
        ask = self._ballot()
        winner: Optional[Tuple[Incarnation, dict, float]] = None
        while race.live() and clock() < self.race_timeout:
            wait = min(
                [inc.lease.deadline - clock() for inc in race.live()] + [0.05]
            )
            try:
                kind, inc, payload = events.get(timeout=max(wait, 0.001))
            except queue.Empty:
                kind = None
            now = clock()
            if kind == "hb":
                # Any heartbeat -- even a zombie epoch's -- proves the
                # *endpoint* is alive, so breaker and membership hear it.
                self._breaker(inc.node).record_success()
                if self.membership is not None:
                    self.membership.observe_ping(inc.worker)
                race.renew(inc, now, payload.get("epoch"))
            elif kind == "result":
                self._breaker(inc.node).record_success()
                inc.duration = float(payload.get("duration") or 0.0)
                inc.pages = int(payload.get("pages_written") or 0)
                if race.admit(inc, now, bool(payload.get("ok")),
                              payload.get("detail") or "",
                              epoch=payload.get("epoch")) \
                        and race.vote(inc, now, ask):
                    winner = (inc, payload, now)
                    break
            elif kind == "drop":
                race.emit(
                    _ev.CONN_DROP, arm=inc.index, name=inc.worker,
                    epoch=inc.epoch, torn=payload.torn, detail=str(payload),
                )
                if not (inc.stale or inc.finished):
                    race.note(now, f"connection to {inc.worker} dropped "
                                   f"({'torn' if payload.torn else 'closed'})")
                    race.lapse(inc, now, dead=True)
                    self._note_endpoint_failure(
                        inc.node, f"conn-drop: {payload}"
                    )
                    if race.respawn(inc, now):
                        ship(inc.index)
            # Wall-clock lease sweep: silence past a deadline is death.
            for inc in race.live():
                now = clock()
                if now >= inc.lease.deadline:
                    race.lapse(inc, now)  # stream stays open: fence bait
                    if race.respawn(inc, now):
                        ship(inc.index)
        ended = clock()
        for inc in race.incarnations:
            self._dismiss(inc, cancel=not inc.finished)
        if winner is None:
            timed_out = ended >= self.race_timeout
            return race.fail(
                ended, parent, self.manager,
                timed_out=self.race_timeout if timed_out else None,
            )
        inc, msg, committed = winner
        resumed = clock()
        return race.win(
            inc, parent, msg.get("value"), msg.get("dirty_pages") or {},
            at=committed, resumed_at=resumed, kill_at=resumed,
            overhead=OverheadBreakdown(
                setup=inc.started, runtime=inc.duration,
                selection=resumed - committed,
            ),
            page_transport="socket",
        )

    def _ballot(self) -> Optional[Callable[[Incarnation], bool]]:
        """The majority round the core calls at commit, on a fresh
        decision id; ``None`` when the first finisher commits."""
        if not self.use_consensus:
            return None
        self.decision_id = decision = f"block-{uuid.uuid4().hex}"
        # The voting population is the live rotation.  With the
        # membership table fully dark fall back to the static list; with
        # no endpoints at all every commit is consensus-unavailable and
        # the ladder (reroute -> respawn -> serial replay) takes over.
        voters = [e.address for e in self._rotation()] or [
            e.address for e in self.endpoints
        ]
        if not voters:
            def starved(inc: Incarnation) -> bool:
                raise ConsensusUnavailable("no voting endpoints")
            return starved
        semaphore = ClusterMajoritySemaphore(
            voters, requester=self.home, secret=self._key
        )
        return lambda inc: semaphore.try_acquire(
            decision, f"arm-{inc.index}-epoch-{inc.epoch}"
        )

    # ------------------------------------------------------------------
    # shipping

    def _ship(self, race, index, image, space_size, events, clock) -> None:
        """Ship one incarnation of arm ``index`` to the next endpoint the
        core places it on; the arm is stranded when none works."""
        arm = race.arms[index]
        while True:
            rotation = self._rotation()
            # Breakers first; with every candidate's breaker open, probe
            # one anyway rather than fall straight to the serial floor.
            endpoint = race.place(
                index, rotation, lambda e: self._breaker(e).allow()
            ) or race.place(index, rotation, lambda e: True)
            if endpoint is None:
                race.stranded(index, clock(), rotation)
                return
            epoch = race.next_epoch(index)
            try:
                stream = connect(
                    endpoint.host, endpoint.port,
                    timeout=self.connect_timeout,
                    name=f"{arm.name}->{endpoint.name}",
                )
                stream = dial_handshake(
                    stream, self._key, timeout=self.connect_timeout
                )
                started = clock()
                if not stream.send({
                    "kind": "ship",
                    "alt": arm,
                    "arm": index,
                    "epoch": epoch,
                    "seed": race.seed,
                    "name": arm.name,
                    "image": image,
                    "space_size": space_size,
                    "hb_interval": self.warden.lease_interval,
                    "crash_after": race.crash_after(index),
                }):
                    stream.close()
                    raise StreamClosed("ship-send-failed")
            except (OSError, StreamClosed, AuthError) as exc:
                race.ship_failed(index, endpoint, clock(), exc, dead=True)
                self._note_endpoint_failure(endpoint, f"dial: {exc}")
                continue
            self._breaker(endpoint).record_success()
            # Half-open sends later in the conversation (heartbeats from
            # our side, cancels) feed the same health plumbing.
            underlying = getattr(stream, "stream", stream)
            underlying.on_send_failure = (
                lambda _s, detail, ep=endpoint:
                    self._note_endpoint_failure(ep, detail)
            )
            inc = race.launch(index, endpoint, started, "ship")
            race.emit(
                _ev.CONN_OPEN, arm=index, name=endpoint.name,
                peer=f"{endpoint.host}:{endpoint.port}", epoch=inc.epoch,
            )
            receiver = threading.Thread(
                target=self._receive,
                args=(inc, stream, events),
                name=f"recv-{arm.name}-e{inc.epoch}",
                daemon=True,
            )
            receiver.start()
            inc.handle = (stream, receiver)
            return

    # ------------------------------------------------------------------
    # the receiver side

    @staticmethod
    def _receive(inc: Incarnation, stream, events) -> None:
        """Pump one connection's records into the home event queue."""
        while True:
            try:
                msg = stream.recv(timeout=0.25)
            except StreamClosed as exc:
                events.put(("drop", inc, exc))
                return
            if msg is None:
                if stream.closed:
                    return
                continue
            kind = msg.get("kind")
            if kind in ("hb", "result"):
                events.put((kind, inc, msg))
                if kind == "result":
                    return

    @staticmethod
    def _dismiss(inc: Incarnation, cancel: bool) -> None:
        """End one conversation: optional cancel record, then close."""
        stream, receiver = inc.handle
        if cancel:
            stream.send({"kind": "cancel"})
        stream.close()
        receiver.join(timeout=1.0)

    def __repr__(self) -> str:
        return (
            f"ClusterExecutor(endpoints={len(self.endpoints)}, "
            f"seed={self.seed}, consensus={self.use_consensus})"
        )
