"""The majority-consensus 0-1 semaphore over real sockets.

:class:`ClusterMajoritySemaphore` is
:class:`~repro.consensus.majority.MajorityConsensusSemaphore` with the
in-memory ``node.request_vote`` call replaced by a framed ``vote``
round-trip to each worker daemon's voter (section 5.1.2 / Thomas 1979,
on the real wire).  Both semaphores judge a round by the one quorum rule,
:func:`~repro.consensus.majority.tally`, and stop collecting when
:func:`~repro.consensus.majority.decided` says the rest cannot change
it; what differs is only how the ballots are collected.  The safety
argument is unchanged and lives entirely on the *daemons*: each voter
grants a decision at most once and never revokes, so two requesters can
never both collect strict majorities -- no matter what the network
between them does.

What the socket hop adds is the paper's failure model for real:

- a SIGKILLed daemon simply never answers; it counts as unreachable and
  the quorum arithmetic absorbs any minority of such losses;
- when fewer than a quorum of voters answer at all, no decision is
  possible and :class:`~repro.errors.ConsensusUnavailable` is raised --
  the caller (the cluster executor) degrades to a home-node serial
  replay, the same last resort the simulated network uses;
- vote traffic is dialled through the same (possibly impaired) endpoint
  addresses as arm shipments, so a chaos scenario starves consensus
  exactly as it starves data.
"""

from __future__ import annotations

import threading
import time
from typing import Hashable, List, Optional, Sequence, Tuple

from repro.cluster.auth import AuthError, dial_handshake, load_secret
from repro.cluster.stream import StreamClosed, connect
from repro.consensus.majority import decided, quorum, tally


class ClusterMajoritySemaphore:
    """At-most-once synchronization across live worker daemons."""

    def __init__(
        self,
        endpoints: Sequence[Tuple[str, int]],
        requester: str = "home",
        vote_timeout: float = 1.0,
        secret=None,
    ) -> None:
        if not endpoints:
            raise ValueError("need at least one voting endpoint")
        self.endpoints: List[Tuple[str, int]] = list(endpoints)
        self.requester = requester
        self.vote_timeout = vote_timeout
        self._key = load_secret(secret)
        self.rounds = 0
        self.unreachable_last_round = 0

    @property
    def quorum(self) -> int:
        """Strict majority of all configured voters (up or down)."""
        return quorum(len(self.endpoints))

    def _ask(self, endpoint: Tuple[str, int], decision_id: Hashable,
             requester: Hashable) -> Optional[bool]:
        """One vote round-trip; ``None`` when the voter is unreachable,
        torn or silent."""
        try:
            stream = connect(
                endpoint[0], endpoint[1],
                timeout=self.vote_timeout,
                name=f"vote-{endpoint[1]}",
            )
            # Votes ride the same authenticated wire as shipments: a
            # voter with a secret configured never counts a ballot it
            # cannot verify.
            stream = dial_handshake(
                stream, self._key, timeout=self.vote_timeout
            )
        except (OSError, StreamClosed, AuthError):
            return None
        try:
            if not stream.send({
                "kind": "vote",
                "decision": decision_id,
                "requester": requester,
            }):
                return None
            reply = stream.recv(timeout=self.vote_timeout)
            if reply is None or reply.get("kind") != "vote-reply":
                return None
            return bool(reply.get("granted"))
        except StreamClosed:
            return None
        finally:
            stream.close()

    def try_acquire(self, decision_id: Hashable,
                    requester: Optional[Hashable] = None) -> bool:
        """Poll every voter in parallel; True iff a majority granted.

        Returns as soon as :func:`~repro.consensus.majority.decided` says
        no pending ballot can change the verdict -- a quorum of grants
        does not wait for the slowest voter.  The late askers finish in
        the background and their votes still land (grants are sticky on
        the daemons), so a requester that loses the race leaves its
        partial grants behind -- safe (nobody else can reach quorum
        *with those votes*) at some cost in liveness, exactly the
        simulated semaphore's contract.  A round nobody decides within
        ``2 * vote_timeout`` is judged on the ballots in by then.

        ``unreachable_last_round`` counts the voters that failed before
        the round was decided (plus, on that timeout, the ones still
        silent); a voter still pending at an early decision is not
        counted.

        Raises :class:`ConsensusUnavailable` when fewer than a quorum of
        voters answered at all.
        """
        self.rounds += 1
        who = requester if requester is not None else self.requester
        voters = len(self.endpoints)
        ballots: List[Optional[bool]] = []
        arrived = threading.Condition()

        def ask(endpoint: Tuple[str, int]) -> None:
            ballot = self._ask(endpoint, decision_id, who)
            with arrived:
                ballots.append(ballot)
                arrived.notify()

        for endpoint in self.endpoints:
            threading.Thread(
                target=ask, args=(endpoint,),
                name=f"vote-{endpoint[0]}:{endpoint[1]}", daemon=True,
            ).start()
        deadline = time.monotonic() + self.vote_timeout * 2
        with arrived:
            while True:
                grants = ballots.count(True)
                answered = grants + ballots.count(False)
                failed = len(ballots) - answered
                if decided(voters, grants, answered, failed):
                    break
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    failed = voters - answered
                    break
                arrived.wait(remaining)
        self.unreachable_last_round = failed
        return tally(voters, grants, answered)

    def __repr__(self) -> str:
        return (
            f"ClusterMajoritySemaphore(voters={len(self.endpoints)}, "
            f"quorum={self.quorum}, rounds={self.rounds})"
        )
