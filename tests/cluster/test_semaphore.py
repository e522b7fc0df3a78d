"""The socket majority semaphore decides a round at quorum.

Two live daemons outvote a black-hole voter (a listener that accepts and
never answers) without waiting for it, in either direction; one live
daemon cannot, and the round is unavailable.  The askers left behind
finish on their own within the vote timeout.
"""

import threading
import time

import pytest

from repro.cluster.daemon import WorkerDaemon
from repro.cluster.semaphore import ClusterMajoritySemaphore
from repro.cluster.stream import listener
from repro.errors import ConsensusUnavailable

KEY = b"s" * 64
VOTE_TIMEOUT = 2.0


class BlackHole:
    """Accepts every connection and never sends a byte."""

    def __init__(self):
        self._sock, self.host, self.port = listener()
        self._held = []
        self._thread = threading.Thread(target=self._accept, daemon=True)
        self._thread.start()

    def _accept(self):
        while True:
            try:
                conn, _ = self._sock.accept()
            except OSError:
                return
            self._held.append(conn)

    @property
    def address(self):
        return (self.host, self.port)

    def close(self):
        self._sock.close()
        self._thread.join(timeout=2.0)
        for conn in self._held:
            conn.close()


@pytest.fixture
def voters():
    daemons = [WorkerDaemon(f"sv{i}", secret=KEY) for i in range(2)]
    for daemon in daemons:
        daemon.start()
    holes = [BlackHole(), BlackHole()]
    yield [(d.host, d.port) for d in daemons], [h.address for h in holes]
    for daemon in daemons:
        daemon.stop()
    for hole in holes:
        hole.close()


def askers_alive():
    return [t for t in threading.enumerate() if t.name.startswith("vote-")]


def test_quorum_of_grants_does_not_wait_for_a_silent_voter(voters):
    live, holes = voters
    semaphore = ClusterMajoritySemaphore(
        live + holes[:1], secret=KEY, vote_timeout=VOTE_TIMEOUT
    )
    started = time.monotonic()
    assert semaphore.try_acquire("d", "home") is True
    assert time.monotonic() - started < VOTE_TIMEOUT / 4
    # The black hole was still pending at the decision, not failed.
    assert semaphore.unreachable_last_round == 0


def test_quorum_of_denials_does_not_wait_for_a_silent_voter(voters):
    live, holes = voters
    ClusterMajoritySemaphore(live, secret=KEY).try_acquire("d", "other")
    semaphore = ClusterMajoritySemaphore(
        live + holes[:1], secret=KEY, vote_timeout=VOTE_TIMEOUT
    )
    started = time.monotonic()
    assert semaphore.try_acquire("d", "home") is False
    assert time.monotonic() - started < VOTE_TIMEOUT / 4


def test_one_live_voter_of_three_is_still_unavailable(voters):
    live, holes = voters
    semaphore = ClusterMajoritySemaphore(
        live[:1] + holes, secret=KEY, vote_timeout=0.3
    )
    with pytest.raises(ConsensusUnavailable):
        semaphore.try_acquire("d", "home")
    assert semaphore.unreachable_last_round == 2


def test_late_askers_finish_within_twice_the_vote_timeout(voters):
    live, holes = voters
    semaphore = ClusterMajoritySemaphore(
        live + holes[:1], secret=KEY, vote_timeout=VOTE_TIMEOUT
    )
    assert semaphore.try_acquire("d", "home") is True
    returned = time.monotonic()
    assert askers_alive()  # the black hole's asker is still out
    while askers_alive() and time.monotonic() < returned + 2 * VOTE_TIMEOUT:
        time.sleep(0.02)
    assert not askers_alive()
