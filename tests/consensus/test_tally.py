"""The one quorum rule both majority semaphores judge a round by."""

import itertools

import pytest

from repro.consensus.majority import decided, quorum, tally
from repro.errors import ConsensusUnavailable

GRANTED, DENIED, UNAVAILABLE = "granted", "denied", "unavailable"


@pytest.mark.parametrize("voters, grants, answered, verdict", [
    (1, 1, 1, GRANTED),
    (1, 0, 1, DENIED),
    (1, 0, 0, UNAVAILABLE),
    (3, 2, 2, GRANTED),
    (3, 3, 3, GRANTED),
    (3, 1, 3, DENIED),
    (3, 1, 2, DENIED),
    (3, 0, 2, DENIED),
    (3, 1, 1, UNAVAILABLE),
    (3, 0, 0, UNAVAILABLE),
    (4, 3, 3, GRANTED),
    (4, 2, 4, DENIED),
    (4, 2, 2, UNAVAILABLE),
    (5, 3, 3, GRANTED),
    (5, 2, 5, DENIED),
    (5, 2, 2, UNAVAILABLE),
])
def test_tally(voters, grants, answered, verdict):
    if verdict == UNAVAILABLE:
        with pytest.raises(ConsensusUnavailable, match="quorum is"):
            tally(voters, grants, answered)
    else:
        assert tally(voters, grants, answered) is (verdict == GRANTED)


@pytest.mark.parametrize("voters, need", [(1, 1), (2, 2), (3, 2), (4, 3),
                                          (5, 3), (9, 5)])
def test_quorum_is_a_strict_majority(voters, need):
    assert quorum(voters) == need


def _verdict(voters, grants, answered):
    try:
        return GRANTED if tally(voters, grants, answered) else DENIED
    except ConsensusUnavailable:
        return UNAVAILABLE


@pytest.mark.parametrize("voters", [1, 2, 3, 4, 5])
def test_decided_never_stops_on_a_prefix_that_could_still_change(voters):
    """Every arrival order of grant/deny/fail: the verdict at the first
    decided prefix is the full round's, and the full round is decided."""
    for ballots in itertools.product((GRANTED, DENIED, "failed"),
                                     repeat=voters):
        full = _verdict(voters, ballots.count(GRANTED),
                        voters - ballots.count("failed"))
        for order in set(itertools.permutations(ballots)):
            grants = answered = failed = 0
            for ballot in order:
                grants += ballot == GRANTED
                answered += ballot != "failed"
                failed += ballot == "failed"
                if decided(voters, grants, answered, failed):
                    break
            else:
                pytest.fail(f"full round {order} not decided")
            assert _verdict(voters, grants, answered) == full, order


@pytest.mark.parametrize("voters", [1, 2, 3, 4, 5])
def test_decided_as_soon_as_the_pending_voters_cannot_matter(voters):
    """Eager, not just safe: decided exactly when every way the pending
    voters could answer leads to one verdict."""
    for grants, denials, failed in itertools.product(range(voters + 1),
                                                     repeat=3):
        pending = voters - grants - denials - failed
        if pending < 0:
            continue
        outcomes = {
            _verdict(voters, grants + more, grants + denials + more + less)
            for more in range(pending + 1)
            for less in range(pending - more + 1)
        }
        assert decided(voters, grants, grants + denials, failed) is (
            len(outcomes) == 1
        ), (grants, denials, failed)
