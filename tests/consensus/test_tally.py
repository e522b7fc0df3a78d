"""The one quorum rule both majority semaphores judge a round by."""

import pytest

from repro.consensus.majority import quorum, tally
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
