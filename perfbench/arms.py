"""Picklable arm bodies and the oracles that check their answers.

Arms live in an importable module (``perfbench.arms``) so a world-pool
worker or a cluster daemon can unpickle them.  Every answer can be
recomputed here, outside the system under test.
"""

from __future__ import annotations

from typing import Tuple

PAGE = 4096
"""Page size of the executors' default stores."""

_MUL = 6364136223846793005
_INC = 1442695040888963407
_MASK = (1 << 64) - 1


def lcg_jump(x: int, steps: int) -> int:
    """``x`` after ``steps`` rounds of the arms' LCG, in O(log steps).

    Composes the affine map ``x -> MUL*x + INC`` by repeated squaring, so
    the oracle checks a spin loop's result without re-running it.
    """
    mul, inc = 1, 0
    step_mul, step_inc = _MUL, _INC
    while steps:
        if steps & 1:
            mul, inc = (step_mul * mul) & _MASK, (step_mul * inc + step_inc) & _MASK
        step_mul, step_inc = (
            (step_mul * step_mul) & _MASK,
            (step_mul * step_inc + step_inc) & _MASK,
        )
        steps >>= 1
    return (mul * x + inc) & _MASK


class TagArm:
    """Near-zero work: write one variable, return the block's tag."""

    def __init__(self, tag: str) -> None:
        self.tag = tag

    def __call__(self, ctx) -> str:
        ctx.put("v", self.tag)
        return self.tag


class SpinArm:
    """CPU-bound body that never polls for cancellation.

    Spins an LCG ``spins`` times, stamps each page in ``pages``, records
    its name, and returns ``(name, final LCG state)``.  Like the paper's
    alternatives, it is ordinary code: an eliminated sibling runs to
    completion unless it is killed.
    """

    def __init__(self, name: str, seed: int, spins: int,
                 pages: Tuple[int, ...]) -> None:
        self.name = name
        self.seed = seed
        self.spins = spins
        self.pages = tuple(pages)

    def stamp(self, page: int) -> bytes:
        return f"{self.name}:{page}:{self.seed}".encode().ljust(64, b".")

    def __call__(self, ctx) -> Tuple[str, int]:
        x = self.seed
        for _ in range(self.spins):
            x = (x * _MUL + _INC) & _MASK
        for page in self.pages:
            ctx.space.write(page * PAGE, self.stamp(page))
        ctx.put("arm", self.name)
        return self.name, x

    def expected(self) -> Tuple[str, int]:
        """The return value, computed without running the body."""
        return self.name, lcg_jump(self.seed, self.spins)
