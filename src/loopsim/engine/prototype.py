"""Minimal integer-state prototype of the feedback loop.

Two variants share one seeded uniform bit stream. OVERWRITE replaces the
state with each fresh bit (plus one above the threshold), so its history
never leaves {0, 1} for thresholds >= 1: the overwrite discards all history.
CUMULATIVE accumulates the bits instead and adds the threshold bonus once the
state exceeds the threshold, which is the variant that actually exhibits
threshold behaviour.
"""

from __future__ import annotations

import random
from enum import Enum

from .core import MAX_STEPS


class PrototypeMode(str, Enum):
    OVERWRITE = "OVERWRITE"
    CUMULATIVE = "CUMULATIVE"


def run_prototype(mode: PrototypeMode | str, steps: int = 200,
                  gamma: float = 10, seed: int = 0) -> list[int]:
    """Histories of the prototype loop; one entry per step."""
    mode = PrototypeMode(mode)
    if not 1 <= steps <= MAX_STEPS:
        raise ValueError(f"steps must lie in [1, {MAX_STEPS}]")
    rng = random.Random(seed)
    c = 0
    history: list[int] = []
    for _ in range(steps):
        m = rng.randint(0, 1)
        if mode is PrototypeMode.OVERWRITE:
            c = m if c <= gamma else m + 1
        else:
            c = c + m + (1 if c > gamma else 0)
        history.append(c)
    return history
