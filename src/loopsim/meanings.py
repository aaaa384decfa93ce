"""Symbol sequences and the distance used by the measure audits."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Meaning:
    """A finite symbol sequence emitted by a channel.

    The optional ``tag`` identifies the producing agent; it is only consulted
    by the declared-bonus measure.
    """

    symbols: str = ""
    tag: str | None = None

    def __len__(self) -> int:
        return len(self.symbols)

    @property
    def is_empty(self) -> bool:
        return not self.symbols


def concat(*meanings: Meaning) -> Meaning:
    """Concatenate symbol sequences. Tags do not survive concatenation."""
    return Meaning("".join(m.symbols for m in meanings))


def random_bits(rng: np.random.Generator, n: int) -> str:
    """n uniform bits as a '0'/'1' string, from one ``rng.integers`` call."""
    return (rng.integers(0, 2, size=n).astype(np.uint8) + ord("0")).tobytes().decode()


def edit_distance(a: str, b: str) -> int:
    """Length difference plus symbol mismatches over the shared prefix.

    Coincides with the Hamming distance on equal-length strings; this is the
    metric the Lipschitz audit uses.
    """
    if len(a) > len(b):
        a, b = b, a
    mismatches = sum(x != y for x, y in zip(a, b))
    return (len(b) - len(a)) + mismatches
