"""Symbol sequences and the distance used by the measure audits."""

from __future__ import annotations

import operator
from dataclasses import dataclass


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


def edit_distance(a: str, b: str) -> int:
    """Length difference plus symbol mismatches over the shared prefix.

    Coincides with the Hamming distance on equal-length strings; this is the
    metric the Lipschitz audit uses.
    """
    return abs(len(a) - len(b)) + sum(map(operator.ne, a, b))
