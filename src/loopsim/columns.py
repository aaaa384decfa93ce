"""Text columns for the CSV and SVG writers, formatted a column at a time."""

from typing import Iterable, Iterator, TextIO

import numpy as np

# Rows formatted at a time: few short-lived strings keep peak memory low.
BLOCK_ROWS = 1024


def format_column(values: np.ndarray, spec: str) -> list[str]:
    """``[format(x, spec) for x in values.tolist()]`` for a 1-D float64 array,
    formatting each distinct bit pattern once (so -0.0 and NaNs stay apart)."""
    bits, inverse = np.unique(np.asarray(values, np.float64).view(np.uint64), return_inverse=True)
    text = [format(x, spec) for x in bits.view(np.float64).tolist()]
    return np.array(text, dtype=object)[inverse].tolist()


def column_blocks(floats: list[np.ndarray], spec: str) -> Iterator[tuple[int, list]]:
    """(first row, every column's texts) for each block of BLOCK_ROWS rows."""
    for lo in range(0, len(floats[0]), BLOCK_ROWS):
        yield lo, [format_column(col[lo:lo + BLOCK_ROWS], spec) for col in floats]


def write_csv(out: TextIO, header: str, floats: list[np.ndarray], last: Iterable[str]) -> None:
    """The header, then per row t: t, each float column at .12g, then last[t]."""
    out.write(header + "\n")
    last = iter(last)
    for lo, block in column_blocks(floats, ".12g"):
        # zip stops at the row numbers before it takes from `last`.
        lines = zip(map(str, range(lo, lo + len(block[0]))), *block, last)
        out.write("\n".join(map(",".join, lines)) + "\n")
