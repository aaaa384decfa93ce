"""Text columns for the CSV and SVG writers, formatted a column at a time."""

import functools
from typing import Iterator, TextIO

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


@functools.lru_cache(maxsize=64)  # about 0.6 MB at six-digit row numbers
def _row_template(lo: int, n: int) -> str:
    """"{t},%s\n" for the n rows from row lo."""
    return "".join(f"{t},%s\n" for t in range(lo, lo + n))


def write_csv(out: TextIO, header: str, floats: list[np.ndarray],
              codes: np.ndarray, texts) -> None:
    """The header, then per row t: t, each float column at .12g, then
    texts[codes[t]]. A column that holds one value (one bit pattern) over a
    block is formatted once into the block's row template."""
    out.write(header + "\n")
    texts = np.asarray(texts, dtype=object)
    for lo in range(0, len(codes), BLOCK_ROWS):
        cells, varying = [], []
        for col in floats:
            block = col[lo:lo + BLOCK_ROWS]
            bits = block.view(np.uint64)
            if bits.min() == bits.max():
                cells.append(format(float(block[0]), ".12g"))
            else:
                cells.append(None)
                varying.append(format_column(block, ".12g"))
        block = codes[lo:lo + BLOCK_ROWS]
        if block.min() == block.max():
            cells.append(texts[block[0]])
        else:
            cells.append(None)
            varying.append(texts[block].tolist())
        template = _row_template(lo, len(block))
        if not varying:
            out.write(template.replace("%s", ",".join(cells)))
        else:
            row = ",".join("%s" if c is None else c.replace("%", "%%") for c in cells)
            flat = [None] * (len(block) * len(varying))  # row-major, filled a column at a time
            for i, column in enumerate(varying):
                flat[i::len(varying)] = column
            out.write(template.replace("%s", row) % tuple(flat))
