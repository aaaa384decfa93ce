"""LZ78 dictionary parsing with explicit bit accounting.

Coding convention (binary symbols): the i-th emitted phrase, counting from 1,
spends ceil(log2 i) bits on its prefix index (the first phrase spends none)
plus one bit for its fresh symbol. A trailing phrase that ends mid-dictionary
("incomplete tail") carries no fresh symbol and spends index bits only. The
parse is lossless: decoding reproduces the input exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..meanings import Meaning

# Marker for an incomplete tail phrase.
NO_SYMBOL = None


@dataclass(frozen=True)
class Lz78Parse:
    """Ordered (prefix-index, next-symbol) phrases plus their total coded size."""

    phrases: tuple[tuple[int, str | None], ...]
    coded_bits: int


def index_bits(phrase_number: int) -> int:
    """Bits spent on the prefix index of the phrase_number-th phrase (1-based)."""
    if phrase_number < 1:
        raise ValueError("phrase numbers start at 1")
    return (phrase_number - 1).bit_length()


def lz78_parse(m: Meaning | str) -> Lz78Parse:
    text = m.symbols if isinstance(m, Meaning) else m
    dictionary: dict[str, int] = {"": 0}
    phrases: list[tuple[int, str | None]] = []
    w = ""
    for ch in text:
        wc = w + ch
        if wc in dictionary:
            w = wc
            continue
        phrases.append((dictionary[w], ch))
        dictionary[wc] = len(dictionary)
        w = ""
    if w:
        phrases.append((dictionary[w], NO_SYMBOL))

    bits = 0
    for number, (_, symbol) in enumerate(phrases, start=1):
        bits += index_bits(number)
        if symbol is not None:
            bits += 1
    return Lz78Parse(tuple(phrases), bits)


def lz78_coded_bits(m: Meaning | str) -> int:
    """``lz78_parse(m).coded_bits`` from a walk that only counts phrases: n
    phrases spend sum(ceil(log2 i), i = 1..n) = n*k - 2**k + 1 index bits,
    k = ceil(log2 n), plus one bit for each complete phrase. The dictionary
    is a trie of dicts keyed by character. The walk is `_walk` written out,
    which keeps a call off each CONCRETE step."""
    text = m.symbols if isinstance(m, Meaning) else m
    root = node = {}
    complete = 0
    for ch in text:
        child = node.get(ch)
        if child is None:
            node[ch] = {}
            node, complete = root, complete + 1
        else:
            node = child
    n = complete + (node is not root)
    k = (n - 1).bit_length()
    return n * k - (1 << k) + 1 + complete if n else 0


def lz78_pair_bits(a: str, b: str) -> tuple[int, int, int]:
    """``lz78_coded_bits`` of a, of b and of a + b. The parse of a + b starts
    with the parse of a, so the walk over a is carried on over b for the
    join; b gets one walk of its own."""
    root = {}
    node, complete = _walk(a, root, root, 0)
    bits_a = _coded_bits(complete, node is not root)
    node, complete = _walk(b, root, node, complete)
    return bits_a, lz78_coded_bits(b), _coded_bits(complete, node is not root)


def _walk(text: str, root: dict, node: dict, complete: int) -> tuple[dict, int]:
    """Carry a parse on over text from `node`, the trie node the open phrase
    has reached, and `complete`, the count of complete phrases."""
    for ch in text:
        child = node.get(ch)
        if child is None:
            node[ch] = {}
            node, complete = root, complete + 1
        else:
            node = child
    return node, complete


def _coded_bits(complete: int, open_tail: bool) -> int:
    """The coded bits of `complete` phrases and an open tail, as in
    `lz78_coded_bits`."""
    n = complete + open_tail
    k = (n - 1).bit_length()
    return n * k - (1 << k) + 1 + complete if n else 0


def lz78_decode(parse: Lz78Parse) -> Meaning:
    table = [""]
    out: list[str] = []
    for prefix_index, symbol in parse.phrases:
        piece = table[prefix_index] + (symbol or "")
        out.append(piece)
        if symbol is not None:
            table.append(piece)
    return Meaning("".join(out))
