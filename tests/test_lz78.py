"""LZ78 parsing: frozen hand-parses, lossless round trips, oracle agreement."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from loopsim.meanings import Meaning
from loopsim.measures import index_bits, lz78_decode, lz78_parse
from loopsim.measures.lz78 import lz78_coded_bits, lz78_pair_bits


def reference_parse(text):
    """Independent transcription used as an oracle: returns (phrases, bits).

    Deliberately structured differently from the library implementation: the
    dictionary is a list searched by value, and bits are totalled by a
    separate closed-form pass.
    """
    entries = [""]
    phrases = []
    w = ""
    for ch in text:
        if (w + ch) in entries:
            w = w + ch
            continue
        phrases.append((entries.index(w), ch))
        entries.append(w + ch)
        w = ""
    if w:
        phrases.append((entries.index(w), None))
    bits = 0
    for number, (_, symbol) in enumerate(phrases, start=1):
        if number > 1:
            bits += (number - 1).bit_length()
        if symbol is not None:
            bits += 1
    return phrases, bits


def random_binary(rng, max_len):
    n = int(rng.integers(0, max_len + 1))
    return "".join("1" if b else "0" for b in rng.integers(0, 2, size=n))


class TestBitAccounting:
    def test_empty_string_costs_nothing(self):
        parse = lz78_parse("")
        assert parse.phrases == ()
        assert parse.coded_bits == 0

    def test_single_symbol(self):
        parse = lz78_parse("0")
        assert parse.phrases == ((0, "0"),)
        assert parse.coded_bits == 1

    def test_run_of_32_zeros(self):
        # Hand parse: "0", "00", ..., "0000000" complete, then tail "0000".
        parse = lz78_parse("0" * 32)
        complete = [p for p in parse.phrases if p[1] is not None]
        assert len(complete) == 7
        assert parse.phrases[-1] == (4, None)
        assert parse.coded_bits == 24

    def test_index_bits_are_ceil_log2(self):
        assert [index_bits(i) for i in range(1, 9)] == [0, 1, 2, 2, 3, 3, 3, 3]

    def test_prefix_indices_stay_in_range(self):
        parse = lz78_parse("110100100011010")
        for i, (prefix, _) in enumerate(parse.phrases):
            assert 0 <= prefix <= i


class TestRoundTrip:
    def test_known_string(self):
        m = Meaning("ABABABABA")
        assert lz78_decode(lz78_parse(m)).symbols == m.symbols

    def test_random_strings_round_trip(self):
        rng = np.random.default_rng(7)
        for _ in range(10_000):
            text = random_binary(rng, 512)
            parse = lz78_parse(text)
            assert lz78_decode(parse).symbols == text

    def test_agrees_with_reference_parser(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            text = random_binary(rng, 200)
            parse = lz78_parse(text)
            ref_phrases, ref_bits = reference_parse(text)
            assert list(parse.phrases) == ref_phrases
            assert parse.coded_bits == ref_bits

    @settings(max_examples=300, deadline=None)
    @given(st.text("01", max_size=600))
    def test_round_trip_and_coded_bits(self, text):
        parse = lz78_parse(text)
        assert lz78_decode(parse).symbols == text
        fresh = sum(symbol is not None for _, symbol in parse.phrases)
        assert parse.coded_bits == fresh + sum(
            index_bits(i) for i in range(1, len(parse.phrases) + 1))


class TestCodedBitsCount:
    """`lz78_coded_bits` against `lz78_parse(...).coded_bits`."""

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(
        st.text("01", max_size=2_000),
        st.integers(0, 2_000).map(lambda n: "0" * n),
        st.builds(lambda head, n: head + "0" * n, st.text("01", max_size=200),
                  st.integers(0, 400)),
        # Any alphabet, non-ASCII included: a measure takes any `Meaning`.
        st.text(max_size=300),
        st.builds(lambda a, b, n, tail: (a + b) * n + tail,
                  st.characters(), st.characters(), st.integers(0, 60), st.text(max_size=8))))
    def test_equals_the_parse(self, text):
        assert lz78_coded_bits(text) == lz78_parse(text).coded_bits
        assert lz78_coded_bits(Meaning(text)) == lz78_parse(text).coded_bits

    def test_empty_runs_and_incomplete_tails(self):
        # "0" | "00" | "000" leaves 6 zeros complete; a 7th opens a tail "0".
        for text in ["", "0", "00", "000000", "0000000", "0101", "01010", "é" * 9 + "ab"]:
            assert lz78_coded_bits(text) == lz78_parse(text).coded_bits, text
        assert lz78_parse("0000000").phrases[-1] == (1, None)


@settings(max_examples=300, deadline=None)
@given(a=st.text(max_size=80), b=st.text(max_size=80))
def test_pair_bits_equal_the_parses_of_the_parts_and_the_join(a, b):
    assert lz78_pair_bits(a, b) == (lz78_parse(a).coded_bits, lz78_parse(b).coded_bits,
                                    lz78_parse(a + b).coded_bits)
