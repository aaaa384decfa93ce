"""Self-referential noise channels.

A channel turns a seeded noise draw plus the current context into the next
emitted meaning. All randomness is derived from the channel seed through
keyed hashes or counter-addressable generators, so identical (spec, previous
output, step) always reproduce the same meaning, across processes:

  * noise symbols  <- blake2b keyed by (seed, "noise"), data (digest(prev), t)
  * mask valve     <- PCG64 stream keyed by (seed, "mask"), indexed by t

Temperature only matters through the deterministic/stochastic dichotomy:
at temperature 0 the noise source is the all-zero string (zero entropy),
at any positive temperature the symbols are i.i.d. uniform bits.

The estimators and `Draws` (the measure audits' and gamma-star's draws) replay
a numpy Generator exactly from blocks of raw PCG64 words.
"""

from __future__ import annotations

import hashlib
import math
from array import array
from dataclasses import dataclass, field
from enum import Enum
from functools import cache

import numpy as np

_EPS_CEILING = 1.0 - 1e-9
_TAG_DIGEST_BITS = 16


def derive_seed(seed: int, *labels: object) -> int:
    """Stable 64-bit sub-seed for an independent named stream."""
    h = hashlib.blake2b(digest_size=8)
    h.update(str(int(seed)).encode())
    for label in labels:
        h.update(b"/")
        h.update(str(label).encode())
    return int.from_bytes(h.digest(), "little")


class ScheduleKind(str, Enum):
    CONSTANT = "CONSTANT"
    POWER_LAW = "POWER_LAW"


@dataclass(frozen=True)
class EpsilonSchedule:
    """Per-step masking rate, constant or decaying as eps0 + kappa * t**-alpha."""

    eps0: float = 0.0
    kappa: float = 0.0
    alpha_decay: float = 1.0
    kind: ScheduleKind = ScheduleKind.CONSTANT

    def __post_init__(self) -> None:
        if not 0.0 <= self.eps0 < 1.0:
            raise ValueError("eps0 must lie in [0, 1)")
        if not self.kappa >= 0.0:
            raise ValueError("kappa must be nonnegative")
        if not self.alpha_decay > 0.0:
            raise ValueError("alpha_decay must be positive")
        if self.kind is ScheduleKind.POWER_LAW and not self.eps0 + self.kappa < 1.0:
            raise ValueError("eps0 + kappa must stay below 1 (rate at t = 1)")

    @property
    def is_zero(self) -> bool:
        return self.eps0 == 0.0 and (
            self.kind is ScheduleKind.CONSTANT or self.kappa == 0.0
        )

    @property
    def entry_rate(self) -> float:
        """The rate at t = 1, where every schedule starts."""
        return epsilon_at(1, self)


def constant_mask(eps0: float = 0.0) -> EpsilonSchedule:
    return EpsilonSchedule(eps0=eps0)


def power_law_mask(eps0: float, kappa: float, alpha_decay: float) -> EpsilonSchedule:
    return EpsilonSchedule(eps0, kappa, alpha_decay, ScheduleKind.POWER_LAW)


def epsilon_at(t: int, sched: EpsilonSchedule) -> float:
    """Masking rate at step t. POWER_LAW is defined for t >= 1."""
    if sched.kind is ScheduleKind.CONSTANT:
        return sched.eps0
    if t < 1:
        raise ValueError("power-law schedules start at t = 1")
    return float(_power_law(sched, np.array([float(t)]))[0])


def epsilon_array(sched: EpsilonSchedule, horizon: int) -> np.ndarray:
    """epsilon_at evaluated for engine steps 0..horizon-1 (step 0 uses t = 1)."""
    if sched.kind is ScheduleKind.CONSTANT:
        return np.full(horizon, sched.eps0)
    return _power_law(sched, np.maximum(np.arange(horizon, dtype=float), 1.0))


def _power_law(sched: EpsilonSchedule, t: np.ndarray) -> np.ndarray:
    # Arrays only: Python's and numpy's scalar powers can round differently.
    return np.minimum(sched.eps0 + sched.kappa * t**-sched.alpha_decay, _EPS_CEILING)


class PsiKind(str, Enum):
    IDENTITY = "IDENTITY"
    TAGGED_INJECTIVE = "TAGGED_INJECTIVE"
    CONSTANT = "CONSTANT"
    GATED = "GATED"
    MIRROR = "MIRROR"
    DECAYING = "DECAYING"


@dataclass(frozen=True)
class ChannelSpec:
    """Noise source plus meaning operator plus injectivity regime.

    GATED emits gain_lo symbols while the context norm stays at or below
    gamma_true and gain_hi symbols above it (the constructible ground truth
    for threshold estimation). MIRROR emits as many symbols as the current
    context norm and DECAYING emits floor(decay_len * (t+1)**-decay_power)
    symbols; both are synthetic regimes for growth studies.
    """

    psi_kind: PsiKind = PsiKind.IDENTITY
    temperature: float = 1.0
    mask_rate: EpsilonSchedule = field(default_factory=EpsilonSchedule)
    noise_len: int = 8
    seed: int = 0
    const_meaning: str = "111"
    gamma_true: float = 0.0
    gain_lo: int = 0
    gain_hi: int = 1
    decay_len: float = 0.0
    decay_power: float = 1.0

    def __post_init__(self) -> None:
        if not self.temperature >= 0.0:
            raise ValueError("temperature must be nonnegative")
        if self.noise_len < 1:
            raise ValueError("noise_len must be at least 1")
        if self.psi_kind is PsiKind.GATED:
            if self.gain_lo < 0 or self.gain_hi < 0:
                raise ValueError("gate gains must be nonnegative")
            if not self.gain_lo < self.gain_hi:
                raise ValueError("gain_lo must be below gain_hi")
            if math.isnan(self.gamma_true):
                raise ValueError("gamma_true must be a number")
        if self.psi_kind is PsiKind.CONSTANT and self.const_meaning.strip("01"):
            raise ValueError("const_meaning must be binary")
        if self.psi_kind is PsiKind.DECAYING:
            if not 0.0 < self.decay_len < math.inf:
                raise ValueError("decay_len must be positive and finite")
            if not self.decay_power >= 0.0:
                raise ValueError("decay_power must be nonnegative")

    @property
    def deterministic(self) -> bool:
        """True when every step is a fixed function of the previous context:
        never for DECAYING, whose meaning length depends on the step index."""
        return (self.temperature == 0.0 and self.mask_rate.is_zero
                and self.psi_kind is not PsiKind.DECAYING)


@cache
def noise_key(seed: int) -> bytes:
    return hashlib.blake2b(str(derive_seed(seed, "noise")).encode(), digest_size=32).digest()


def _bits(key: bytes, payload: bytes, count: int) -> str:
    """The first ``count`` bits of the keyed blake2b blocks 0, 1, ... of payload."""
    nbytes = -(-count // 8)
    blocks = b"".join(hashlib.blake2b(payload + b.to_bytes(4, "little"), key=key, digest_size=64)
                      .digest() for b in range(-(-nbytes // 64)))
    return format(int.from_bytes(blocks[:nbytes], "big"), f"0{8 * nbytes}b")[:count]


def meaning_digest(symbols: str) -> bytes:
    return hashlib.blake2b(symbols.encode(), digest_size=8).digest()


def noise_from_digest(prev_digest: bytes, t: int, spec: ChannelSpec) -> str:
    """Noise symbols keyed by a precomputed digest of the previous output."""
    if t < 0:
        raise ValueError("step index must be nonnegative")
    if spec.temperature == 0.0:
        return "0" * spec.noise_len
    return _bits(noise_key(spec.seed), prev_digest + t.to_bytes(8, "little"), spec.noise_len)


def mask_stream(spec: ChannelSpec, horizon: int) -> np.ndarray:
    """Uniform coins u_0..u_{horizon-1} driving the masking valve."""
    rng = np.random.Generator(np.random.PCG64(derive_seed(spec.seed, "mask")))
    return rng.random(horizon)


def mask_u01(spec: ChannelSpec, t: int) -> float:
    """The t-th masking coin, addressed without generating the prefix."""
    bg = np.random.PCG64(derive_seed(spec.seed, "mask"))
    bg.advance(t)
    return float(np.random.Generator(bg).random())


def tile(symbols: str, length: int) -> str:
    if length <= 0 or not symbols:
        return ""
    reps = -(-length // len(symbols))
    return (symbols * reps)[:length]


def tag_hasher(symbols: str):
    """The hash behind `context_tag`; feed it the symbols a context grows by."""
    return hashlib.blake2b(symbols.encode(), digest_size=_TAG_DIGEST_BITS // 8)


def context_tag(symbols: str | int, norm: float, hasher) -> str:
    """16 bits of the context (symbols, norm): ``hasher``, the `tag_hasher` of
    the symbols, or the hash of the norm's repr when ``symbols`` (or their
    count) is empty."""
    digest = (hasher if symbols else tag_hasher(repr(norm))).digest()
    return format(int.from_bytes(digest, "big"), f"0{_TAG_DIGEST_BITS}b")


def psi_output_length(spec: ChannelSpec, norm: float, t: int) -> int:
    """Length of the meaning this channel emits, before the masking valve.

    This is the arithmetic ABSTRACT-mode runs use instead of symbols.
    """
    kind = spec.psi_kind
    if kind is PsiKind.IDENTITY:
        return spec.noise_len
    if kind is PsiKind.TAGGED_INJECTIVE:
        return spec.noise_len + _TAG_DIGEST_BITS
    if kind is PsiKind.CONSTANT:
        return len(spec.const_meaning)
    if kind is PsiKind.GATED:
        return spec.gain_lo if norm <= spec.gamma_true else spec.gain_hi
    if kind is PsiKind.MIRROR:
        return max(1, int(norm))
    if kind is PsiKind.DECAYING:
        return int(spec.decay_len * float(t + 1) ** -spec.decay_power)
    raise ValueError(kind)


def apply_psi(noise: str, tag: str, norm: float, t: int, spec: ChannelSpec,
              masked: bool) -> str:
    """The meaning of the noise at step t in a context with this norm and
    `context_tag`, after the masking valve: a masked step emits ""."""
    if masked:
        return ""
    kind = spec.psi_kind
    if kind is PsiKind.IDENTITY:
        return noise
    if kind is PsiKind.TAGGED_INJECTIVE:
        return noise + tag
    if kind is PsiKind.CONSTANT:
        return spec.const_meaning
    return tile(noise, psi_output_length(spec, norm, t))


# The estimators draw their samples this many raw PCG64 words at a time, and
# `Draws` (which converts each word to a Python int) this many.
_BLOCK_WORDS = 1 << 15
_DRAWS_BLOCK_WORDS = 1 << 12


def _raw_words(seed: int, label: str, rows: int, width: int):
    """Blocks of whole rows, ``rows`` rows of ``width`` words in all, of the
    raw PCG64 stream the Generator of ``derive_seed(seed, label)`` draws on."""
    bitgen = np.random.PCG64(derive_seed(seed, label))
    per_block = max(1, _BLOCK_WORDS // max(width, 1))
    for start in range(0, rows, per_block):
        yield bitgen.random_raw((min(per_block, rows - start), width))


def _raw_bits(words: np.ndarray) -> np.ndarray:
    """The bits ``Generator.integers(0, 2)`` makes of each row of raw words:
    bit 31 of each 32-bit half-word, the low half first."""
    bits = np.stack(((words >> 31) & 1, words >> 63), axis=2)
    return bits.reshape(len(words), -1).astype(np.uint8)


class Draws:
    """The draws of ``np.random.default_rng(seed)`` in plain ints, replayed
    from blocks of its raw PCG64 words: ``bits(n)`` is ``integers(0, 2,
    size=n)`` as a '0'/'1' string, ``below(k)`` is ``integers(0, k)`` for
    1 <= k <= 2**32 and ``random()`` is ``random()``. A 32-bit draw takes the
    low half of a fresh word and keeps the high half for the next one; a
    64-bit draw leaves the kept half alone (numpy's ``has_uint32``)."""

    def __init__(self, seed: int):
        self._bitgen = np.random.PCG64(seed)
        self._words = array("Q")
        self._bits = ""  # the `_raw_bits` of _words
        self._next = 0  # the index of the next fresh word
        self._kept: int | None = None

    def _fresh(self, count: int) -> int:
        """The index in _words of the first of ``count`` fresh words, now taken."""
        start = self._next
        if start + count > len(self._words):
            block = self._bitgen.random_raw(max(_DRAWS_BLOCK_WORDS, count))
            self._words = self._words[start:] + array("Q", block.tobytes())
            bits = (_raw_bits(block[None]) + ord("0")).tobytes().decode()
            self._bits, start = self._bits[2 * start:] + bits, 0
        self._next = start + count
        return start

    def random(self) -> float:
        start = self._fresh(1)  # before reading _words, which it may replace
        return (self._words[start] >> 11) * 2.0**-53

    def _uint32(self) -> int:
        kept, self._kept = self._kept, None
        if kept is None:
            start = self._fresh(1)
            kept, self._kept = self._words[start] & 0xFFFFFFFF, self._words[start] >> 32
        return kept

    def below(self, k: int) -> int:
        """Lemire's method (ACM TOMACS 2019); for k = 1 numpy draws nothing."""
        if k == 1:
            return 0
        threshold = (1 << 32) % k
        m = self._uint32() * k
        while m & 0xFFFFFFFF < threshold:
            m = self._uint32() * k
        return m >> 32

    def bits(self, n: int) -> str:
        if n <= 0:
            return ""
        kept, self._kept = self._kept, None
        head = "" if kept is None else "01"[kept >> 31]
        n -= len(head)
        start = self._fresh(-(-n // 2))
        if n % 2:
            self._kept = self._words[start + n // 2] >> 32
        return head + self._bits[2 * start:2 * start + n]

    def corpus(self, max_len: int) -> str:
        """The symbols of `measures.default_sampler(self, max_len)`, read off
        the block in one call: n = below(max_len + 1), then by random() a
        uniform bits(n) (below 0.6), n copies of one random() bit (below 0.8)
        or bits(1 + below(4)) tiled to length n."""
        # Five words serve every draw but a uniform string's bits, which are
        # made sure of once n is known; `_next` gives back the words left over.
        i = self._next if self._next + 5 <= len(self._words) else self._fresh(5)
        words, bits, kept = self._words, self._bits, self._kept
        n, k = 0, max_len + 1
        while k > 1:  # below(k)
            if kept is None:
                word, i = words[i], i + 1
                m, kept = (word & 0xFFFFFFFF) * k, word >> 32
            else:
                m, kept = kept * k, None
            if m & 0xFFFFFFFF >= (1 << 32) % k:
                n = m >> 32
                break
            self._next = i  # rejected
            i, words, bits = self._fresh(5), self._words, self._bits
        style, i = (words[i] >> 11) * 2.0**-53, i + 1
        if 0.6 <= style < 0.8:
            self._next, self._kept = i + 1, kept
            return ("1" if (words[i] >> 11) * 2.0**-53 < 0.5 else "0") * n
        count = n
        if style < 0.6 and i + n // 2 + 1 > len(words):
            self._next = i
            i, words, bits = self._fresh(n // 2 + 1), self._words, self._bits
        elif style >= 0.8:  # below(4) rejects nothing: 2**32 % 4 == 0
            if kept is None:
                word, i = words[i], i + 1
                u, kept = word & 0xFFFFFFFF, word >> 32
            else:
                u, kept = kept, None
            count = 1 + ((u * 4) >> 32)
        head = ""  # bits(count)
        if count and kept is not None:
            head, kept, count = "01"[kept >> 31], None, count - 1
        symbols = head + bits[2 * i:2 * i + count]
        if count % 2:
            kept = words[i + count // 2] >> 32
        self._next, self._kept = i + (count + 1) // 2, kept
        return tile(symbols, n) if style >= 0.8 else symbols


def estimate_collision_rate(spec: ChannelSpec, c, trials: int, seed: int = 0) -> float:
    """Fraction of i.i.d. noise pairs whose meanings in context c coincide (valve included).

    The masking coins are drawn i.i.d. per trial at the schedule's entry rate
    (t = 1), so with an injective base map the rate is eps^2 + (1-eps)^2 * p.
    A trial draws a's noise, a's coin (if eps > 0), b's noise, b's coin. Two
    meanings of one length L > 0 are equal iff their noise agrees on its first
    min(L, noise_len) bits (on none for CONSTANT; TAGGED's tags are equal).
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    eps = spec.mask_rate.entry_rate
    n = spec.noise_len if spec.temperature > 0.0 else 0  # 2n noise bits in n words
    length = psi_output_length(spec, c.norm, 0)
    compare = 0 if spec.psi_kind is PsiKind.CONSTANT else min(length, n)
    width = n + 2 * (eps > 0.0)
    collisions = 0
    for words in _raw_words(seed, "collision", trials, width):
        lengths = np.full((len(words), 2), length)
        if eps > 0.0:  # a's coin follows a's noise; a's spare half-word starts b's
            coins = [-(-n // 2), width - 1]
            lengths[(words[:, coins] >> 11) * 2.0**-53 < eps] = 0
            words = np.delete(words, coins, axis=1)
        bits = _raw_bits(words)
        same = (bits[:, :compare] == bits[:, n:n + compare]).all(axis=1)
        a, b = lengths.T
        collisions += int(np.count_nonzero((a == b) & ((a == 0) | same)))
    return collisions / trials


def entropy_estimate(spec: ChannelSpec, samples: int, seed: int = 0) -> float:
    """Plug-in Shannon entropy (bits) of the empirical noise distribution,
    summed over the distinct samples in order of first appearance."""
    if samples < 1:
        raise ValueError("samples must be at least 1")
    counts = [samples]
    if spec.temperature > 0.0:
        n = spec.noise_len  # two samples fill n words
        packed = np.concatenate([
            np.packbits(_raw_bits(words).reshape(-1, n), axis=1)
            for words in _raw_words(seed, "entropy", -(-samples // 2), n)])[:samples]
        _, first, count = np.unique(packed.view(np.dtype((np.void, packed.shape[1]))),
                                    return_index=True, return_counts=True)
        counts = count[np.argsort(first)].tolist()
    entropy = 0.0
    for count in counts:
        p = count / samples
        entropy -= p * math.log2(p)
    return entropy
