"""CONCRETE runs pinned byte for byte: the noise bits and four recorded runs."""

import hashlib
import io

import pytest

from loopsim.channel import (
    ChannelSpec,
    PsiKind,
    constant_mask,
    derive_seed,
    meaning_digest,
    noise_from_digest,
)
from loopsim.engine import (
    EVENT_BURST_HIT_W,
    EVENT_MASKED,
    Mode,
    RunConfig,
    UpdateKind,
    UpdateRuleSpec,
    delta_monotone,
    run,
    step,
    windowed,
)
from loopsim.measures import compression_gain_measure


def reference_noise(prev_digest, t, spec):
    """The noise bits as first defined: every 512-bit block formatted whole,
    the blocks joined and cut to noise_len."""
    key = hashlib.blake2b(str(derive_seed(spec.seed, "noise")).encode(),
                          digest_size=32).digest()
    payload = prev_digest + t.to_bytes(8, "little", signed=False)
    chunks = []
    block = 0
    while 512 * block < spec.noise_len:
        h = hashlib.blake2b(payload + block.to_bytes(4, "little"), key=key, digest_size=64)
        chunks.append(format(int.from_bytes(h.digest(), "big"), "0512b"))
        block += 1
    return "".join(chunks)[:spec.noise_len]


@pytest.mark.parametrize("noise_len", [1, 7, 8, 9, 511, 512, 513, 1200])
def test_noise_matches_the_512_bit_reference(noise_len):
    for seed in (0, 5):
        spec = ChannelSpec(noise_len=noise_len, seed=seed)
        for prev in ("", "0", "0110"):
            digest = meaning_digest(prev)
            for t in (0, 1, 77):
                assert noise_from_digest(digest, t, spec) == reference_noise(digest, t, spec)


# name: (config, SHA-256 of the CSV, of final_symbols, of the joined state
# digests of a `step` loop), recorded from the engine before the symbol layer
# moved to plain strings.
PINNED = {
    "tagged_append_from_empty": (
        RunConfig(channel=ChannelSpec(psi_kind=PsiKind.TAGGED_INJECTIVE, noise_len=8,
                                      seed=21),
                  update=UpdateRuleSpec(UpdateKind.APPEND), mode=Mode.CONCRETE,
                  gamma=100.0, horizon=300),
        "c96254929c8da3895ba3d6408afce145daa64b886606b71e1d03a60881af5c73",
        "0df114cdfc761a9796daf5c82bf50d79a77e7542b7418e639374428996e9ac67",
        "269656fb2c2d856d29e12ca0096101159acc66b17907e45d6ae5330f31dd5613"),
    "masked_windowed_gated": (
        RunConfig(channel=ChannelSpec(psi_kind=PsiKind.GATED, gamma_true=10.0,
                                      gain_lo=1, gain_hi=6, seed=22,
                                      mask_rate=constant_mask(0.3)),
                  update=windowed(40, delta=1.0, drop_to=11.0), mode=Mode.CONCRETE,
                  gamma=10.0, horizon=400, initial_norm=11.0,
                  initial_symbols="01101001110"),
        "47fcc03677dbdaa0c3385ffcf8e995ea0ebc23e2811de240371aa9a2331c35fe",
        "a8dfb9f076d64045ba0afc7eac7510e060e28a2ccd3f1b6176c32b0aa0799972",
        "b2071caaa83fb0076c2660a6d0361057998d731d3d2fc73ce9952c107d658cc7"),
    "masked_compression_gain_delta": (
        RunConfig(channel=ChannelSpec(psi_kind=PsiKind.GATED, gamma_true=300.0,
                                      gain_lo=512, gain_hi=1024, seed=23,
                                      mask_rate=constant_mask(0.2)),
                  update=delta_monotone(0.5), measure=compression_gain_measure(),
                  mode=Mode.CONCRETE, gamma=100.0, horizon=120),
        "00ceb03f7b082d2da128c38e654862ca3947ddb6092f4f47225c10013f44a1b4",
        "dcef515f03acc05ca6d53eaa77bcfb34b65fb83d43e83b20a0b77df407a95944",
        "745a5513326f1cb83cb4ba727599cd2d29adf364904cd086b144fd9909e95506"),
    "stochastic_identity_1200": (
        RunConfig(channel=ChannelSpec(psi_kind=PsiKind.IDENTITY, noise_len=1200,
                                      seed=24),
                  update=UpdateRuleSpec(UpdateKind.OVERWRITE), mode=Mode.CONCRETE,
                  gamma=100.0, horizon=50),
        "713cc52e7eb8cff436fdb0aac9ced71a8aab6ea2caa6e4231cfa29a34890b323",
        "bae7d50c289f225da16a31023a1564363eafa01fdbdc5836d01a48df0fe33b20",
        "a441626a09543e421f20f3177a3ab580d3634d98a5855ad53782d35676fc1be2"),
}


@pytest.mark.parametrize("name", list(PINNED))
def test_concrete_run_is_pinned(name):
    cfg, csv_sha, symbols_sha, digests_sha = PINNED[name]
    traj = run(cfg)
    buffer = io.StringIO()
    traj.write_csv(buffer)
    assert traj.steps == cfg.horizon
    assert hashlib.sha256(buffer.getvalue().encode()).hexdigest() == csv_sha
    assert hashlib.sha256(traj.final_symbols.encode()).hexdigest() == symbols_sha
    state, digests = cfg.initial_state(), []
    for t in range(cfg.horizon):
        state, _ = step(state, t, cfg)
        digests.append(meaning_digest(state.symbols))
    assert hashlib.sha256(b"".join(digests)).hexdigest() == digests_sha


def test_pinned_runs_cover_their_regimes():
    # The WINDOWED run is masked and drops; the compression run grows its symbols.
    bursty = run(PINNED["masked_windowed_gated"][0])
    assert (bursty.events & EVENT_MASKED).any() and (bursty.events & EVENT_BURST_HIT_W).any()
    growing = run(PINNED["masked_compression_gain_delta"][0])
    assert (growing.events & EVENT_MASKED).any() and len(growing.final_symbols) > 1024
