"""Every bit-flip variant steps exactly as the plain reference rule does,
and the batch engine decodes exactly as the per-frame decoder does.

Each variant is built through ``harness.build_stepper``, as a campaign
builds it, and stepped in lockstep with ``PlainBitFlip`` on the same
saturated samples and an identically seeded perturbation stream; decisions
and syndromes must agree after every step.  The fixed cases run the
acceptance parameters on the bundled code and on an irregular code; the
property test draws small regular and irregular codes, variants,
parameters and seeds.  The engine cases compare ``decode_chunk``'s
statistics for noise-free setups, over ranges of several sizes, with
``decode_frame`` called once per frame.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ngdbf.channel import QuantizerSpec, ebn0_to_sigma, saturate, transmit
from ngdbf.core import init_state
from ngdbf import harness
from ngdbf.harness import (VARIANTS, CampaignConfig, DecoderSetup, FrameStats, build_stepper,
                           decode_chunk, decode_frame, frame_rng, run_campaign)
from ngdbf.noisy import NOISE_POLICIES, NgdbfParams, NoiseSource

from .support.gen_regular_code import peg_regular_code
from .support.irregular import irregular_codes, random_irregular_code
from .support.oracles import PlainBitFlip

FRAMES = 3
SEED = 7

# The parameters of acceptance criteria 07-08 and 11, and the reference rule
# each variant must follow, written out without the variant table.
SG = NgdbfParams(theta=-0.9, w=1.0, t_max=100)
MG = NgdbfParams(theta=-0.5, w=1.0, t_max=100)
AT = NgdbfParams(theta=-0.6, lam=0.99, w=1.0, t_max=100)
SN = NgdbfParams(theta=-0.9, eta=1.0, w=0.75, t_max=100)
MN = NgdbfParams(theta=-0.9, lam=0.99, eta=0.95, w=0.75, t_max=100)
SMN = MN.replace(t_max=300, smoothing_window=64)
Q4 = MN.replace(theta=-0.7, noise_policy="shift_chain")
CASES = {
    "sgdbf": (DecoderSetup("sgdbf", SG), dict(w=1.0)),
    "mgdbf": (DecoderSetup("mgdbf", MG), dict(w=1.0, theta=-0.5, mode_switching=True)),
    "atgdbf": (DecoderSetup("atgdbf", AT), dict(w=1.0, theta=-0.6, lam=0.99)),
    "sngdbf": (DecoderSetup("sngdbf", SN), dict(w=0.75)),
    "mngdbf": (DecoderSetup("mngdbf", MN), dict(w=0.75, theta=-0.9, lam=0.99)),
    "smngdbf": (DecoderSetup("smngdbf", SMN), dict(w=0.75, theta=-0.9, lam=0.99)),
    "mngdbf-q4": (DecoderSetup("mngdbf", Q4, QuantizerSpec(4, 1.75)),
                  dict(w=0.75, theta=-0.7, lam=0.99, quantizer=QuantizerSpec(4, 1.75))),
}


def run_lockstep(code, setup, rule, sigma, seed, frame) -> int:
    """Step one frame through both decoders, comparing after every step.

    Returns the number of steps taken.
    """
    params = setup.params
    ones = np.ones(code.n, dtype=np.int8)
    y = saturate(transmit(ones, sigma, frame_rng(seed, 0, frame, 0)), 2.5)
    noise = twin = None
    if VARIANTS[setup.variant].stochastic and params.eta > 0:
        noise, twin = (NoiseSource(code.n, params.eta * sigma, params.noise_policy,
                                   frame_rng(seed, 0, frame, 1)) for _ in range(2))
    stepper = build_stepper(code, setup, y, noise)
    plain = PlainBitFlip(code, y, noise=twin, **rule)
    state = init_state(code, stepper.y)
    assert np.array_equal(state.x, plain.x)
    stepper.start(state)
    for t in range(params.t_max):
        if state.s.min() == 1:
            return t
        stepper.step(state)
        plain.step()
        assert np.array_equal(state.x, plain.x), f"frame {frame}, step {t}: decisions differ"
        assert np.array_equal(state.s, plain.s), f"frame {frame}, step {t}: syndromes differ"
    return params.t_max


@pytest.mark.parametrize("name", CASES)
def test_stepper_matches_plain_rule_at_every_step(bench_code, name):
    setup, rule = CASES[name]
    sigma = ebn0_to_sigma(3.0, float(bench_code.rate))
    steps = sum(run_lockstep(bench_code, setup, rule, sigma, SEED, fi)
                for fi in range(FRAMES))
    assert steps >= 2 * FRAMES


@pytest.mark.parametrize("name", CASES)
def test_irregular_code_matches_plain_rule(name):
    """Padded slots of both tables, stepped on every variant, float and Q4."""
    code = random_irregular_code(240, 100, 8, seed=11)
    setup, rule = CASES[name]
    for frame in range(FRAMES):
        run_lockstep(code, setup, rule, 0.6, SEED, frame)


# The reference rule's arguments per variant, beyond w and the quantizer.
RULE_ARGS = {"sgdbf": (), "sngdbf": (), "mgdbf": ("theta", "mode_switching"),
             "atgdbf": ("theta", "lam"), "mngdbf": ("theta", "lam"), "smngdbf": ("theta", "lam")}


@st.composite
def random_cases(draw):
    """A small regular or irregular code, a bit-flip variant with random
    parameters, and the same rule written out for the reference decoder."""
    if draw(st.booleans()):
        code = draw(irregular_codes(max_n=96))
    else:
        dv, dc = draw(st.sampled_from([(3, 6), (2, 4), (4, 8), (3, 4)]))
        n = draw(st.integers(24 // dc, 96 // dc)) * dc
        code = peg_regular_code(n, n * dv // dc, dv, dc, seed=draw(st.integers(0, 2**16)))
    variant = draw(st.sampled_from(sorted(RULE_ARGS)))
    params = NgdbfParams(theta=-draw(st.floats(0.05, 2.0)), lam=draw(st.floats(0.8, 1.0)),
                         eta=draw(st.floats(0.0, 1.0)), w=draw(st.floats(0.25, 1.5)), t_max=100,
                         noise_policy=draw(st.sampled_from(NOISE_POLICIES)))
    quantizer = None
    if VARIANTS[variant].quantizable and draw(st.booleans()):
        quantizer = QuantizerSpec(draw(st.integers(2, 6)), draw(st.floats(1.5, 2.5)))
    if variant == "mgdbf" and not draw(st.booleans()):
        # The multi-bit rule without the mode switch is atgdbf's at lam = 1;
        # the reference rule gets theta and lam, and no mode switch.
        variant, params = "atgdbf", params.replace(lam=1.0)
    setup = DecoderSetup(variant, params, quantizer)
    values = dict(theta=params.theta, lam=params.lam, mode_switching=True)
    rule = dict(w=params.w, quantizer=quantizer, **{k: values[k] for k in RULE_ARGS[variant]})
    return code, setup, rule, draw(st.floats(0.4, 1.0)), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=random_cases())
def test_random_codes_and_parameters_match_plain_rule(case):
    code, setup, rule, sigma, seed = case
    for frame in range(2):
        run_lockstep(code, setup, rule, sigma, seed, frame)


# ---------------------------------------------------------------------------
# The batch engine against per-frame decoding
# ---------------------------------------------------------------------------

ENGINE_FRAMES = 40
NOISELESS = MN.replace(eta=0.0)
ENGINE_CASES = {
    "sgdbf": DecoderSetup("sgdbf", SG),
    "mgdbf": DecoderSetup("mgdbf", MG),
    "atgdbf": DecoderSetup("atgdbf", AT),
    "atgdbf-lam1": DecoderSetup("atgdbf", AT.replace(lam=1.0)),
    "sngdbf-eta0": DecoderSetup("sngdbf", SN.replace(eta=0.0)),
    "mngdbf-eta0": DecoderSetup("mngdbf", NOISELESS),
    "smngdbf-eta0": DecoderSetup("smngdbf", SMN.replace(eta=0.0)),
    "smngdbf-eta0-window5": DecoderSetup("smngdbf", NOISELESS.replace(smoothing_window=5)),
    "mngdbf-q4-eta0": DecoderSetup("mngdbf", Q4.replace(eta=0.0), QuantizerSpec(4, 1.75)),
    "mngdbf-q16-eta0": DecoderSetup("mngdbf", Q4.replace(eta=0.0), QuantizerSpec(16, 1.75)),
}


def batched(code, setup, sigma, seed, frames, size, monkeypatch) -> FrameStats:
    """decode_chunk over ranges of ``size`` frames, none of them through decode_frame."""
    def refuse(*args):
        raise AssertionError("a noise-free frame went through decode_frame")

    with monkeypatch.context() as patch:
        patch.setattr(harness, "decode_frame", refuse)
        parts = [decode_chunk(code, setup, sigma, 2.5, seed, 0, start, min(start + size, frames))
                 for start in range(0, frames, size)]
    return FrameStats(*(np.concatenate(column) for column in zip(*parts)))


def per_frame(code, setup, sigma, seed, frames) -> FrameStats:
    stats = [decode_frame(code, setup, sigma, 2.5, seed, 0, fi) for fi in range(frames)]
    return FrameStats(*np.array(stats, dtype=np.int32).T)


def assert_same_stats(got: FrameStats, want: FrameStats) -> None:
    for name, a, b in zip(FrameStats._fields, got, want):
        assert a.dtype == np.int32 and np.array_equal(a, b), name


@pytest.mark.parametrize("ebn0", [3.0, 4.0])
@pytest.mark.parametrize("name", ENGINE_CASES)
def test_engine_matches_per_frame_decoding(bench_code, monkeypatch, name, ebn0):
    setup = ENGINE_CASES[name]
    sigma = ebn0_to_sigma(ebn0, float(bench_code.rate))
    want = per_frame(bench_code, setup, sigma, SEED, ENGINE_FRAMES)
    assert np.count_nonzero(want.iterations) > ENGINE_FRAMES // 2
    for size in (1, 7, 32, 40):
        got = batched(bench_code, setup, sigma, SEED, ENGINE_FRAMES, size, monkeypatch)
        assert_same_stats(got, want)


@st.composite
def noiseless_cases(draw):
    """A regular PEG code with symbol degree up to 16 or an irregular code, and a
    noise-free bit-flip setup with random parameters."""
    if draw(st.booleans()):
        n = draw(st.integers(16, 96))
        code = random_irregular_code(n, draw(st.integers(2, n // 2)),
                                     draw(st.integers(3, min(24, n))),
                                     draw(st.integers(0, 2**32 - 1)))
    else:
        dv = draw(st.integers(2, 16))
        n = draw(st.integers(1, 96 // (2 * dv))) * 2 * dv
        code = peg_regular_code(n, n // 2, dv, 2 * dv, seed=draw(st.integers(0, 2**16)))
    variant = draw(st.sampled_from(sorted(RULE_ARGS)))
    t_max = draw(st.integers(1, 60))
    params = NgdbfParams(theta=-draw(st.floats(0.05, 2.0)), lam=draw(st.floats(0.8, 1.0)),
                         eta=0.0, w=draw(st.floats(0.25, 1.5)), t_max=t_max,
                         smoothing_window=(draw(st.integers(1, t_max))
                                           if variant == "smngdbf" else 0))
    quantizer = None
    if VARIANTS[variant].quantizable and draw(st.booleans()):
        quantizer = QuantizerSpec(draw(st.integers(2, 16)), draw(st.floats(1.5, 2.5)))
    return (code, DecoderSetup(variant, params, quantizer), draw(st.floats(0.4, 1.0)),
            draw(st.integers(0, 2**32 - 1)), draw(st.integers(1, 9)))


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=noiseless_cases())
def test_engine_matches_per_frame_decoding_on_random_codes(monkeypatch, case):
    code, setup, sigma, seed, frames = case
    want = per_frame(code, setup, sigma, seed, frames)
    for size in sorted({1, 3, frames}):
        assert_same_stats(batched(code, setup, sigma, seed, frames, size, monkeypatch), want)


@pytest.mark.parametrize("name", ["sgdbf", "mgdbf", "atgdbf", "mngdbf-eta0", "mngdbf-q4-eta0"])
def test_engine_campaigns_do_not_depend_on_workers(bench_code, name):
    # 64-frame stop chunks go to 2 and 3 workers as ranges of 4 and 3 frames
    cfg = CampaignConfig(bench_code, ENGINE_CASES[name], ebn0_db=(3.0, 4.0), frames=150,
                         master_seed=SEED, error_target=20)
    csv = {w: run_campaign(cfg, workers=w, chunk_size=64).to_csv() for w in (1, 2, 3)}
    assert csv[2] == csv[1] and csv[3] == csv[1]
