"""``gdbf.step`` steps exactly as the plain reference rule does, and the
batch engine decodes whole frames exactly as the plain reference decoder
does.

Each variant is stepped by ``gdbf.step`` with the samples, weight and
thresholds its ``DecoderSetup`` gives, as ``gdbf.decode`` steps a perturbed
frame, in lockstep with ``PlainBitFlip`` on the same saturated samples and
an identically seeded perturbation stream; decisions and syndromes must
agree after every step.
mgdbf, whose mode switch only the engine applies, is stepped by decoding
its frames through the engine afresh under a budget of each step count.
The fixed cases run the acceptance parameters on the bundled code and on an
irregular code; the property test draws small regular and irregular codes,
variants, parameters and seeds.  The engine cases decode noise-free and
shift-chain setups through ``decode_chunk``, over ranges of several sizes,
and through ``decode_frame``, and compare bit errors, iterations, engaged
flags and final decisions with ``plain_decode``, ``PlainBitFlip`` run under
the stop rule and output smoothing one frame at a time; a shift-chain
frame is perturbed by ``ShiftRegister``, the paper's register fed one
sample an iteration from an identically seeded generator.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ngdbf.channel import QuantizerSpec, ebn0_to_sigma, saturate, transmit
from ngdbf.codes import bipolar_sign
from ngdbf import harness
from ngdbf.gdbf import step
from ngdbf.harness import (VARIANTS, CampaignConfig, DecoderSetup, FrameStats, decode_chunk,
                           decode_frame, frame_rng, run_campaign, run_convergence)
from ngdbf.noisy import NgdbfParams, NoiseSource

from .support.gen_regular_code import peg_regular_code
from .support.irregular import irregular_codes, random_irregular_code
from .support.oracles import PlainBitFlip, ShiftRegister, plain_decode

FRAMES = 3
SEED = 7

# The parameters of acceptance criteria 07-08 and 11, and the reference rule
# each variant's steps must follow, written out without the variant table.
SG = NgdbfParams(theta=-0.9, w=1.0, t_max=100)
MG = NgdbfParams(theta=-0.5, w=1.0, t_max=100)
AT = NgdbfParams(theta=-0.6, lam=0.99, w=1.0, t_max=100)
SN = NgdbfParams(theta=-0.9, eta=1.0, w=0.75, t_max=100)
MN = NgdbfParams(theta=-0.9, lam=0.99, eta=0.95, w=0.75, t_max=100)
SMN = MN.replace(t_max=300, smoothing_window=64)
Q4 = MN.replace(theta=-0.7, noise_policy="shift_chain")
CASES = {
    "sgdbf": (DecoderSetup("sgdbf", SG), dict(w=1.0)),
    "atgdbf": (DecoderSetup("atgdbf", AT), dict(w=1.0, theta=-0.6, lam=0.99)),
    "sngdbf": (DecoderSetup("sngdbf", SN), dict(w=0.75)),
    "mngdbf": (DecoderSetup("mngdbf", MN), dict(w=0.75, theta=-0.9, lam=0.99)),
    "smngdbf": (DecoderSetup("smngdbf", SMN), dict(w=0.75, theta=-0.9, lam=0.99)),
    "mngdbf-q4": (DecoderSetup("mngdbf", Q4.replace(noise_policy="iid"),
                               QuantizerSpec(4, 1.75)),
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
    if setup.perturbed:
        # the step's stream comes quantized, the reference quantizes its own
        noise, twin = (NoiseSource(code.n, params.eta * sigma, params.noise_policy,
                                   frame_rng(seed, 0, frame, 1), quantizer=quantizer)
                       for quantizer in (setup.quantizer, None))
    w, thresholds = setup.weight_and_thresholds
    samples = setup.samples(y)
    plain = PlainBitFlip(code, y, noise=twin, **rule)
    x = bipolar_sign(samples)
    s, u = code.syndrome(x), np.zeros(code.n, dtype=np.int64)
    assert np.array_equal(x, plain.x)
    for t in range(params.t_max):
        if s.min() == 1:
            return t
        s = step(code, x, s, samples, w, thresholds, u, None if noise is None else noise.draw())
        plain.step()
        assert np.array_equal(x, plain.x), f"frame {frame}, step {t}: decisions differ"
        assert np.array_equal(s, plain.s), f"frame {frame}, step {t}: syndromes differ"
    return params.t_max


def run_engine_lockstep(code, setup, rule, sigma, seed, frame) -> int:
    """Step one noise-free frame through the plain rule, and after each step t
    decode it afresh through the engine with a budget of t steps: both must
    hold the same decisions.

    Returns the number of steps taken.
    """
    params = setup.params
    ones = np.ones(code.n, dtype=np.int8)
    y = saturate(transmit(ones, sigma, frame_rng(seed, 0, frame, 0)), 2.5)
    plain = PlainBitFlip(code, y, **rule)
    for t in range(params.t_max):
        if plain.s.min() == 1:
            return t
        plain.step()
        budget = DecoderSetup(setup.variant, params.replace(t_max=t + 1), setup.quantizer)
        x, iterations, _ = harness.decode_batched(code, budget, sigma, y[None], seed, 0, frame)
        assert np.array_equal(x[0], plain.x), f"frame {frame}, step {t}: decisions differ"
        assert iterations[0] == t + 1, f"frame {frame}, step {t}: iterations differ"
    return params.t_max


@pytest.mark.parametrize("name", [*CASES, "mgdbf"])
def test_stepper_matches_plain_rule_at_every_step(bench_code, name):
    # mgdbf's mode switch lives only in the engine, so its steps are the
    # engine's decisions under growing step budgets
    if name == "mgdbf":
        setup = DecoderSetup("mgdbf", MG)
        lockstep, rule = run_engine_lockstep, reference_rule(setup)
    else:
        (setup, rule), lockstep = CASES[name], run_lockstep
    sigma = ebn0_to_sigma(3.0, float(bench_code.rate))
    steps = sum(lockstep(bench_code, setup, rule, sigma, SEED, fi) for fi in range(FRAMES))
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


def reference_rule(setup: DecoderSetup) -> dict:
    """``PlainBitFlip``'s arguments for ``setup``, by RULE_ARGS."""
    params = setup.params
    values = dict(theta=params.theta, lam=params.lam, mode_switching=True)
    return dict(w=params.w, quantizer=setup.quantizer,
                **{k: values[k] for k in RULE_ARGS[setup.variant]})


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
                         noise_policy=draw(st.sampled_from(("iid", "uniform"))))
    quantizer = None
    if VARIANTS[variant].quantizable and draw(st.booleans()):
        quantizer = QuantizerSpec(draw(st.integers(2, 6)), draw(st.floats(1.5, 2.5)))
    if variant == "mgdbf":
        # gdbf.step has no mode switch: the multi-bit rule without it is
        # atgdbf's at lam = 1, and mgdbf itself is checked whole-frame below.
        variant, params = "atgdbf", params.replace(lam=1.0)
    setup = DecoderSetup(variant, params, quantizer)
    return code, setup, reference_rule(setup), draw(st.floats(0.4, 1.0)), draw(
        st.integers(0, 2**32 - 1))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=random_cases())
def test_random_codes_and_parameters_match_plain_rule(case):
    code, setup, rule, sigma, seed = case
    for frame in range(2):
        run_lockstep(code, setup, rule, sigma, seed, frame)


# ---------------------------------------------------------------------------
# The batch engine against the plain whole-frame decoder
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
# Shift-chain setups: the engine adds each frame's chain to its metric.
CHAIN_FRAMES = 70   # ranges of 33 and 70 frames cross the engine's 32-frame batches
CHAIN_CASES = {
    "sngdbf-chain": DecoderSetup("sngdbf", SN.replace(noise_policy="shift_chain")),
    "mngdbf-chain": DecoderSetup("mngdbf", MN.replace(noise_policy="shift_chain")),
    "mngdbf-chain-tmax1": DecoderSetup("mngdbf", MN.replace(noise_policy="shift_chain",
                                                            t_max=1)),
    "smngdbf-chain": DecoderSetup("smngdbf", SMN.replace(noise_policy="shift_chain")),
    "mngdbf-q4-chain": DecoderSetup("mngdbf", Q4, QuantizerSpec(4, 1.75)),
    "mngdbf-q3-chain-tmax37": DecoderSetup("mngdbf", Q4.replace(t_max=37),
                                           QuantizerSpec(3, 1.75)),
    "smngdbf-q4-chain-window16": DecoderSetup("smngdbf", Q4.replace(smoothing_window=16),
                                              QuantizerSpec(4, 1.75)),
    "smngdbf-q4-chain-tmax7": DecoderSetup("smngdbf", Q4.replace(t_max=7, smoothing_window=3),
                                           QuantizerSpec(4, 1.75)),
    "mngdbf-q16-chain": DecoderSetup("mngdbf", Q4, QuantizerSpec(16, 1.75)),
}


def refuse(*args, **kwargs):
    raise AssertionError("a noise-free or shift-chain frame left the batch engine")


def batched(code, setup, sigma, seed, frames, size, monkeypatch) -> tuple:
    """decode_chunk over ranges of ``size`` frames, none of them through
    decode_frame: the final decisions its batches reached, and its statistics."""
    decided, engine = [], harness.decode_batched

    def record(*args):
        out = engine(*args)
        decided.append(out[0])
        return out

    with monkeypatch.context() as patch:
        patch.setattr(harness, "decode_frame", refuse)
        patch.setattr(harness, "decode_batched", record)
        parts = [decode_chunk(code, setup, sigma, 2.5, seed, 0, start, min(start + size, frames))
                 for start in range(0, frames, size)]
    return np.concatenate(decided), FrameStats(*(np.concatenate(c) for c in zip(*parts)))


def per_frame(code, setup, sigma, seed, frames) -> FrameStats:
    stats = [decode_frame(code, setup, sigma, 2.5, seed, 0, fi) for fi in range(frames)]
    return FrameStats(*np.array(stats, dtype=np.int32).T)


def plain(code, setup, sigma, seed, frames) -> tuple:
    """plain_decode on each frame's saturated channel samples, perturbed by the
    frame's unquantized shift register if the setup draws a perturbation (an
    engine setup draws only a shift chain): the final decisions, and the
    statistics."""
    params, ones = setup.params, np.ones(code.n, dtype=np.int8)
    decoded = [plain_decode(code, saturate(transmit(ones, sigma, frame_rng(seed, 0, fi, 0)), 2.5),
                            params.t_max, setup.smoothing_window,
                            noise=(ShiftRegister(code.n, params.eta * sigma,
                                                 frame_rng(seed, 0, fi, 1))
                                   if setup.perturbed else None),
                            **reference_rule(setup))
               for fi in range(frames)]
    x = np.array([d[0] for d in decoded]).reshape(-1, code.n)
    return x, FrameStats(np.count_nonzero(x != 1, axis=1).astype(np.int32),
                         *np.array([d[1:] for d in decoded], dtype=np.int32).reshape(-1, 2).T)


def assert_same_stats(got: FrameStats, want: FrameStats) -> None:
    for name, a, b in zip(FrameStats._fields, got, want):
        assert a.dtype == np.int32 and np.array_equal(a, b), name


def assert_engine_matches_plain(code, setup, sigma, seed, frames, sizes,
                                monkeypatch) -> FrameStats:
    """decode_chunk over ranges of each of ``sizes`` frames, and decode_frame,
    against plain_decode; returns the statistics."""
    x, want = plain(code, setup, sigma, seed, frames)
    for size in sizes:
        decided, got = batched(code, setup, sigma, seed, frames, size, monkeypatch)
        assert np.array_equal(decided, x)
        assert_same_stats(got, want)
    assert_same_stats(per_frame(code, setup, sigma, seed, frames), want)
    return want


@pytest.mark.parametrize("ebn0", [3.0, 4.0])
@pytest.mark.parametrize("name", ENGINE_CASES)
def test_engine_matches_per_frame_decoding(bench_code, monkeypatch, name, ebn0):
    sigma = ebn0_to_sigma(ebn0, float(bench_code.rate))
    want = assert_engine_matches_plain(bench_code, ENGINE_CASES[name], sigma, SEED,
                                       ENGINE_FRAMES, (1, 7, 32, 40), monkeypatch)
    assert np.count_nonzero(want.iterations) > ENGINE_FRAMES // 2


@pytest.mark.parametrize("ebn0", [3.0, 4.0])
@pytest.mark.parametrize("name", CHAIN_CASES)
def test_engine_matches_shift_chain_decoding(bench_code, monkeypatch, name, ebn0):
    sigma = ebn0_to_sigma(ebn0, float(bench_code.rate))
    want = assert_engine_matches_plain(bench_code, CHAIN_CASES[name], sigma, SEED,
                                       CHAIN_FRAMES, (33, CHAIN_FRAMES), monkeypatch)
    assert np.count_nonzero(want.iterations) > CHAIN_FRAMES // 2


ALL_CASES = {**ENGINE_CASES, **CHAIN_CASES}


@pytest.mark.parametrize("name", ALL_CASES)
def test_engine_on_irregular_code_matches_plain_decoding(monkeypatch, name):
    """Padded slots of both tables, decoded by every noise-free and shift-chain setup."""
    code = random_irregular_code(240, 100, 8, seed=11)
    assert_engine_matches_plain(code, ALL_CASES[name], 0.6, SEED, 8, (3,), monkeypatch)


@st.composite
def engine_cases(draw, chained=False):
    """A regular PEG code with symbol degree up to 16 or an irregular code, and a
    noise-free bit-flip setup with random parameters; ``chained``, a setup
    perturbed by a shift chain instead, decoded over up to 40 frames."""
    if draw(st.booleans()):
        n = draw(st.integers(16, 96))
        code = random_irregular_code(n, draw(st.integers(2, n // 2)),
                                     draw(st.integers(3, min(24, n))),
                                     draw(st.integers(0, 2**32 - 1)))
    else:
        dv = draw(st.integers(2, 16))
        n = draw(st.integers(1, 96 // (2 * dv))) * 2 * dv
        code = peg_regular_code(n, n // 2, dv, 2 * dv, seed=draw(st.integers(0, 2**16)))
    stochastic = sorted(v for v in RULE_ARGS if VARIANTS[v].stochastic)
    variant = draw(st.sampled_from(stochastic if chained else sorted(RULE_ARGS)))
    t_max = draw(st.integers(1, 60))
    params = NgdbfParams(theta=-draw(st.floats(0.05, 2.0)), lam=draw(st.floats(0.8, 1.0)),
                         eta=draw(st.floats(0.05, 1.0)) if chained else 0.0,
                         w=draw(st.floats(0.25, 1.5)), t_max=t_max,
                         smoothing_window=(draw(st.integers(1, t_max))
                                           if variant == "smngdbf" else 0),
                         noise_policy="shift_chain")
    quantizer = None
    if VARIANTS[variant].quantizable and draw(st.booleans()):
        quantizer = QuantizerSpec(draw(st.integers(2, 16)), draw(st.floats(1.5, 2.5)))
    return (code, DecoderSetup(variant, params, quantizer), draw(st.floats(0.4, 1.0)),
            draw(st.integers(0, 2**32 - 1)), draw(st.integers(1, 40 if chained else 9)))


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=engine_cases())
def test_engine_matches_per_frame_decoding_on_random_codes(monkeypatch, case):
    code, setup, sigma, seed, frames = case
    assert_engine_matches_plain(code, setup, sigma, seed, frames, sorted({1, 3, frames}),
                                monkeypatch)


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=engine_cases(chained=True))
def test_engine_matches_shift_chain_decoding_on_random_codes(monkeypatch, case):
    code, setup, sigma, seed, frames = case
    assert_engine_matches_plain(code, setup, sigma, seed, frames, sorted({1, 33, frames}),
                                monkeypatch)


def test_noise_free_setups_reach_no_stepper(bench_code, monkeypatch):
    # float, eta = 0 and Q4 eta = 0 setups, through every per-frame entry point
    monkeypatch.setattr(harness, "decode", refuse)
    sigma = ebn0_to_sigma(3.0, float(bench_code.rate))
    for setup in ENGINE_CASES.values():
        assert setup.batched
        decode_frame(bench_code, setup, sigma, 2.5, SEED, 0, 0)
        decode_chunk(bench_code, setup, sigma, 2.5, SEED, 0, 0, 3)
    eps = run_convergence(bench_code, ENGINE_CASES, 3.0, 3, SEED)
    assert list(eps) == list(ENGINE_CASES)


def test_shift_chain_setups_reach_no_stepper(bench_code, monkeypatch):
    # float and quantized shift chains, through every per-frame entry point;
    # iid and uniform perturbations still go frame by frame
    monkeypatch.setattr(harness, "decode", refuse)
    monkeypatch.setattr(NoiseSource, "draw", refuse)
    sigma = ebn0_to_sigma(3.0, float(bench_code.rate))
    for setup in CHAIN_CASES.values():
        assert setup.batched
        assert not replace(setup, params=setup.params.replace(noise_policy="iid")).batched
        assert not replace(setup, params=setup.params.replace(noise_policy="uniform")).batched
        decode_frame(bench_code, setup, sigma, 2.5, SEED, 0, 0)
        decode_chunk(bench_code, setup, sigma, 2.5, SEED, 0, 0, 3)
    eps = run_convergence(bench_code, CHAIN_CASES, 3.0, 3, SEED)
    assert list(eps) == list(CHAIN_CASES)


@pytest.mark.parametrize("name", ["sgdbf", "mgdbf", "atgdbf", "mngdbf-eta0", "mngdbf-q4-eta0",
                                  "sngdbf-chain", "mngdbf-q4-chain",
                                  "smngdbf-q4-chain-window16"])
def test_engine_campaigns_do_not_depend_on_workers(bench_code, name):
    # 64-frame stop chunks go to 2 and 3 workers as ranges of 4 and 3 frames,
    # and to one worker as a range that spans two shift-chain batches
    cfg = CampaignConfig(bench_code, ALL_CASES[name], ebn0_db=(3.0, 4.0), frames=150,
                         master_seed=SEED, error_target=20)
    csv = {w: run_campaign(cfg, workers=w, chunk_size=64).to_csv() for w in (1, 2, 3)}
    assert csv[2] == csv[1] and csv[3] == csv[1]
