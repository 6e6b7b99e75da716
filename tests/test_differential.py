"""The flip rule steps exactly as the plain reference rule does, and the
batch engine decodes whole frames exactly as the plain reference decoder
does.

Each variant is stepped by the oracles' vectorised ``step`` with the samples,
weight and thresholds its ``DecoderSetup`` gives and the draws of a one-frame
``NoiseSource``, in lockstep with ``PlainBitFlip`` on the same saturated samples
and the oracles' own draws (``IidDraws``) from an identically seeded generator;
decisions and syndromes must agree after every step.
mgdbf, whose mode switch only the engine applies, is stepped by decoding
its frames through the engine afresh under a budget of each step count.
The fixed cases run the acceptance parameters on the bundled code and on an
irregular code; the property test draws small regular and irregular codes,
variants, parameters and seeds.  The engine cases decode noise-free,
shift-chain and per-step-draw setups through ``decode_chunk``, over ranges of
several sizes and ranges of one, and compare bit errors, iterations, engaged
flags and final decisions with ``plain_decode``, ``PlainBitFlip`` run under
the stop rule and output smoothing one frame at a time; a shift-chain
frame is perturbed by ``ShiftRegister``, the paper's register fed one
sample an iteration from an identically seeded generator, and a frame
perturbed by iid or uniform draws by ``IidDraws``.  Min-sum frames are checked
against ``decode_minsum`` on each frame's raw samples.  Last, the engine must
give each frame the same result wherever its row sits in the batch, its
perturbation stream moving with it, and the same result in a batch, where
finished frames retire in bulk, as decoded alone; and a campaign of any kind
of setup must not depend on its number of workers.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ngdbf.channel import QuantizerSpec, ebn0_to_sigma, saturate, transmit
from ngdbf.codes import bipolar_sign
from ngdbf import harness
from ngdbf.harness import (VARIANTS, CampaignConfig, DecoderSetup, FrameStats, decode_chunk,
                           frame_rng, run_campaign, run_convergence)
from ngdbf.minsum import decode_minsum
from ngdbf.noisy import NgdbfParams, NoiseSource

from .support.gen_regular_code import peg_regular_code
from .support.irregular import irregular_codes, random_irregular_code
from .support.oracles import IidDraws, PlainBitFlip, ShiftRegister, plain_decode, step

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
    noise, one = None, (np.zeros(1, dtype=int), np.ones(1, dtype=bool))
    if setup.perturbed:     # the step's draws come quantized, the reference quantizes its own
        noise = NoiseSource(code.n, params.eta * sigma, params.noise_policy,
                            [frame_rng(seed, 0, frame, 1)], quantizer=setup.quantizer)
    w, thresholds = setup.weight_and_thresholds
    samples = y if setup.quantizer is None else setup.quantizer.to_index(y)
    plain = PlainBitFlip(code, y, noise=reference_noise(code, setup, sigma, seed, frame), **rule)
    x = bipolar_sign(samples)
    s, u = code.syndrome(x), np.zeros(code.n, dtype=np.int64)
    assert np.array_equal(x, plain.x)
    for t in range(params.t_max):
        if s.min() == 1:
            return t
        s = step(code, x, s, samples, w, thresholds, u,
                 None if noise is None else noise.draw(*one)[0])
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
        x, iterations, _ = harness.decode_frame(code, budget, sigma, y[None], seed, 0, frame)
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
        # step has no mode switch: the multi-bit rule without it is
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
    raise AssertionError("a frame drew a perturbation its setup does not have")


def batched(code, setup, sigma, seed, frames, size, monkeypatch) -> tuple:
    """decode_chunk over ranges of ``size`` frames: the final decisions its blocks
    reached through decode_frame, and its statistics."""
    decided, engine = [], harness.decode_frame

    def record(*args):
        out = engine(*args)
        decided.append(out[0])
        return out

    with monkeypatch.context() as patch:
        patch.setattr(harness, "decode_frame", record)
        parts = [decode_chunk(code, setup, sigma, 2.5, seed, 0, start, min(start + size, frames))
                 for start in range(0, frames, size)]
    return np.concatenate(decided), FrameStats(*(np.concatenate(c) for c in zip(*parts)))


def per_frame(code, setup, sigma, seed, frames) -> FrameStats:
    """decode_chunk over ranges of one frame (B = 1)."""
    stats = [decode_chunk(code, setup, sigma, 2.5, seed, 0, fi, fi + 1) for fi in range(frames)]
    return FrameStats(*(np.concatenate(c) for c in zip(*stats)))


def reference_noise(code, setup, sigma, seed, frame):
    """The frame's unquantized perturbation, drawn by the oracles from its own
    stream: a shift register or per-iteration draws; None if it draws none."""
    if not setup.perturbed:
        return None
    params, rng = setup.params, frame_rng(seed, 0, frame, 1)
    if params.noise_policy == "shift_chain":
        return ShiftRegister(code.n, params.eta * sigma, rng)
    return IidDraws(code.n, params.eta * sigma, params.noise_policy, rng)


def plain(code, setup, sigma, seed, frames) -> tuple:
    """plain_decode on each frame's saturated channel samples, perturbed by
    :func:`reference_noise`: the final decisions, and the statistics."""
    params, ones = setup.params, np.ones(code.n, dtype=np.int8)
    decoded = [plain_decode(code, saturate(transmit(ones, sigma, frame_rng(seed, 0, fi, 0)), 2.5),
                            params.t_max, setup.smoothing_window,
                            noise=reference_noise(code, setup, sigma, seed, fi),
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
    """decode_chunk over ranges of each of ``sizes`` frames, and of one frame,
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


# Per-iteration draws: the engine adds one draw of each running frame's own stream
# a step, through its NoiseSource.
DRAW_FRAMES = 32
DRAW_CASES = {
    "sngdbf": DecoderSetup("sngdbf", SN),
    "mngdbf": DecoderSetup("mngdbf", MN),
    "smngdbf-window16": DecoderSetup("smngdbf", MN.replace(smoothing_window=16)),
    "mngdbf-uniform": DecoderSetup("mngdbf", MN.replace(noise_policy="uniform")),
    "mngdbf-q4": CASES["mngdbf-q4"][0],
}


@pytest.mark.parametrize("ebn0", [3.0, 4.0])
@pytest.mark.parametrize("name", DRAW_CASES)
def test_per_iteration_draws_match_plain_decoding(bench_code, monkeypatch, name, ebn0):
    setup, sigma = DRAW_CASES[name], ebn0_to_sigma(ebn0, float(bench_code.rate))
    want = assert_engine_matches_plain(bench_code, setup, sigma, SEED, DRAW_FRAMES,
                                       (7, DRAW_FRAMES), monkeypatch)
    assert np.count_nonzero(want.iterations) > DRAW_FRAMES // 2
    assert want.engaged.any() == bool(setup.smoothing_window)


ALL_CASES = {**ENGINE_CASES, **CHAIN_CASES, **DRAW_CASES}


@pytest.mark.parametrize("name", ALL_CASES)
def test_engine_on_irregular_code_matches_plain_decoding(monkeypatch, name):
    """Padded slots of both tables, decoded by every noise-free and perturbed setup."""
    code = random_irregular_code(240, 100, 8, seed=11)
    assert_engine_matches_plain(code, ALL_CASES[name], 0.6, SEED, 8, (3,), monkeypatch)


ORDER_FRAMES = 32
# Every kind of bit-flip setup: noise-free single-flip, mgdbf with its mode switch,
# adaptive thresholds and a smoothing window, float and Q4 shift chains, and float,
# uniform and Q4 per-step draws; each with its Eb/N0 on the bundled code and its sigma
# on the irregular one, at which a batch retires frames at several steps, some at
# t_max, on both sides of a quarter.
ORDER_CASES = {
    "sgdbf": (ENGINE_CASES["sgdbf"], 3.0, 0.6),
    "mgdbf": (ENGINE_CASES["mgdbf"], 3.5, 0.6),
    "atgdbf": (ENGINE_CASES["atgdbf"], 4.0, 0.5),
    "smngdbf-eta0-window16": (DecoderSetup("smngdbf", NOISELESS.replace(smoothing_window=16)),
                              5.0, 0.5),
    "mngdbf-chain": (CHAIN_CASES["mngdbf-chain"], 3.0, 0.6),
    "smngdbf-chain-window16": (DecoderSetup("smngdbf", MN.replace(noise_policy="shift_chain",
                                                                  smoothing_window=16)),
                               3.0, 0.6),
    "mngdbf-q4-chain": (CHAIN_CASES["mngdbf-q4-chain"], 3.0, 0.6),
    "sngdbf-iid": (DRAW_CASES["sngdbf"], 3.5, 0.6),
    "mngdbf-iid": (DRAW_CASES["mngdbf"], 3.0, 0.6),
    "smngdbf-iid-window16": (DRAW_CASES["smngdbf-window16"], 3.0, 0.6),
    "mngdbf-uniform": (DRAW_CASES["mngdbf-uniform"], 3.5, 0.6),
    "mngdbf-q4-iid": (DRAW_CASES["mngdbf-q4"], 3.0, 0.6),
}


def retire_events(iterations) -> tuple:
    """How many of a batch's retire steps leave their dead columns in place, and how
    many drop them, under the engine's rule: the dead columns go once they are at
    least a quarter of the width, or the batch ends when none is left running."""
    width, dead, kept, dropped = len(iterations), 0, 0, 0
    for t in np.unique(iterations)[:-1]:
        dead += np.count_nonzero(iterations == t)
        if 4 * dead >= width:
            width, dead, dropped = width - dead, 0, dropped + 1
        else:
            kept += 1
    return kept, dropped


@pytest.mark.parametrize("irregular", [False, True])
@pytest.mark.parametrize("name", ORDER_CASES)
def test_engine_results_do_not_depend_on_row_order(bench_code, monkeypatch, name, irregular):
    """A frame's decisions, iterations and engaged flag are the same wherever its row
    sits in the batch, so rows retiring in another order leave every frame alone, and
    the same as decoded alone (B = 1), so finished columns that step on unread until a
    quarter of the batch is dead leave every frame alone too.  A frame's per-step
    draws come from its own stream wherever its row sits."""
    setup, ebn0, sigma = ORDER_CASES[name]
    code, sigma = ((random_irregular_code(240, 100, 8, seed=11), sigma) if irregular
                   else (bench_code, ebn0_to_sigma(ebn0, float(bench_code.rate))))
    calls, engine = [], harness.decode_batch

    def record(code, y, *args):
        calls.append((y, args))
        return engine(code, y, *args)

    monkeypatch.setattr(harness, "decode_batch", record)
    decode_chunk(code, setup, sigma, 2.5, SEED, 0, 0, ORDER_FRAMES)
    [(y, (t_max, w, thresholds, mode_switching, window, chains, noise))] = calls

    def draws(frames):
        """A fresh source of the recorded one's draws, for ``frames`` in this order."""
        return None if noise is None else NoiseSource(
            noise.n, noise.sigma, noise.policy, [frame_rng(SEED, 0, i, 1) for i in frames],
            quantizer=noise.quantizer)

    assert (noise is not None) == (setup.perturbed and chains is None)
    x, iterations, engaged = engine(code, y, t_max, w, thresholds, mode_switching, window,
                                    chains, draws(range(ORDER_FRAMES)))
    assert len(np.unique(iterations)) > 2       # frames retire at several steps
    assert np.any(iterations == t_max)
    kept, dropped = retire_events(iterations)
    assert kept > 0 and dropped > 0     # retire steps on both sides of the quarter
    assert engaged.any() == bool(setup.smoothing_window)
    p = np.random.default_rng(5).permutation(ORDER_FRAMES)
    got = engine(code, y[p], t_max, w, thresholds, mode_switching, window,
                 None if chains is None else chains[p], draws(p))
    for a, b in zip(got, (x, iterations, engaged)):
        assert np.array_equal(a, b[p])
    for i in range(ORDER_FRAMES):
        alone = engine(code, y[i:i + 1], t_max, w, thresholds, mode_switching, window,
                       None if chains is None else chains[i:i + 1], draws([i]))
        for a, b in zip(alone, (x, iterations, engaged)):
            assert np.array_equal(a, b[i:i + 1]), (i, iterations[i])


@st.composite
def engine_cases(draw, policy=None):
    """A regular PEG code with symbol degree up to 16 or an irregular code, and a
    noise-free bit-flip setup with random parameters; with a noise ``policy``, a
    setup perturbed by it instead, decoded over up to 40 frames."""
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
    variant = draw(st.sampled_from(stochastic if policy else sorted(RULE_ARGS)))
    t_max = draw(st.integers(1, 60))
    params = NgdbfParams(theta=-draw(st.floats(0.05, 2.0)), lam=draw(st.floats(0.8, 1.0)),
                         eta=draw(st.floats(0.05, 1.0)) if policy else 0.0,
                         w=draw(st.floats(0.25, 1.5)), t_max=t_max,
                         smoothing_window=(draw(st.integers(1, t_max))
                                           if variant == "smngdbf" else 0),
                         noise_policy=policy or "shift_chain")
    quantizer = None
    if VARIANTS[variant].quantizable and draw(st.booleans()):
        quantizer = QuantizerSpec(draw(st.integers(2, 16)), draw(st.floats(1.5, 2.5)))
    return (code, DecoderSetup(variant, params, quantizer), draw(st.floats(0.4, 1.0)),
            draw(st.integers(0, 2**32 - 1)), draw(st.integers(1, 40 if policy else 9)))


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=engine_cases())
def test_engine_matches_per_frame_decoding_on_random_codes(monkeypatch, case):
    code, setup, sigma, seed, frames = case
    assert_engine_matches_plain(code, setup, sigma, seed, frames, sorted({1, 3, frames}),
                                monkeypatch)


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=engine_cases(policy="shift_chain"))
def test_engine_matches_shift_chain_decoding_on_random_codes(monkeypatch, case):
    code, setup, sigma, seed, frames = case
    assert_engine_matches_plain(code, setup, sigma, seed, frames, sorted({1, 33, frames}),
                                monkeypatch)


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=st.sampled_from(["iid", "uniform"]).flatmap(lambda p: engine_cases(policy=p)))
def test_engine_matches_per_step_draws_on_random_codes(monkeypatch, case):
    code, setup, sigma, seed, frames = case
    assert_engine_matches_plain(code, setup, sigma, seed, frames, sorted({1, 33, frames}),
                                monkeypatch)


def test_noise_free_setups_reach_no_stepper(bench_code, monkeypatch):
    # float, eta = 0 and Q4 eta = 0 setups draw neither a per-step draw nor a shift
    # chain, over ranges of one and three frames and through run_convergence
    monkeypatch.setattr(NoiseSource, "draw", refuse)
    monkeypatch.setattr(harness, "shift_chain", refuse)
    sigma = ebn0_to_sigma(3.0, float(bench_code.rate))
    for setup in ENGINE_CASES.values():
        decode_chunk(bench_code, setup, sigma, 2.5, SEED, 0, 0, 1)
        decode_chunk(bench_code, setup, sigma, 2.5, SEED, 0, 0, 3)
    eps = run_convergence(bench_code, ENGINE_CASES, 3.0, 3, SEED)
    assert list(eps) == list(ENGINE_CASES)


def test_shift_chain_setups_reach_no_stepper(bench_code, monkeypatch):
    # float and quantized shift chains draw no per-step draw, over ranges of one
    # and three frames and through run_convergence
    monkeypatch.setattr(NoiseSource, "draw", refuse)
    sigma = ebn0_to_sigma(3.0, float(bench_code.rate))
    for setup in CHAIN_CASES.values():
        decode_chunk(bench_code, setup, sigma, 2.5, SEED, 0, 0, 1)
        decode_chunk(bench_code, setup, sigma, 2.5, SEED, 0, 0, 3)
    eps = run_convergence(bench_code, CHAIN_CASES, 3.0, 3, SEED)
    assert list(eps) == list(CHAIN_CASES)


# Min-sum, which decode_frame decodes row by row, and per-step draws.
PER_FRAME_CASES = {
    "minsum": DecoderSetup("minsum", NgdbfParams(t_max=30)),
    "mngdbf-iid": DRAW_CASES["mngdbf"],
    "mngdbf-q4-iid": DRAW_CASES["mngdbf-q4"],
    "mngdbf-uniform": DRAW_CASES["mngdbf-uniform"],
}


@pytest.mark.parametrize("name", ["sgdbf", "mgdbf", "atgdbf", "mngdbf-eta0", "mngdbf-q4-eta0",
                                  "sngdbf-chain", "mngdbf-q4-chain",
                                  "smngdbf-q4-chain-window16", *PER_FRAME_CASES])
def test_engine_campaigns_do_not_depend_on_workers(bench_code, name):
    # 64-frame stop chunks go to 2 and 3 workers as ranges of 4 and 3 frames,
    # and to one worker as a range that spans two blocks of 32 float64 rows
    cfg = CampaignConfig(bench_code, {**ALL_CASES, **PER_FRAME_CASES}[name], ebn0_db=(3.0, 4.0),
                         frames=150, master_seed=SEED, error_target=20)
    csv = {w: run_campaign(cfg, workers=w, chunk_size=64).to_csv() for w in (1, 2, 3)}
    assert csv[2] == csv[1] and csv[3] == csv[1]


def test_minsum_blocks_match_decode_minsum_on_raw_samples(bench_code, monkeypatch):
    """Min-sum frames arrive in blocks of at most 32 float64 rows; over ranges of 1, 33
    and every frame, each decodes as decode_minsum does on the frame's raw samples."""
    frames, setup = 70, PER_FRAME_CASES["minsum"]
    sigma, ones = ebn0_to_sigma(2.5, float(bench_code.rate)), np.ones(bench_code.n, np.int8)
    results = [decode_minsum(bench_code, transmit(ones, sigma, frame_rng(SEED, 0, fi, 0)),
                             setup.params.t_max) for fi in range(frames)]
    x = np.array([r.decisions for r in results])
    want = FrameStats(np.count_nonzero(x != 1, axis=1).astype(np.int32),
                      np.array([r.iterations for r in results], np.int32),
                      np.zeros(frames, np.int32))
    assert want.bit_errors.any() and len(np.unique(want.iterations)) > 2
    decided, engine = [], harness.decode_frame

    def record(*args):
        out = engine(*args)
        decided.append(out[0])
        return out

    monkeypatch.setattr(harness, "decode_frame", record)
    for size, blocks in ((1, [1] * frames), (33, [32, 1, 32, 1, 4]), (frames, [32, 32, 6])):
        decided.clear()
        parts = [decode_chunk(bench_code, setup, sigma, 2.5, SEED, 0, start,
                              min(start + size, frames)) for start in range(0, frames, size)]
        assert [len(d) for d in decided] == blocks
        assert np.array_equal(np.concatenate(decided), x)
        assert_same_stats(FrameStats(*(np.concatenate(c) for c in zip(*parts))), want)
