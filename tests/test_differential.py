"""Every bit-flip variant steps exactly as the plain reference rule does.

Each variant is built through ``harness.build_stepper``, as a campaign
builds it, and stepped in lockstep with ``PlainBitFlip`` on the same
saturated samples and an identically seeded perturbation stream; decisions
and syndromes must agree after every step.
"""

import numpy as np
import pytest

from ngdbf.channel import QuantizerSpec, ebn0_to_sigma, saturate, transmit
from ngdbf.core import init_state
from ngdbf.harness import VARIANTS, DecoderSetup, build_stepper, frame_rng
from ngdbf.noisy import NgdbfParams, NoiseSource

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
                  dict(w=0.75, theta=-0.7, lam=0.99, quantizer=QuantizerSpec(4, 1.75),
                       t_max=100)),
}


@pytest.mark.parametrize("name", CASES)
def test_stepper_matches_plain_rule_at_every_step(bench_code, name):
    setup, rule = CASES[name]
    params = setup.params
    sigma = ebn0_to_sigma(3.0, float(bench_code.rate))
    ones = np.ones(bench_code.n, dtype=np.int8)
    steps = 0
    for fi in range(FRAMES):
        y = saturate(transmit(ones, sigma, frame_rng(SEED, 0, fi, 0)), 2.5)
        noise = twin = None
        if VARIANTS[setup.variant].stochastic:
            noise, twin = (NoiseSource(bench_code.n, params.eta * sigma, params.noise_policy,
                                       frame_rng(SEED, 0, fi, 1)) for _ in range(2))
        stepper = build_stepper(bench_code, setup, y, noise)
        plain = PlainBitFlip(bench_code, y, noise=twin, **rule)
        state = init_state(bench_code, stepper.y)
        assert np.array_equal(state.x, plain.x)
        stepper.start(state)
        for t in range(params.t_max):
            if state.s.min() == 1:
                break
            stepper.step(state)
            plain.step()
            steps += 1
            assert np.array_equal(state.x, plain.x), f"frame {fi}, step {t}: decisions differ"
            assert np.array_equal(state.s, plain.s), f"frame {fi}, step {t}: syndromes differ"
    assert steps >= 2 * FRAMES
