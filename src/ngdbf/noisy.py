"""Noise-perturbed bit-flip decoding: parameters, noise policies, and the
quantized datapath.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .channel import QuantizerSpec
from .gdbf import MAX_ITERATIONS, BitFlipStepper, thresholds_by_count

NOISE_POLICIES = ("iid", "shift_chain", "uniform")


@dataclass(frozen=True)
class NgdbfParams:
    """Knobs for the noisy decoders.

    ``eta`` scales the perturbation standard deviation relative to the
    channel noise (std = eta * channel sigma); eta = 0 is the degenerate
    noiseless setting used for equivalence checks.  ``lam`` = 1 disables
    threshold adaptation.  A positive ``smoothing_window`` turns on output
    smoothing over that many final iterations.
    """

    theta: float = -0.9
    lam: float = 1.0
    eta: float = 1.0
    w: float = 0.75
    t_max: int = 100
    smoothing_window: int = 0
    noise_policy: str = "iid"

    def __post_init__(self):
        if not -np.inf < self.theta < 0:
            raise ValueError("inversion threshold must be finite and negative")
        if not (0.0 < self.lam <= 1.0):
            raise ValueError("adaptation parameter must lie in (0, 1]")
        if not (0.0 <= self.eta <= 1.0):
            raise ValueError("noise scale must lie in [0, 1]")
        if not 0 < self.w < np.inf:
            raise ValueError("syndrome weight must be finite and positive")
        if not 1 <= self.t_max <= MAX_ITERATIONS:
            raise ValueError(f"iteration limit must lie in 1..{MAX_ITERATIONS}")
        if not (0 <= self.smoothing_window <= self.t_max):
            raise ValueError("smoothing window must lie in [0, t_max]")
        if self.noise_policy not in NOISE_POLICIES:
            raise ValueError(f"unknown noise policy {self.noise_policy!r}")

    def replace(self, **kw) -> "NgdbfParams":
        return replace(self, **kw)


def shift_chain(n: int, sigma: float, rng: np.random.Generator, t_max: int,
                quantizer: QuantizerSpec | None = None) -> np.ndarray:
    """One frame's ``shift_chain`` perturbation: a single Gaussian generator feeding a
    length-n register, n samples at t = 0 and one fresh sample at position 0 each
    later iteration, so q(t+1)[k] = q(t)[k-1] for k >= 1.  One draw z of n + t_max
    samples is laid out as w = z[n:][::-1] then z[:n]: iteration t's register is
    the view w[t_max-t : t_max-t+n], t = 0..t_max; with a ``quantizer``, w comes as
    its ``to_index``."""
    if not 1 <= t_max <= MAX_ITERATIONS:
        raise ValueError(f"iteration limit must lie in 1..{MAX_ITERATIONS}")
    if not 0 <= sigma < np.inf:
        raise ValueError("sigma must be finite and non-negative")
    z = sigma * rng.standard_normal(n + t_max)
    w = np.concatenate((z[n:][::-1], z[:n]))
    return w if quantizer is None else quantizer.to_index(w)


class NoiseSource:
    """Per-frame perturbation generator, one fresh draw per iteration: ``iid``,
    n independent Gaussian draws, or ``uniform``, i.i.d. uniform on
    [-sqrt(3)*sigma, +sqrt(3)*sigma], which matches the Gaussian variance.

    With a ``quantizer``, each draw comes as its ``to_index``.  A shift chain
    is drawn whole, by :func:`shift_chain`.
    """

    def __init__(self, n: int, sigma: float, policy: str, rng: np.random.Generator, *,
                 quantizer: QuantizerSpec | None = None):
        if policy not in ("iid", "uniform"):
            raise ValueError(f"{policy!r} is not a per-iteration noise policy (iid, uniform)")
        if not 0 <= sigma < np.inf:
            raise ValueError("sigma must be finite and non-negative")
        self.n = n
        self.sigma = float(sigma)
        self.policy = policy
        self.rng = rng
        self.quantizer = quantizer

    def draw(self) -> np.ndarray:
        if self.policy == "iid":
            q = self.rng.standard_normal(self.n)
            q *= self.sigma
        else:
            a = np.sqrt(3.0) * self.sigma
            q = self.rng.uniform(-a, a, self.n)
        return q if self.quantizer is None else self.quantizer.to_index(q)


# ---------------------------------------------------------------------------
# Quantized datapath
# ---------------------------------------------------------------------------


def adaptation_events(theta: float, lam: float, quantizer: QuantizerSpec,
                      t_max: int) -> list:
    """(i, theta_level, tau) rows at each count tau where the quantized threshold changes.

    The quantized threshold after u non-flips is theta * lam**u through the
    quantizer, as the quantized stepper uses it; the first row is at tau = 0
    and lam = 1 gives that row alone.
    """
    if not -np.inf < theta < 0:
        raise ValueError("inversion threshold must be finite and negative")
    idx = quantizer.to_index(thresholds_by_count(theta, lam, t_max))
    taus = np.flatnonzero(np.diff(idx, prepend=0))     # levels are odd, so row 0 is kept
    return [(i, float(quantizer.from_index(idx[tau])), int(tau)) for i, tau in enumerate(taus)]


class QuantizedAdaptiveStepper(BitFlipStepper):
    """The adaptive rule on the quantized integer datapath.

    Samples ``y``, syndrome weight ``w``, perturbation (from a ``noise`` source
    given the same quantizer) and ``thresholds`` are signed odd integers in
    units of step/2, as ``harness.DecoderSetup`` gives them.  The threshold
    after u non-flips is theta * lam**u through the quantizer.  A metric
    exactly on the threshold does not flip.
    """

    # its own step, which perfbench's noisy.quantized_step span wraps (tests/test_bench_hooks.py)
    step = BitFlipStepper.step
