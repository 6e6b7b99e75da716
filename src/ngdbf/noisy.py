"""Noise-perturbed bit-flip decoding: parameters, noise policies, and the
quantized datapath with precomputed threshold-adaptation events.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .channel import QuantizerSpec
from .codes import ParityCheckCode
from .core import DecoderState
from .gdbf import BitFlipStepper, inversions

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
        if self.theta >= 0:
            raise ValueError("inversion threshold must be negative")
        if not (0.0 < self.lam <= 1.0):
            raise ValueError("adaptation parameter must lie in (0, 1]")
        if not (0.0 <= self.eta <= 1.0):
            raise ValueError("noise scale must lie in [0, 1]")
        if self.w <= 0:
            raise ValueError("syndrome weight must be positive")
        if self.t_max < 1:
            raise ValueError("iteration limit must be at least 1")
        if not (0 <= self.smoothing_window <= self.t_max):
            raise ValueError("smoothing window must lie in [0, t_max]")
        if self.noise_policy not in NOISE_POLICIES:
            raise ValueError(f"unknown noise policy {self.noise_policy!r}")

    def replace(self, **kw) -> "NgdbfParams":
        return replace(self, **kw)


class NoiseSource:
    """Per-frame perturbation generator.

    Policies:

    - ``iid``: n fresh independent Gaussian draws per iteration.
    - ``shift_chain``: a single Gaussian generator feeding a length-n shift
      register; the register is preloaded on the first draw and afterwards
      one fresh sample enters at position 0 per iteration, so
      q(t+1)[k] = q(t)[k-1] for k >= 1.
    - ``uniform``: i.i.d. uniform on [-sqrt(3)*sigma, +sqrt(3)*sigma],
      which matches the Gaussian variance.
    """

    def __init__(self, n: int, sigma: float, policy: str, rng: np.random.Generator):
        if policy not in NOISE_POLICIES:
            raise ValueError(f"unknown noise policy {policy!r}")
        if sigma < 0:
            raise ValueError("sigma must be non-negative")
        self.n = n
        self.sigma = float(sigma)
        self.policy = policy
        self.rng = rng
        self._chain: np.ndarray | None = None

    def draw(self) -> np.ndarray:
        if self.policy == "iid":
            return self.sigma * self.rng.standard_normal(self.n)
        if self.policy == "uniform":
            a = np.sqrt(3.0) * self.sigma
            return self.rng.uniform(-a, a, self.n)
        if self._chain is None:
            self._chain = self.sigma * self.rng.standard_normal(self.n)
        else:
            fresh = self.sigma * self.rng.standard_normal(1)
            self._chain = np.concatenate((fresh, self._chain[:-1]))
        return self._chain.copy()


# ---------------------------------------------------------------------------
# Quantized datapath
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AdaptationTable:
    """Precomputed threshold-adaptation events (theta_level, tau).

    The threshold active at non-flip count u is the level of the last event
    with tau <= u.  Events are strictly increasing in tau and the levels
    move strictly toward zero.
    """

    levels: tuple
    taus: tuple

    def __post_init__(self):
        if len(self.levels) != len(self.taus) or not self.levels:
            raise ValueError("events must be a non-empty list of (level, tau) pairs")
        if self.taus[0] != 0:
            raise ValueError("first adaptation event must occur at tau = 0")
        if any(b <= a for a, b in zip(self.taus, self.taus[1:])):
            raise ValueError("event counts must be strictly increasing")
        if any(b <= a for a, b in zip(self.levels, self.levels[1:])):
            raise ValueError("threshold levels must move strictly toward zero")

    def rows(self):
        return [(i, lvl, tau) for i, (lvl, tau) in enumerate(zip(self.levels, self.taus))]


@lru_cache(maxsize=128)
def build_adaptation_table(theta: float, lam: float, quantizer: QuantizerSpec,
                           t_max: int) -> AdaptationTable:
    """Scan u = 0..t_max and record every change of the quantized threshold.

    The threshold trajectory is theta * lam**u pushed through the quantizer;
    lam = 1 degenerates to the single event at u = 0.  The table is
    immutable and a pure function of the arguments, so recently used tables
    are cached and shared instead of being rebuilt for every frame.
    """
    if theta >= 0:
        raise ValueError("inversion threshold must be negative")
    if not (0.0 < lam <= 1.0):
        raise ValueError("adaptation parameter must lie in (0, 1]")
    levels = [quantizer.quantize(theta)]
    taus = [0]
    if lam < 1.0:
        for u in range(1, t_max + 1):
            v = quantizer.quantize(theta * lam ** u)
            if v != levels[-1]:
                levels.append(v)
                taus.append(u)
    return AdaptationTable(levels=tuple(levels), taus=tuple(taus))


class QuantizedAdaptiveStepper(BitFlipStepper):
    """The adaptive rule on the quantized integer datapath.

    Samples, syndrome weight, perturbation and thresholds are signed odd
    integers in units of step/2.  The threshold after u non-flips is the
    level of the last adaptation event with tau <= u, expanded once per
    stepper from the event table.  A metric exactly on the threshold does
    not flip.
    """

    def __init__(self, code: ParityCheckCode, quantizer: QuantizerSpec, y: np.ndarray,
                 params: NgdbfParams, noise: NoiseSource | None = None):
        self.quantizer = quantizer
        self.y_idx = quantizer.to_index(y)
        self.w_idx = int(quantizer.to_index(params.w))
        table = build_adaptation_table(params.theta, params.lam, quantizer, params.t_max)
        thresholds = np.repeat(quantizer.to_index(np.asarray(table.levels)),
                               np.diff((*table.taus, params.t_max + 1)))
        super().__init__(code, quantizer.from_index(self.y_idx), params.w, noise, thresholds)

    def step(self, state: DecoderState) -> None:
        q_idx = self.quantizer.to_index(self.noise.draw()) if self.noise is not None else None
        self.flip(state, inversions(self.code, state, self.y_idx, self.w_idx, q_idx))
