"""Noise-perturbed bit-flip decoding: parameters, noise policies, and the
quantized datapath.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .channel import QuantizerSpec
from .codes import ParityCheckCode
from .core import DecoderState
from .gdbf import BitFlipStepper, inversions, thresholds_by_count

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

    Later draws leave a drawn array unchanged.  The shift register is a window sliding down
    a buffer of 2n samples, moved to a new buffer when it reaches the start.
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
        self._chain: np.ndarray | None = None   # shift_chain buffer; register at _start

    def draw(self) -> np.ndarray:
        n = self.n
        if self.policy == "iid":
            q = self.rng.standard_normal(n)
            q *= self.sigma
            return q
        if self.policy == "uniform":
            a = np.sqrt(3.0) * self.sigma
            return self.rng.uniform(-a, a, n)
        if self._chain is None:
            self._chain, self._start = np.empty(2 * n), n
            self._chain[n:] = self.sigma * self.rng.standard_normal(n)
            return self._chain[n:]
        if self._start == 0:
            self._chain, self._start = np.concatenate((np.empty(n + 1), self._chain[:n - 1])), n + 1
        self._start -= 1
        self._chain[self._start] = self.sigma * self.rng.standard_normal(1)[0]
        return self._chain[self._start:self._start + n]


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

    Samples, syndrome weight ``w_idx``, perturbation and ``thresholds`` are
    signed odd integers in units of step/2.  The threshold after u non-flips
    is theta * lam**u through the quantizer.  A metric exactly on the
    threshold does not flip.
    """

    def __init__(self, code: ParityCheckCode, quantizer: QuantizerSpec, y: np.ndarray,
                 w_idx: int, thresholds: np.ndarray, noise: NoiseSource | None = None):
        self.quantizer = quantizer
        self.y_idx = quantizer.to_index(y)
        self.w_idx = w_idx
        super().__init__(code, quantizer.from_index(self.y_idx), w_idx, noise, thresholds)

    def step(self, state: DecoderState) -> None:
        q_idx = self.quantizer.to_index(self.noise.draw()) if self.noise is not None else None
        self.flip(state, inversions(self.code, state, self.y_idx, self.w_idx, q_idx))
