"""BPSK/AWGN channel model, SNR conversions, saturation and quantization."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np


def ebn0_to_sigma(ebn0_db: float, rate) -> float:
    """Noise standard deviation for unit-energy BPSK at a given Eb/N0.

    With symbol energy 1 and code rate R, Eb = 1/R and sigma^2 = N0/2, so
    sigma = (2 * R * 10**(ebn0_db/10))**-0.5.
    """
    rate = float(rate)
    if not (0.0 < rate < 1.0):
        raise ValueError(f"code rate must lie in (0, 1), got {rate}")
    try:
        sigma = (2.0 * rate * 10.0 ** (ebn0_db / 10.0)) ** -0.5
    except (OverflowError, ZeroDivisionError):     # 10**(ebn0_db/10) over- or underflows
        sigma = math.nan
    if not 0 < sigma < math.inf:    # as for a NaN or infinite Eb/N0
        raise ValueError(f"Eb/N0 = {ebn0_db} dB gives no finite positive noise sigma")
    return sigma


def sigma_to_ebn0(sigma: float, rate) -> float:
    """Inverse of :func:`ebn0_to_sigma`."""
    rate = float(rate)
    if not (0.0 < rate < 1.0):
        raise ValueError(f"code rate must lie in (0, 1), got {rate}")
    if not 0 < sigma < math.inf:
        raise ValueError("sigma must be finite and positive")
    return -10.0 * math.log10(2.0 * rate) - 20.0 * math.log10(sigma)   # sigma**2 can under/overflow


def transmit(codeword: np.ndarray, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """AWGN channel: y = c + z with z i.i.d. N(0, sigma^2).

    Deterministic for a given generator state; numpy's PCG64/ziggurat
    sampler is the named algorithm, the contract is distributional.
    """
    if not 0 < sigma < math.inf:
        raise ValueError("sigma must be finite and positive")
    c = np.asarray(codeword, dtype=np.float64)
    return c + sigma * rng.standard_normal(c.shape[0])


def saturate(y: np.ndarray, y_max: float, out: np.ndarray | None = None) -> np.ndarray:
    """Clip samples to [-y_max, +y_max] (applied on every decoder input path), into
    ``out`` if it is given (``out=y`` clips in place)."""
    if not 0 < y_max < math.inf:
        raise ValueError("y_max must be finite and positive")
    return np.clip(y, -y_max, y_max, out=out)


MAX_Q_BITS = 16     # the analysis tools build tables over all 2**q_bits levels


@dataclass(frozen=True)
class QuantizerSpec:
    """Uniform symmetric quantizer with 2**q_bits levels on [-y_max, y_max].

    Levels are the odd multiples of half the step size, so zero is excluded
    and the set is symmetric: +-(i + 1/2) * step for i = 0 .. n_levels/2 - 1.
    Inputs at or beyond +-y_max land on the outermost level, which folds the
    saturation stage into the quantizer.
    """

    q_bits: int
    y_max: float

    def __post_init__(self):
        if not 1 <= self.q_bits <= MAX_Q_BITS:
            raise ValueError(f"q_bits must lie in 1..{MAX_Q_BITS}, not {self.q_bits}")
        if not 0 < self.y_max < math.inf:
            raise ValueError("y_max must be finite and positive")

    @property
    def n_levels(self) -> int:
        return 1 << self.q_bits

    @property
    def step(self) -> float:
        return 2.0 * self.y_max / self.n_levels

    @cached_property
    def _levels(self) -> np.ndarray:
        half = self.n_levels // 2
        idx = 2 * (np.arange(self.n_levels) - half) + 1  # odd integers, ascending
        return idx * (self.step / 2.0)

    def levels(self) -> np.ndarray:
        """All representable levels in ascending order."""
        return self._levels.copy()

    def to_index(self, y) -> np.ndarray:
        """Map samples to signed odd integers (units of step/2).

        The magnitude bin is floor(|y| / step) clamped to the top bin, the
        level value is index * step / 2.  sign(+-0.0) is taken as +1.  Huge
        and infinite inputs land on the outermost level: |y| is clamped to
        y_max, whose bin is already past the top, so the divide cannot overflow.
        """
        y = np.asarray(y, dtype=np.float64)
        idx = np.abs(y, out=np.empty(y.shape))     # an array if y is 0-d
        np.minimum(idx, self.y_max, out=idx)
        np.divide(idx, self.step, out=idx)
        np.floor(idx, out=idx)
        np.minimum(idx, self.n_levels // 2 - 1, out=idx)     # before the cast to int64
        np.copysign(2.0 * idx + 1.0, y + 0.0, out=idx)      # -0.0 + 0.0 is +0.0
        return idx.astype(np.int64)

    def from_index(self, idx) -> np.ndarray:
        return np.asarray(idx, dtype=np.float64) * (self.step / 2.0)

    def quantize(self, y):
        """Quantize samples to representable levels (scalar or array)."""
        out = self.from_index(self.to_index(y))
        if np.isscalar(y) or getattr(y, "ndim", 1) == 0:
            return float(out)
        return out

    def bin_bounds(self, level_index: int) -> tuple:
        """Input interval mapped to the level at ascending position i.

        The outermost bins absorb the saturated tails, so they extend to
        -inf / +inf.
        """
        half = self.n_levels // 2
        if not 0 <= level_index < self.n_levels:
            raise ValueError(f"level index {level_index} outside 0..{self.n_levels - 1}")
        if level_index >= half:
            j = level_index - half
            lo = j * self.step
            hi = math.inf if j == half - 1 else (j + 1) * self.step
        else:
            j = half - 1 - level_index
            hi = -j * self.step
            lo = -math.inf if j == half - 1 else -(j + 1) * self.step
        return lo, hi
