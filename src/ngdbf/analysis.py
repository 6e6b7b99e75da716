"""Convergence-error statistics and local maximum-likelihood flip matrices.

Everything here is a pure function of its arguments and safe for
concurrent use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import QuantizerSpec
from .codes import ParityCheckCode
from .core import objective

# The flip matrices hold d_v + 1 syndrome sums beside up to 2**MAX_Q_BITS levels,
# and the LML masses loop over every sum and every odd subset size of d_c - 1.
MAX_DEGREE = 128

def _norm_cdf(z: float) -> float:
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def f_max(code: ParityCheckCode, codeword: np.ndarray, y: np.ndarray) -> float:
    """Global objective maximum sum(c_k y_k) + m for a transmitted codeword."""
    s = code.syndrome(codeword)
    if s.min() != 1:
        raise ValueError("reference vector is not a codeword")
    return objective(code, codeword, y, s)


def convergence_error(final_objectives, f_max_values) -> float:
    """Mean terminal objective deficit (f(x(T)) - f_max) over a frame batch."""
    finals = np.asarray(final_objectives, dtype=np.float64)
    maxes = np.asarray(f_max_values, dtype=np.float64)
    if finals.shape != maxes.shape or finals.size < 1:
        raise ValueError("objective and maximum lists must align and be non-empty")
    return float(np.mean(finals - maxes))


def pe_initial(sigma: float) -> float:
    """Probability that the hard decision on a raw sample is wrong.

    For unit-mean BPSK this is the Gaussian CDF at zero with mean +1.
    """
    if not 0 < sigma < math.inf:
        raise ValueError("sigma must be finite and positive")
    return _norm_cdf(-1.0 / sigma)


def pc_from_pe(p_e: float, d_c: int) -> float:
    """Partial-syndrome error probability from the bit error probability.

    A partial syndrome is wrong when an odd number of its d_c - 1 extrinsic
    neighbors are in error:

        p_c = sum_j C(d_c-1, 2j-1) (1-p_e)^(d_c-2j) p_e^(2j-1)

    (equal to (1 - (1-2 p_e)**(d_c-1)) / 2).
    """
    if not (0.0 <= p_e <= 1.0):
        raise ValueError("p_e must lie in [0, 1]")
    if d_c < 2:
        raise ValueError("check degree must be at least 2")
    return sum(math.comb(d_c - 1, k) * (1.0 - p_e) ** (d_c - 1 - k) * p_e ** k
               for k in range(1, d_c, 2))


def syndrome_sum_likelihoods(p_c: float, d_v: int) -> dict:
    """Conditional masses of the syndrome sum S over its d_v + 1 values.

    Returns {S: (P(S | decision correct), P(S | decision wrong))}.  With
    n_e wrong partial syndromes a correct decision sees S = d_v - 2 n_e and
    a wrong one sees S = 2 n_e - d_v, so the two conditionals mirror each
    other.  Sums with the wrong parity have probability zero and are simply
    absent from the map.
    """
    if not (0.0 <= p_c <= 1.0):
        raise ValueError("p_c must lie in [0, 1]")
    if d_v < 1:
        raise ValueError("symbol degree must be at least 1")
    pmf = [math.comb(d_v, k) * p_c ** k * (1.0 - p_c) ** (d_v - k) for k in range(d_v + 1)]
    out = {}
    for s in range(-d_v, d_v + 1, 2):
        out[s] = (pmf[(d_v - s) // 2], pmf[(d_v + s) // 2])
    return out


def bin_probability(level_index: int, mean: float, sigma: float,
                    quantizer: QuantizerSpec) -> float:
    """Mass of the quantizer bin at ascending position i under N(mean, sigma^2).

    The outermost bins integrate to +-infinity, absorbing the saturated
    tails, so the masses over all levels sum to one.
    """
    if not 0 < sigma < math.inf:
        raise ValueError("sigma must be finite and positive")
    lo, hi = quantizer.bin_bounds(level_index)
    a = (lo - mean) / (sigma * math.sqrt(2.0))
    b = (hi - mean) / (sigma * math.sqrt(2.0))
    return 0.5 * (math.erfc(a) - math.erfc(b))


@dataclass(frozen=True)
class LmlParams:
    """Inputs for the locally-ML flip decision on a regular (d_v, d_c) code."""

    sigma: float
    quantizer: QuantizerSpec
    d_v: int
    d_c: int
    p_e: float

    def __post_init__(self):
        if not 0 < self.sigma < math.inf:
            raise ValueError("sigma must be finite and positive")
        if not (2 <= self.d_c <= MAX_DEGREE and 1 <= self.d_v <= MAX_DEGREE):
            raise ValueError(f"need 2 <= d_c <= {MAX_DEGREE} and 1 <= d_v <= {MAX_DEGREE}")
        if not (0.0 < self.p_e < 1.0):
            raise ValueError("p_e must lie in (0, 1)")


@dataclass(frozen=True, eq=False)
class FlipMatrix:
    """Flip/keep decisions over (quantized channel level, syndrome sum).

    ``entries[i, j]`` is -1 (flip) or +1 (keep) for the level at ascending
    position i and the syndrome sum at ascending position j.  Rows with
    positive levels are evaluated literally for a +1 decision; rows with
    negative levels describe the mirrored situation (decision -1, all
    partial syndromes unchanged), which makes the grid point-symmetric:
    entries[i, j] == entries[N_Q-1-i, d_v-j].
    """

    entries: np.ndarray
    row_levels: np.ndarray
    col_sums: np.ndarray

    def top_half_printed(self) -> np.ndarray:
        """Positive-level rows, strongest level first, columns +d_v .. -d_v."""
        half = self.entries.shape[0] // 2
        return self.entries[half:, :][::-1, ::-1].copy()


def _assemble(top_rows: np.ndarray, quantizer: QuantizerSpec, d_v: int) -> FlipMatrix:
    """Mirror the positive-level rows into the full symmetric grid."""
    n_q = quantizer.n_levels
    entries = np.empty((n_q, d_v + 1), dtype=np.int8)
    entries[n_q // 2:, :] = top_rows
    entries[: n_q // 2, :] = top_rows[::-1, ::-1]
    return FlipMatrix(entries=entries,
                      row_levels=quantizer.levels(),
                      col_sums=np.arange(-d_v, d_v + 1, 2))


def lml_flip_matrix(params: LmlParams) -> FlipMatrix:
    """Locally maximum-likelihood flip decisions on the quantized channel.

    For a +1 decision with channel level v and syndrome sum S the decision
    compares Pr(v | +1) P(S | correct) against Pr(v | -1) P(S | wrong); a
    ratio below one flips.  A zero mass on one side resolves to the sign of
    the other side; two zero masses (unreachable cells) keep the bit.
    """
    q = params.quantizer
    half = q.n_levels // 2
    p_c = pc_from_pe(params.p_e, params.d_c)
    like = syndrome_sum_likelihoods(p_c, params.d_v)
    sums = range(-params.d_v, params.d_v + 1, 2)

    top = np.empty((half, params.d_v + 1), dtype=np.int8)
    for r, i in enumerate(range(half, q.n_levels)):
        mass_pos = bin_probability(i, +1.0, params.sigma, q)
        mass_neg = bin_probability(i, -1.0, params.sigma, q)
        for j, s in enumerate(sums):
            p_cor, p_wrong = like[s]
            num = mass_pos * p_cor
            den = mass_neg * p_wrong
            top[r, j] = 1 if num >= den else -1     # 0 >= 0 keeps unreachable cells
    return _assemble(top, q, params.d_v)


def gdbf_flip_matrix(theta: float, w: float, quantizer: QuantizerSpec,
                     d_v: int) -> FlipMatrix:
    """Flip decisions of the weighted threshold rule at zero perturbation.

    A +1 decision with level v and syndrome sum S flips iff v + w S < theta.
    """
    if not -math.inf < theta <= 0:
        raise ValueError("threshold must be finite and non-positive")
    if not 0 < w < math.inf:
        raise ValueError("syndrome weight must be finite and positive")
    if not 1 <= d_v <= MAX_DEGREE:
        raise ValueError(f"symbol degree d_v must lie in 1..{MAX_DEGREE}")
    q = quantizer
    half = q.n_levels // 2
    pos_levels = q.levels()[half:]
    sums = np.arange(-d_v, d_v + 1, 2)
    metric = pos_levels[:, None] + w * sums[None, :]
    top = np.where(metric < theta, -1, 1).astype(np.int8)
    return _assemble(top, q, d_v)


def format_flip_matrix(fm: FlipMatrix) -> str:
    """Human-readable grid, strongest positive level on top."""
    lines = ["level    " + " ".join(f"S={s:+d}" for s in fm.col_sums[::-1])]
    for lvl, row in zip(fm.row_levels[::-1], fm.entries[::-1, ::-1]):
        cells = " ".join(f"{v:+d}  " for v in row)
        lines.append(f"{lvl:+.4f}  {cells}")
    return "\n".join(lines)
