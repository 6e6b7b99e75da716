"""Reference forms of the flip rule that the decoders are checked against.

The package computes these quantities vectorised and per stepper; the
forms here follow the paper's definitions one symbol or one event at a
time, so a test can compare the two.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np


def inversion(x_k: float, y_k: float, adj_syndromes, w: float = 1.0, q_k: float = 0.0) -> float:
    """Scalar inversion metric for one symbol."""
    return float(x_k * y_k + w * sum(adj_syndromes) + q_k)


def threshold_for(table, u):
    """Active threshold level(s) of an adaptation table at non-flip count(s) u.

    The level of the last event with tau <= u.
    """
    event = np.searchsorted(np.asarray(table.taus), np.asarray(u), side="right") - 1
    out = np.asarray(table.levels)[event]
    return float(out) if np.isscalar(u) else out


def flip_decisions_direct(x, y_idx, q_idx, theta_idx, w_idx, syndrome_sums) -> np.ndarray:
    """delta_k = sign(E_k - theta_k) on the integer (half-step) datapath.

    All quantized quantities are signed odd integers in units of step/2.
    sign(0) is +1, so a metric exactly on the threshold does not flip.
    """
    lhs = (np.asarray(x, dtype=np.int64) * y_idx + int(w_idx) * np.asarray(syndrome_sums, dtype=np.int64)
           + q_idx - theta_idx)
    return np.where(lhs >= 0, 1, -1).astype(np.int8)


def flip_decisions_prescaled(x, y_idx, q_idx, theta_idx, w_idx, syndrome_sums) -> np.ndarray:
    """The same decision evaluated the way the hardware adder sees it.

    Channel sample, perturbation and threshold are pre-scaled by the
    reciprocal of the quantized weight so the syndrome inputs stay
    unweighted; exact rational arithmetic keeps the comparison free of
    rounding, which makes the two formulations agree everywhere, including
    on the exact-threshold boundary.
    """
    w = int(w_idx)
    x = np.asarray(x)
    y_idx = np.asarray(y_idx)
    q_idx = np.asarray(q_idx)
    theta_idx = np.asarray(theta_idx)
    s = np.asarray(syndrome_sums)
    out = np.empty(len(x), dtype=np.int8)
    for k in range(len(x)):
        scaled = (Fraction(int(x[k]) * int(y_idx[k]), w)
                  + Fraction(int(q_idx[k]), w)
                  - Fraction(int(theta_idx[k]), w)
                  + int(s[k]))
        out[k] = 1 if scaled >= 0 else -1
    return out
