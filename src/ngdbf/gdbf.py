"""Gradient-descent bit-flip steppers: single-bit, multi-bit, adaptive.

The inversion metric for symbol k is

    E_k = x_k y_k + w * sum_{i in M(k)} s_i + q_k

with weight w = 1 and q = 0 for the deterministic baselines.  Low E_k marks
a flip candidate; flipping bit k changes the objective by exactly -2 E_k
(for w = 1, q = 0), which is what makes the loop a coordinate ascent.

All E_k within one iteration are computed from a snapshot of the syndromes
taken at iteration start, so multi-bit flips carry parallel semantics: the
flip set is exactly {k : E_k < threshold} of the pre-step state.
"""

from __future__ import annotations

import numpy as np

from .codes import ParityCheckCode
from .core import DecoderState, Stepper, objective


def inversions(code: ParityCheckCode, state: DecoderState, y: np.ndarray,
               w: float = 1.0, q: np.ndarray | None = None) -> np.ndarray:
    """Vector of E_k over all symbols from the current syndrome snapshot."""
    e = state.x * y + w * code.syndrome_sums(state.s)
    if q is not None:
        e = e + q
    return e


def flip_single(code: ParityCheckCode, state: DecoderState, e: np.ndarray) -> int:
    """Flip the global argmin of E (ties break to the lowest index)."""
    k = int(np.argmin(e))
    state.x[k] = -state.x[k]
    state.s[code.col_neighbors[k]] *= -1
    return k


def flip_where(code: ParityCheckCode, state: DecoderState, mask: np.ndarray) -> None:
    """Flip every masked bit simultaneously, then refresh the syndromes.

    A no-op mask still counts as an iteration; the caller's loop advances t
    regardless, so a stalled threshold rule terminates at the budget.
    """
    if mask.any():
        state.x[mask] = -state.x[mask]
        state.s = code.syndrome(state.x)


class MetricStepper(Stepper):
    """Shared part of the float steppers: samples, syndrome weight, noise."""

    def __init__(self, code: ParityCheckCode, y: np.ndarray,
                 w: float = 1.0, noise=None):
        self.code = code
        self.y = np.asarray(y, dtype=np.float64)
        self.w = float(w)
        self.noise = noise

    def metrics(self, state: DecoderState) -> np.ndarray:
        """E_k of every symbol, perturbed by one fresh draw when noise is on."""
        q = self.noise.draw() if self.noise is not None else None
        return inversions(self.code, state, self.y, self.w, q)


class SingleFlipStepper(MetricStepper):
    """One flip per iteration at the minimum inversion metric."""

    def step(self, state: DecoderState) -> None:
        flip_single(self.code, state, self.metrics(state))


class MultiFlipStepper(MetricStepper):
    """Threshold-triggered parallel flips with optional mode switching.

    While the mode flag ``mu`` is 1 every bit with E_k < theta flips in
    parallel; with mode switching enabled, any iteration that decreases the
    objective drops the flag to 0 permanently and the stepper degrades to
    single-bit flips from then on.
    """

    def __init__(self, code: ParityCheckCode, y: np.ndarray, theta: float,
                 w: float = 1.0, noise=None, mode_switching: bool = True):
        super().__init__(code, y, w, noise)
        self.theta = float(theta)
        self.mode_switching = mode_switching
        self.mu = 1
        self.prev_objective = None

    def start(self, state: DecoderState) -> None:
        self.prev_objective = objective(self.code, state.x, self.y, state.s)

    def step(self, state: DecoderState) -> None:
        e = self.metrics(state)
        if self.mu == 1:
            flip_where(self.code, state, e < self.theta)
        else:
            flip_single(self.code, state, e)
        if self.mode_switching:
            f = objective(self.code, state.x, self.y, state.s)
            if f < self.prev_objective:
                self.mu = 0
            self.prev_objective = f


class AdaptiveThresholdStepper(MetricStepper):
    """Per-symbol thresholds that decay toward zero on non-flip iterations.

    Each symbol keeps a non-flip counter u_k, and its threshold is the
    precomputed threshold after u_k non-flips: E_k below it flips the bit
    (counter kept), otherwise the counter advances.  On the float path the
    threshold after u non-flips is theta multiplied by lam u times in turn,
    for u = 0..t_max; lam = 1 reproduces the fixed-threshold multi-bit rule
    with the mode flag pinned to 1.
    """

    def __init__(self, code: ParityCheckCode, y: np.ndarray, theta: float,
                 lam: float = 1.0, w: float = 1.0, noise=None, *, t_max: int):
        if not (0.0 < lam <= 1.0):
            raise ValueError("adaptation parameter must lie in (0, 1]")
        super().__init__(code, y, w, noise)
        self.thresholds = self.threshold_by_count(float(theta), float(lam), t_max)
        self.u = np.zeros(code.n, dtype=np.int64)

    def threshold_by_count(self, theta: float, lam: float, t_max: int) -> np.ndarray:
        """theta, theta*lam, theta*lam*lam, ... for u = 0..t_max non-flips."""
        return np.cumprod(np.concatenate(([theta], np.full(t_max, lam))))

    def step(self, state: DecoderState) -> None:
        self.flip_below_threshold(state, self.metrics(state))

    def flip_below_threshold(self, state: DecoderState, e: np.ndarray) -> None:
        """The adaptive rule: flip where E_k is below its threshold, count the rest."""
        mask = e < self.thresholds[self.u]
        flip_where(self.code, state, mask)
        self.u[~mask] += 1
