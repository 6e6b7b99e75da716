"""The gradient-descent bit-flip rule shared by every GDBF/NGDBF variant.

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
    e = state.x * y
    e += w * code.syndrome_sums(state.s)
    if q is not None:
        e += q
    return e


def thresholds_by_count(theta: float, lam: float, t_max: int) -> np.ndarray:
    """theta, theta*lam, theta*lam*lam, ... for u = 0..t_max non-flips.

    lam = 1 gives the fixed threshold theta at every count.
    """
    if not (0.0 < lam <= 1.0):
        raise ValueError("adaptation parameter must lie in (0, 1]")
    if t_max < 1:
        raise ValueError("iteration limit must be at least 1")
    return np.cumprod(np.concatenate(([float(theta)], np.full(t_max, float(lam)))))


class BitFlipStepper(Stepper):
    """One iteration of the bit-flip rule, set by its thresholds and mode flag.

    While the mode flag ``mu`` is 1, every symbol whose E_k lies below
    ``thresholds[u_k]`` flips in parallel, and every other symbol's
    non-flip counter u_k advances.  While ``mu`` is 0, the symbol at the
    minimum E_k flips alone.  ``mu`` starts at 1 when thresholds are given
    and at 0 otherwise; with mode switching, the first iteration that lowers
    the objective drops it to 0 for good.  A ``noise`` source perturbs the
    metrics with one fresh draw per iteration.
    """

    def __init__(self, code: ParityCheckCode, y: np.ndarray, w: float = 1.0, noise=None,
                 thresholds: np.ndarray | None = None, mode_switching: bool = False):
        self.code = code
        self.y = np.asarray(y, dtype=np.float64)
        self.w = float(w)
        self.noise = noise
        self.thresholds = thresholds
        self.mode_switching = mode_switching
        self.mu = int(thresholds is not None)
        self.u = np.zeros(code.n, dtype=np.int64)

    def start(self, state: DecoderState) -> None:
        if self.mode_switching:
            self.prev_objective = objective(self.code, state.x, self.y, state.s)

    def step(self, state: DecoderState) -> None:
        q = self.noise.draw() if self.noise is not None else None
        self.flip(state, inversions(self.code, state, self.y, self.w, q))

    def flip(self, state: DecoderState, e: np.ndarray) -> None:
        """Apply the rule to this iteration's metrics ``e``."""
        if not self.mu:     # the argmin flips; ties break to the lowest index
            k = int(e.argmin())
            checks = self.code.col_neighbors[k]
            state.x[k] = -state.x[k]
            state.s[checks] = -state.s[checks]
            return
        mask = e < self.thresholds[self.u]
        if np.count_nonzero(mask):      # a no-op mask still counts as an iteration
            np.negative(state.x, out=state.x, where=mask)
            state.s = self.code.syndrome(state.x)
        self.u += ~mask
        if self.mode_switching:
            f = objective(self.code, state.x, self.y, state.s)
            if f < self.prev_objective:
                self.mu = 0
            self.prev_objective = f
