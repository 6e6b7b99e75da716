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

from .codes import ParityCheckCode, bipolar_sign
from .core import smoothed_decision

# Well above the paper's 300: each setup holds a vector of t_max + 1 thresholds,
# and each shift-chain frame a chain of n + t_max perturbation samples.
MAX_ITERATIONS = 100_000


def thresholds_by_count(theta: float, lam: float, t_max: int) -> np.ndarray:
    """theta, theta*lam, theta*lam*lam, ... for u = 0..t_max non-flips.

    lam = 1 gives the fixed threshold theta at every count.
    """
    if not (0.0 < lam <= 1.0):
        raise ValueError("adaptation parameter must lie in (0, 1]")
    if not 1 <= t_max <= MAX_ITERATIONS:
        raise ValueError(f"iteration limit must lie in 1..{MAX_ITERATIONS}")
    return np.cumprod(np.concatenate(([float(theta)], np.full(t_max, float(lam)))))


def decode_batch(code: ParityCheckCode, y: np.ndarray, t_max: int, w=1.0,
                 thresholds: np.ndarray | None = None, mode_switching: bool = False,
                 smoothing_window: int = 0, chains: np.ndarray | None = None,
                 noise=None) -> tuple:
    """Decode one frame per row of ``y``, starting from the signs of its samples.

    Each step forms E = x*y + w*sums + q from the syndromes at step start.  Without
    ``thresholds`` the argmin of E flips (ties to the lowest index); with them every
    E_k below thresholds[u_k] flips, u_k being symbol k's non-flip count, and with
    ``mode_switching`` a step that lowers a frame's sum(x*y) + sum(s), summed from
    its own rows, ends multi-flips for good.  A frame stops before any step once
    every check holds, or after ``t_max`` steps; one that stops unsatisfied after
    entering the last ``smoothing_window`` steps decides the sign of its decisions
    summed over them (ties keep the current bit).

    ``y`` holds the samples the rule compares: saturated floats, or quantizer
    indices with an integer ``w`` and integer ``thresholds``.  The perturbation q,
    in the units of ``y``, is 0, or a shift chain: step t adds w[t_max-t : t_max-t+n]
    of the frame's row w of ``chains`` (:func:`noisy.shift_chain`), or a per-step
    draw: ``noise.draw(cols, live)`` (:class:`noisy.NoiseSource`) returns a block
    whose row k is the next draw of the frame in row ``cols[k]`` of ``y`` wherever
    ``live[k]``, so a frame draws once for each step it takes.  Decisions and
    syndromes are (n+1, B) and (m+1, B) int8, one column a frame, so that one
    gather per slot table serves the batch; their last rows are the dummy
    symbol (+1) and dummy check (0) that pad the tables.  Metrics, x*y and flip
    counts are (B, n), one row a frame.  Every running frame has taken the same
    t steps, so a symbol's non-flip count is t minus its flips.  A frame is recorded
    at the step it stops; its dead column steps on unread until dead columns are a
    quarter of the width, when every array drops them at once.  Returns the
    final decisions, an int8 row a frame, and int32 arrays of iterations and
    the smoothing-engaged flag, one entry a frame.
    """
    if t_max < 1 or not 0 <= smoothing_window <= t_max:
        raise ValueError("need t_max >= 1 and a smoothing window in [0, t_max]")
    if np.ndim(y) != 2 or np.shape(y)[1] != code.n:
        raise ValueError(f"sample rows have length {np.shape(y)[-1]}, code needs {code.n}")
    n, m, frames = code.n, code.m, len(y)
    cols, live = np.arange(frames), np.ones(frames, dtype=bool)    # rows of y; unrecorded
    X = np.ones((n + 1, frames), dtype=np.int8)
    X[:n] = bipolar_sign(y.T)
    xy = np.multiply(X[:n].T, y, order="C")     # x*y, negated with each flip
    S = np.zeros((m + 1, frames), dtype=np.int8)
    S[:m] = np.take(X, code.row_slots, axis=0).prod(axis=0, dtype=np.int8)
    flips = np.zeros((frames, n), dtype=np.min_scalar_type(t_max))
    mu = np.full(frames, thresholds is not None)        # mode flags
    top = None if thresholds is None else thresholds.max()      # no metric at or above it flips
    if mode_switching:      # each frame's objective sum(x*y) + sum(s)
        prev = xy.sum(axis=1) + S[:m].sum(axis=0, dtype=np.int64)
    smooth = np.zeros((n, frames), dtype=np.int32) if smoothing_window else None
    decisions = np.empty((frames, n), dtype=np.int8)
    out = np.zeros((2, frames), dtype=np.int32)
    sum_type = np.min_scalar_type(-len(code.col_slots) - 1)    # holds +-max_dv
    t = 0
    while cols.size:
        ok = S[:m].min(axis=0) == 1
        done = (ok | (t == t_max)) & live
        if done.any():
            engaged = bool(smoothing_window) and t > t_max - smoothing_window
            x = X[:n, done]
            if engaged:
                x = np.where(ok[done], x, smoothed_decision(smooth[:, done], x))
            decisions[cols[done]] = x.T
            out[:, cols[done]] = [[t], [engaged]]
            live &= ~done
            if not live.any():
                break
            if 4 * np.count_nonzero(~live) >= live.size:   # a quarter dead: drop them
                keep = live     # the arrays stay C-contiguous, for ravel() views
                cols, mu, xy, flips, live = cols[keep], mu[keep], xy[keep], flips[keep], live[keep]
                X, S = np.compress(keep, X, axis=1), np.compress(keep, S, axis=1)
                if mode_switching:
                    prev = prev[keep]
                if chains is not None:
                    chains = chains[keep]
                if smoothing_window:
                    smooth = np.compress(keep, smooth, axis=1)
        # E = x*y + w*sums + q from the syndromes at step start; the sums are
        # cast to the metric's type before w multiplies them
        sums = np.take(S, code.col_slots, axis=0).sum(axis=0, dtype=sum_type)
        e = np.multiply(sums.T, w, dtype=xy.dtype, order="C")     # e.ravel() is a view
        e += xy
        if chains is not None:
            e += chains[:, t_max - t:t_max - t + n]
        if noise is not None:
            e += noise.draw(cols, live)
        multi, single = mu.any(), not mu.all()
        if single:      # the argmin flips; ties break to the lowest index
            js = np.flatnonzero(~mu)
            ks = (e[js] if multi else e).argmin(axis=1)
        flipped = False
        if multi:       # every symbol below its own threshold flips
            cand = np.flatnonzero(e < top)
            if single:
                cand = cand[mu[cand // n]]
            cand = cand[e.ravel()[cand] < thresholds[t - flips.ravel()[cand]]]
            flipped = cand.size > 0
            xy.ravel()[cand] *= -1
            flips.ravel()[cand] += 1
            jc, kc = np.divmod(cand, n)
            X[kc, jc] *= -1
        if single:
            X[ks, js] *= -1
            xy[js, ks] *= -1
        if flipped:
            S[:m] = np.take(X, code.row_slots, axis=0).prod(axis=0, dtype=np.int8)
        elif single:
            checks = code.col_slots[:, ks]
            S[checks, js] *= -1
        if mode_switching and multi:    # a step that lowers the objective ends multi-flips
            f = xy.sum(axis=1) + S[:m].sum(axis=0, dtype=np.int64)
            mu, prev = mu & ~(f < prev), f
        t += 1
        if smoothing_window and t > t_max - smoothing_window:
            smooth += X[:n]
    return decisions, out[0], out[1]
