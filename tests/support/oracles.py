"""Reference forms of the flip rule, and of alist parsing, that the package
is checked against.

The package computes these quantities vectorised, per frame or per frame
batch; the forms here follow the paper's definitions one symbol or one
event at a time, so a test can compare the two.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from ngdbf.codes import AlistError


def inversion(x_k: float, y_k: float, adj_syndromes, w: float = 1.0, q_k: float = 0.0) -> float:
    """Scalar inversion metric for one symbol."""
    return float(x_k * y_k + w * sum(adj_syndromes) + q_k)


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


class ShiftRegister:
    """The paper's shift-chain perturbation, one iteration at a time.

    A single Gaussian generator feeds a length-n register: the first draw
    fills it with n samples ``sigma * standard_normal(n)``; each later draw
    shifts it one place, dropping the last sample, and puts one fresh
    ``sigma * standard_normal(1)`` at position 0.
    """

    def __init__(self, n, sigma, rng):
        self.n, self.sigma, self.rng, self.q = n, sigma, rng, None

    def draw(self) -> np.ndarray:
        if self.q is None:
            self.q = self.sigma * self.rng.standard_normal(self.n)
        else:
            self.q = np.concatenate((self.sigma * self.rng.standard_normal(1), self.q[:-1]))
        return self.q


class IidDraws:
    """The paper's per-iteration perturbation: every draw is n fresh samples,
    ``sigma * standard_normal(n)`` for ``iid``, or ``uniform(-a, a, n)`` with
    a = sqrt(3) * sigma, the Gaussian's variance, for ``uniform``.  Draws come
    as floats; :class:`PlainBitFlip` quantizes them.
    """

    def __init__(self, n, sigma, policy, rng):
        self.n, self.sigma, self.policy, self.rng = n, sigma, policy, rng

    def draw(self) -> np.ndarray:
        if self.policy == "iid":
            return self.sigma * self.rng.standard_normal(self.n)
        a = np.sqrt(3.0) * self.sigma
        return self.rng.uniform(-a, a, self.n)


class PlainBitFlip:
    """Reference GDBF/NGDBF decoder for one frame, written from the paper's rules.

    It reads the Tanner graph from ``code.col_neighbors`` alone, as one
    (symbol, check) pair per edge, and uses neither the package's bit-flip
    rule nor its syndrome routines.  Each iteration draws ``noise`` once and forms

        E_k = x_k y_k + w * sum_{i in M(k)} s_i + q_k

    by summing the syndromes over the edges of symbol k; after the flips it
    recomputes every syndrome s_i as the parity of the -1 decisions on
    check i.

    - No ``theta``: the symbol at the minimum E_k flips (ties to the lowest k).
    - ``theta``: every symbol with E_k below its own threshold flips at once;
      a symbol that does not flip multiplies its threshold by ``lam``
      (lam = 1 is the fixed-threshold rule).  With ``mode_switching``, the
      first iteration that lowers the objective sum_k x_k y_k + sum_i s_i
      switches to minimum-E_k flips for good.
    - ``quantizer``: samples, weight, perturbation and each symbol's running
      threshold are compared as signed integers in half-step units.
    """

    def __init__(self, code, y, w=1.0, noise=None, theta=None, lam=1.0,
                 mode_switching=False, quantizer=None):
        self.edge_sym = np.concatenate([np.full(len(col), k)
                                        for k, col in enumerate(code.col_neighbors)])
        self.edge_chk = np.concatenate(code.col_neighbors)
        self.m, self.noise, self.quantizer, self.lam = code.m, noise, quantizer, lam
        self.y, self.w = np.asarray(y, dtype=np.float64), w
        if quantizer is not None:
            self.y, self.w = quantizer.to_index(y), int(quantizer.to_index(w))
        self.x = np.where(self.y >= 0, 1, -1)
        self.multi = theta is not None
        self.theta = np.full(code.n, theta if self.multi else 0.0)     # float thresholds
        self.mode_switching = mode_switching
        self.s = self.syndromes()
        self.f = self.objective()

    def syndromes(self) -> np.ndarray:
        negative = np.bincount(self.edge_chk, weights=self.x[self.edge_sym] < 0,
                               minlength=self.m)
        return np.where(negative % 2 == 0, 1, -1)

    def objective(self) -> float:
        return float(self.x @ self.y + self.s.sum())

    def step(self) -> None:
        q = 0 if self.noise is None else self.noise.draw()
        if self.quantizer is not None and self.noise is not None:
            q = self.quantizer.to_index(q)
        e = self.x * self.y + self.w * np.bincount(self.edge_sym, weights=self.s[self.edge_chk]) + q
        if not self.multi:
            k = int(np.argmin(e))
            self.x[k] = -self.x[k]
        else:
            theta = self.theta if self.quantizer is None else self.quantizer.to_index(self.theta)
            flip = e < theta
            self.x[flip] *= -1
            self.theta = np.where(flip, self.theta, self.theta * self.lam)
        self.s = self.syndromes()
        if self.multi and self.mode_switching:
            f = self.objective()
            self.multi = f >= self.f
            self.f = f


def plain_decode(code, y, t_max, smoothing_window=0, **rule) -> tuple:
    """Decode one frame with :class:`PlainBitFlip` under the stop rule and smoothing.

    ``rule`` holds :class:`PlainBitFlip`'s arguments.  Decoding stops before a
    step once every check is satisfied, or after ``t_max`` steps.  A step that
    leaves t > t_max - ``smoothing_window`` adds the decisions to a
    per-symbol accumulator, and the frame counts as engaged; a frame that ends
    with a check unsatisfied then decides the sign of its accumulator, where a
    tie keeps the current bit.  Returns (decisions, iterations, engaged).
    """
    plain = PlainBitFlip(code, y, **rule)
    votes, t, engaged = np.zeros(code.n, dtype=np.int64), 0, False
    while t < t_max and plain.s.min() < 1:
        plain.step()
        t += 1
        if t > t_max - smoothing_window:
            votes += plain.x
            engaged = True
    x = plain.x
    if engaged and plain.s.min() < 1:
        x = np.where(votes > 0, 1, np.where(votes < 0, -1, x))
    return x.astype(np.int8), t, engaged


class PlainMinSum:
    """Reference flooding min-sum for one frame, written one edge at a time.

    It reads the Tanner graph from ``code.row_neighbors`` and
    ``code.col_neighbors`` alone and keeps one message per (check, symbol)
    edge in a dict.  Each pass sends check i to symbol k the sign product
    times the minimum magnitude of the messages from N(i) \\ {k} (sign(0) is
    +1); then symbol k sums y_k and the messages from M(k), and sends each
    check that sum less the check's own message.  The sum is taken in one
    fixed order: the messages from every check of M(k) but the lowest-index
    one are added in ascending check order, the lowest-index check's
    message is added last, and y_k after that.  Decisions are the signs of
    the sums, and decoding stops before any pass whose decisions satisfy
    every check.
    """

    def __init__(self, code, y):
        self.rows = [[int(k) for k in row] for row in code.row_neighbors]
        self.cols = [sorted(int(i) for i in col) for col in code.col_neighbors]
        self.y = [float(v) for v in y]
        self.v2c = {(i, k): self.y[k] for i, row in enumerate(self.rows) for k in row}

    def satisfied(self, x) -> bool:
        return all(sum(x[k] < 0 for k in row) % 2 == 0 for row in self.rows)

    def decode(self, t_max: int) -> tuple:
        """Returns (success, iterations, decisions)."""
        x = [1 if v >= 0 else -1 for v in self.y]
        for t in range(t_max + 1):
            if self.satisfied(x):
                return True, t, np.array(x, dtype=np.int8)
            if t == t_max:
                break
            c2v = {}
            for i, row in enumerate(self.rows):
                for k in row:
                    others = [self.v2c[i, j] for j in row if j != k]
                    sign = 1 - 2 * (sum(v < 0 for v in others) % 2)
                    c2v[i, k] = sign * min(abs(v) for v in others)
            for k, col in enumerate(self.cols):
                msgs = [c2v[i, k] for i in col]
                total = self.y[k] + (msgs[0] + sum(msgs[1:]))
                for i in col:
                    self.v2c[i, k] = total - c2v[i, k]
                x[k] = 1 if total >= 0 else -1
        return False, t_max, np.array(x, dtype=np.int8)


def sequential_parse_alist(text: str) -> tuple:
    """Parse alist text one line and one index at a time, as ``(n, m, cols, rows)``.

    The lists are 0-based int64 arrays.  A fault raises ``AlistError`` with
    the line and message that ``codes.parse_alist`` gives: header lines first,
    then each index list in file order (its token count, bounds and
    duplicates), then membership symmetry by row, then trailing content.
    """
    lines = text.splitlines()

    def ints(lineno, expect=None, what=""):
        if lineno > len(lines):
            raise AlistError(lineno, f"file ends early, expected {what}")
        try:
            vals = [int(tok) for tok in lines[lineno - 1].split()]
        except ValueError:
            raise AlistError(lineno, f"non-integer token in {what}") from None
        if expect is not None and len(vals) != expect:
            raise AlistError(lineno, f"expected {expect} integers for {what}, got {len(vals)}")
        return vals

    n, m = ints(1, 2, "header 'n m'")
    if not (n > m >= 1):
        raise AlistError(1, f"header requires n > m >= 1, got n={n}, m={m}")
    max_dv, max_dc = ints(2, 2, "header 'max_dv max_dc'")
    col_degs = ints(3, n, "column degrees")
    row_degs = ints(4, m, "row degrees")
    if max(col_degs) != max_dv:
        raise AlistError(3, f"column degrees peak at {max(col_degs)}, header claims {max_dv}")
    if max(row_degs) != max_dc:
        raise AlistError(4, f"row degrees peak at {max(row_degs)}, header claims {max_dc}")
    for k, d in enumerate(col_degs):
        if d < 1:
            raise AlistError(3, f"column {k + 1} declares degree {d} < 1")
    for i, d in enumerate(row_degs):
        if d < 2:
            raise AlistError(4, f"row {i + 1} declares degree {d} < 2")

    def index_list(lineno, degree, bound, what):
        nonzero = [v for v in ints(lineno, None, what) if v != 0]
        if len(nonzero) != degree:
            raise AlistError(lineno,
                             f"{what} lists {len(nonzero)} indices, degree {degree} declared")
        for v in nonzero:
            if not (1 <= v <= bound):
                raise AlistError(lineno, f"{what} index {v} outside 1..{bound}")
        if len(set(nonzero)) != degree:
            raise AlistError(lineno, f"{what} contains a duplicate index")
        return np.asarray(nonzero, dtype=np.int64) - 1

    cols = [index_list(5 + k, col_degs[k], m, f"column {k + 1}") for k in range(n)]
    rows = [index_list(5 + n + i, row_degs[i], n, f"row {i + 1}") for i in range(m)]
    from_cols = [set() for _ in range(m)]
    for k, col in enumerate(cols):
        for i in col:
            from_cols[int(i)].add(k)
    for i, row in enumerate(rows):
        if {int(k) for k in row} != from_cols[i]:
            raise AlistError(
                5 + n + i, f"row {i + 1} disagrees with the column lists (asymmetric membership)")
    for extra in range(5 + n + m, len(lines) + 1):
        if lines[extra - 1].strip():
            raise AlistError(extra, "unexpected trailing content")
    return n, m, cols, rows
