"""Strict min-sum reference decoder (flooding schedule, double precision).

Check update: sign product times minimum magnitude over the extrinsic
inputs.  Variable update: channel sample plus extrinsic sums; raw samples
are used directly since min-sum is invariant to a positive scaling of its
inputs, and no saturation or offset/normalization is applied.
"""

from __future__ import annotations

import numpy as np

from .codes import ParityCheckCode, bipolar_sign
from .core import DecodeResult


def decode_minsum(code: ParityCheckCode, y: np.ndarray, t_max: int) -> DecodeResult:
    """Flooding min-sum with the all-checks-satisfied stopping rule.

    The stopping rule is evaluated on the hard decisions before every
    message-passing pass, matching the iteration accounting of the
    bit-flip decoders (a frame whose channel signs already form a codeword
    reports 0 iterations).
    """
    if t_max < 1:
        raise ValueError("t_max must be at least 1")
    y = np.asarray(y, dtype=np.float64)
    if y.shape[0] != code.n:
        raise ValueError(f"sample vector has length {y.shape[0]}, code needs {code.n}")

    # Variable-to-check messages sit in a (max_dc, m) table laid out as
    # code.row_slots, with +inf in padded slots, which never wins a minimum
    # or flips a sign.  Padded column slots read the 0 past the end of the
    # check-to-variable table and write into the cell past the end of this one.
    slots = code.edge_slots
    v2c = np.append(np.append(y, np.inf)[code.row_slots], 0.0)
    table = v2c[:-1].reshape(code.row_slots.shape)
    c2v = np.zeros_like(v2c)
    x = bipolar_sign(y)

    for t in range(t_max + 1):
        if code.is_codeword(x):
            return DecodeResult(True, t, x.copy())
        if t == t_max:
            break

        # Check pass: extrinsic sign product and min magnitude per slot.
        signs = np.where(table >= 0, 1.0, -1.0)
        mags = np.abs(table)
        m1 = mags.min(axis=0)
        at_min = mags == m1
        np.putmask(mags, at_min, np.inf)
        m2 = mags.min(axis=0)
        at_min &= at_min.sum(axis=0) == 1
        signs *= signs.prod(axis=0)
        np.multiply(signs, np.where(at_min, m2, m1), out=c2v[:-1].reshape(table.shape))

        # Variable pass: posteriors, extrinsic messages, hard decisions.  Slot
        # 0 (the lowest-index check) is added last: the recorded outputs were
        # made with that order, and another one changes some decisions.
        c2v_col = c2v[slots]
        posterior = c2v_col[1:].sum(axis=0) + c2v_col[0] + y
        v2c[slots] = np.subtract(posterior, c2v_col, out=c2v_col)
        x = bipolar_sign(posterior)

    return DecodeResult(False, t_max, x.copy())
