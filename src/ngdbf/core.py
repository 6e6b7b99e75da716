"""Results and scoring shared by the decoders: min-sum's per-frame result, the smoothed
decision, and the objective that scores final decisions (``gdbf.decode_batch`` sums
its own from its arrays for mgdbf's mode switch)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codes import ParityCheckCode


@dataclass
class DecodeResult:
    success: bool
    iterations: int
    decisions: np.ndarray
    smoothing_engaged: bool = False


def objective(code: ParityCheckCode, x: np.ndarray, y: np.ndarray,
              s: np.ndarray | None = None) -> float:
    """Correlation-plus-syndrome objective: sum(x_k y_k) + sum(s_i).

    Scored on whatever samples the decoder saw (saturated floats or quantized
    levels).  A caller that already holds the syndrome of ``x`` passes it as ``s``.
    """
    if len(x) != code.n or len(y) != code.n:
        raise ValueError("length mismatch")
    if s is None:
        s = code.syndrome(x)
    return float(np.dot(x, y) + s.sum())


class Stepper:
    """Imported by perfbench/measure.py, which wraps the step of each subclass: there is none."""


def smoothed_decision(smooth: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sign(X_k) of the accumulators; an exact tie keeps the current bit."""
    return np.where(smooth > 0, 1, np.where(smooth < 0, -1, x)).astype(np.int8)
