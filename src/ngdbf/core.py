"""Per-frame decode loop of iid- and uniform-perturbed bit-flip frames: state container,
stopping rule, iteration accounting.  The others go through gdbf.decode_batch."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codes import ParityCheckCode, bipolar_sign


@dataclass
class DecoderState:
    """Mutable per-frame decoder state, confined to a single frame worker.

    The syndrome vector ``s`` is kept consistent with ``x`` after every
    step (steppers either update it incrementally or recompute it).
    Variant-specific state (mode flag, thresholds, counters) lives in the
    stepper that uses it.
    """

    x: np.ndarray                       # bipolar decisions, int8
    s: np.ndarray                       # bipolar syndromes, int8
    t: int = 0                          # executed iterations
    smooth: np.ndarray | None = None    # output-smoothing accumulators


@dataclass
class DecodeResult:
    success: bool
    iterations: int
    decisions: np.ndarray
    smoothing_engaged: bool = False


def init_state(code: ParityCheckCode, samples: np.ndarray) -> DecoderState:
    """Initialize decisions as the signs of the channel samples.

    A zero sample (possible only on the unquantized path) decides +1.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.shape[0] != code.n:
        raise ValueError(f"sample vector has length {samples.shape[0]}, code needs {code.n}")
    x = bipolar_sign(samples)
    return DecoderState(x=x, s=code.syndrome(x))


def objective(code: ParityCheckCode, x: np.ndarray, y: np.ndarray,
              s: np.ndarray | None = None) -> float:
    """Correlation-plus-syndrome objective: sum(x_k y_k) + sum(s_i).

    Uses whatever samples the calling decoder sees (saturated floats or
    quantized levels), so scores stay consistent with the flip decisions.
    A caller that already holds the syndrome of ``x`` passes it as ``s``.
    """
    if len(x) != code.n or len(y) != code.n:
        raise ValueError("length mismatch")
    if s is None:
        s = code.syndrome(x)
    return float(np.dot(x, y) + s.sum())


class Stepper:
    """One decoding strategy: mutates the state by a single iteration.

    Subclasses hold the code, the (possibly quantized) samples they decode
    against, any per-frame noise source and their own per-frame state; a
    stepper decodes one frame.
    """

    code: ParityCheckCode
    y: np.ndarray

    def step(self, state: DecoderState) -> None:
        raise NotImplementedError


def decode(stepper: Stepper, state: DecoderState, t_max: int, *,
           smoothing_window: int = 0) -> DecodeResult:
    """Run the iterative decode loop with the all-checks-satisfied stop rule.

    The stopping rule is evaluated before every step, so a frame whose
    initial decisions already form a codeword succeeds with 0 iterations.
    ``iterations`` always counts executed steps.  When the iteration budget
    runs out and a smoothing window is configured, the terminal decision is
    the sign of the per-symbol accumulator (ties fall back to the current
    decision); otherwise it is the current decision vector.
    """
    if t_max < 1:
        raise ValueError("t_max must be at least 1")
    if smoothing_window < 0 or smoothing_window > t_max:
        raise ValueError("smoothing window must lie in [0, t_max]")

    code, step = stepper.code, stepper.step
    engaged = False
    if smoothing_window:
        state.smooth = np.zeros(code.n, dtype=np.int32)

    for _ in range(t_max):
        if state.s.min() == 1:
            break
        step(state)
        state.t += 1
        if smoothing_window and state.t > t_max - smoothing_window:
            state.smooth += state.x
            engaged = True

    success = bool(state.s.min() == 1)
    if engaged and not success:
        decisions = smoothed_decision(state.smooth, state.x)
    else:
        decisions = state.x.copy()
    return DecodeResult(success, state.t, decisions, engaged)


def smoothed_decision(smooth: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sign(X_k) of the accumulators; an exact tie keeps the current bit."""
    return np.where(smooth > 0, 1, np.where(smooth < 0, -1, x)).astype(np.int8)
