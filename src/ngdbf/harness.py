"""Deterministic Monte Carlo campaigns over the AWGN channel.

Every frame transmits the all-zero codeword (bipolar all ones), which is
representative because every decoder here is symmetric under a global sign
flip of the channel output: the Gaussian noise is symmetric, the quantizer
is odd, and the perturbations are zero-mean and sign-symmetric.  Per-frame
random streams are derived from (master seed, SNR index, frame index), so
campaign statistics are independent of worker count and scheduling.
"""

from __future__ import annotations

import json
import math
import time
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .analysis import convergence_error
from .channel import QuantizerSpec, ebn0_to_sigma, saturate, transmit
from .codes import ParityCheckCode, load_alist
from .core import decode, init_state, objective
from .gdbf import MultiFlipStepper, SingleFlipStepper
from .minsum import decode_minsum
from .noisy import NgdbfParams, QuantizedAdaptiveStepper, mngdbf_stepper, sngdbf_stepper

SWEEPABLE = ("theta", "lam", "eta")


class ConfigError(ValueError):
    pass


# Stepper builders, called as build(code, setup, params, y_sat, sigma, rng).

def _sgdbf(code, setup, params, y_sat, sigma, rng):
    return SingleFlipStepper(code, y_sat, w=params.w)


def _mgdbf(code, setup, params, y_sat, sigma, rng):
    return MultiFlipStepper(code, y_sat, theta=params.theta, w=params.w,
                            mode_switching=setup.mode_switching)


def _atgdbf(code, setup, params, y_sat, sigma, rng):
    return mngdbf_stepper(code, y_sat, params.replace(eta=0.0), sigma, None)


def _sngdbf(code, setup, params, y_sat, sigma, rng):
    return sngdbf_stepper(code, y_sat, params, sigma, rng)


def _mngdbf(code, setup, params, y_sat, sigma, rng):
    if setup.quantizer is not None:
        return QuantizedAdaptiveStepper(code, setup.quantizer, y_sat, params, sigma, rng)
    return mngdbf_stepper(code, y_sat, params, sigma, rng)


@dataclass(frozen=True)
class Variant:
    """How one decoder variant is built and run.

    ``build`` is None for min-sum, which is not a bit-flip stepper.  A
    ``stochastic`` variant gets a perturbation stream when eta > 0.  A
    positive ``smoothing_window`` turns output smoothing on, over that many
    final iterations unless the parameters give their own window.
    """

    build: Callable | None
    stochastic: bool = False
    quantizable: bool = False
    smoothing_window: int = 0


VARIANTS = {
    "sgdbf": Variant(_sgdbf),
    "mgdbf": Variant(_mgdbf),
    "atgdbf": Variant(_atgdbf),
    "sngdbf": Variant(_sngdbf, stochastic=True),
    "mngdbf": Variant(_mngdbf, stochastic=True, quantizable=True),
    "smngdbf": Variant(_mngdbf, stochastic=True, quantizable=True, smoothing_window=64),
    "minsum": Variant(None),
}


@dataclass(frozen=True)
class DecoderSetup:
    """A decoder variant plus everything needed to build its stepper."""

    variant: str
    params: NgdbfParams
    quantizer: QuantizerSpec | None = None
    mode_switching: bool = True     # only meaningful for mgdbf

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown decoder variant {self.variant!r}")
        if self.quantizer is not None and not VARIANTS[self.variant].quantizable:
            names = "/".join(n for n, v in VARIANTS.items() if v.quantizable)
            raise ConfigError(f"quantized datapath is only available for {names}")

    @property
    def smoothing_window(self) -> int:
        default = VARIANTS[self.variant].smoothing_window
        if not default:
            return 0
        return self.params.smoothing_window or default


@dataclass(frozen=True)
class CampaignConfig:
    code: ParityCheckCode
    setup: DecoderSetup
    ebn0_db: tuple
    frames: int
    master_seed: int
    error_target: int | None = 100
    y_max: float = 2.5
    schedules: dict = field(default_factory=dict)   # param -> {ebn0_db: value}

    def __post_init__(self):
        if self.frames < 1:
            raise ConfigError("frame budget must be at least 1")
        if not self.ebn0_db:
            raise ConfigError("need at least one Eb/N0 point")
        for name in self.schedules:
            if name not in SWEEPABLE:
                raise ConfigError(f"unknown schedule parameter {name!r}")

    def params_at(self, ebn0_db: float) -> NgdbfParams:
        """Base parameters with any per-SNR schedule overrides applied."""
        params = self.setup.params
        for name, table in self.schedules.items():
            if ebn0_db not in table:
                raise ConfigError(
                    f"schedule for {name!r} has no entry for Eb/N0 = {ebn0_db} dB")
            params = params.replace(**{name: table[ebn0_db]})
        return params


def frame_rng(master_seed: int, snr_index: int, frame_index: int,
              stream: int) -> np.random.Generator:
    """Independent, scheduling-invariant random stream for one frame."""
    ss = np.random.SeedSequence(master_seed, spawn_key=(snr_index, frame_index, stream))
    return np.random.Generator(np.random.PCG64(ss))


@dataclass
class FrameOutcome:
    bit_errors: int
    frame_error: bool
    iterations: int
    engaged: bool
    final_objective: float
    objective_max: float


def decode_frame(code: ParityCheckCode, setup: DecoderSetup, params: NgdbfParams,
                 sigma: float, y_max: float, master_seed: int, snr_index: int,
                 frame_index: int) -> FrameOutcome:
    """Transmit one all-ones frame, decode it, and score the outcome."""
    ones = np.ones(code.n, dtype=np.int8)
    y_raw = transmit(ones, sigma, frame_rng(master_seed, snr_index, frame_index, 0))

    if setup.variant == "minsum":
        result = decode_minsum(code, y_raw, params.t_max)
        y_seen = y_raw
    else:
        variant = VARIANTS[setup.variant]
        y_sat = saturate(y_raw, y_max)
        rng = None
        if variant.stochastic and params.eta > 0:
            rng = frame_rng(master_seed, snr_index, frame_index, 1)
        stepper = variant.build(code, setup, params, y_sat, sigma, rng)
        state = init_state(code, stepper.y)
        result = decode(stepper, state, params.t_max,
                        smoothing_window=setup.smoothing_window)
        y_seen = stepper.y

    errors = int(np.count_nonzero(result.decisions != 1))
    # The transmitted all-ones word satisfies every check: its syndrome is all ones.
    return FrameOutcome(errors, errors > 0, result.iterations, result.smoothing_engaged,
                        objective(code, result.decisions, y_seen),
                        objective(code, ones, y_seen, ones[:code.m]))


# ---------------------------------------------------------------------------
# campaign accumulation
# ---------------------------------------------------------------------------


def wilson_interval(successes: int, trials: int, z: float = 1.959963984540054) -> tuple:
    """95% Wilson score interval for a binomial proportion."""
    if trials <= 0:
        return (0.0, 1.0)
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials))
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return (lo, hi)


@dataclass
class SnrPoint:
    ebn0_db: float
    sigma: float
    n: int
    frames: int = 0
    bit_errors: int = 0
    frame_errors: int = 0
    total_iterations: int = 0
    engaged_frames: int = 0
    elapsed_s: float = 0.0

    def add(self, outcome: FrameOutcome) -> None:
        self.frames += 1
        self.bit_errors += outcome.bit_errors
        self.frame_errors += outcome.frame_error
        self.total_iterations += outcome.iterations
        self.engaged_frames += outcome.engaged

    @property
    def ber(self) -> float:
        return self.bit_errors / (self.frames * self.n) if self.frames else 0.0

    @property
    def fer(self) -> float:
        return self.frame_errors / self.frames if self.frames else 0.0

    @property
    def avg_iterations(self) -> float:
        return self.total_iterations / self.frames if self.frames else 0.0

    @property
    def smoothing_fraction(self) -> float:
        return self.engaged_frames / self.frames if self.frames else 0.0

    @property
    def ber_interval(self) -> tuple:
        return wilson_interval(self.bit_errors, self.frames * self.n)

    def as_dict(self) -> dict:
        lo, hi = self.ber_interval
        return {
            "ebn0_db": self.ebn0_db, "sigma": self.sigma, "frames": self.frames,
            "bit_errors": self.bit_errors, "frame_errors": self.frame_errors,
            "ber": self.ber, "fer": self.fer, "avg_iters": self.avg_iterations,
            "smooth_frac": self.smoothing_fraction, "ci_low": lo, "ci_high": hi,
            "elapsed_s": self.elapsed_s,
        }


@dataclass
class CampaignResult:
    variant: str
    master_seed: int
    points: list

    CSV_COLUMNS = ("ebn0_db", "frames", "bit_errors", "frame_errors", "ber", "fer",
                   "avg_iters", "smooth_frac", "ci_low", "ci_high")

    def to_csv(self) -> str:
        lines = [",".join(self.CSV_COLUMNS)]
        for pt in self.points:
            row = pt.as_dict()
            lines.append(",".join(_fmt(row[c]) for c in self.CSV_COLUMNS))
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        doc = {"variant": self.variant, "seed": self.master_seed,
               "points": [pt.as_dict() for pt in self.points]}
        return json.dumps(doc, indent=2, sort_keys=True)


def _fmt(v) -> str:
    if isinstance(v, bool):
        return str(int(v))
    if isinstance(v, int):
        return str(v)
    return format(v, ".10g")


def _chunk_outcomes(code, setup, params, sigma, y_max, master_seed, snr_index,
                    start, stop) -> list:
    return [
        decode_frame(code, setup, params, sigma, y_max, master_seed, snr_index, fi)
        for fi in range(start, stop)
    ]


def run_campaign(config: CampaignConfig, workers: int = 1,
                 chunk_size: int = 512) -> CampaignResult:
    """Run every SNR point to its frame budget or error-event target.

    Early stopping is evaluated at fixed chunk boundaries in frame order,
    independent of how many workers decode the chunks, so two runs of the
    same config always produce bit-identical statistics.
    """
    rate = float(config.code.rate)
    points = []
    for si, ebn0 in enumerate(config.ebn0_db):
        sigma = ebn0_to_sigma(ebn0, rate)
        params = config.params_at(ebn0)
        point = SnrPoint(ebn0_db=ebn0, sigma=sigma, n=config.code.n)
        started = time.perf_counter()
        ranges = [(s, min(s + chunk_size, config.frames))
                  for s in range(0, config.frames, chunk_size)]
        args = (config.code, config.setup, params, sigma, config.y_max, config.master_seed, si)

        def consume(outcomes) -> bool:
            for oc in outcomes:
                point.add(oc)
            return (config.error_target is not None
                    and point.frame_errors >= config.error_target)

        if workers and workers > 1:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = [pool.submit(_chunk_outcomes, *args, a, b) for a, b in ranges]
                try:
                    for fut in futures:
                        if consume(fut.result()):
                            break
                finally:
                    for fut in futures:
                        fut.cancel()
        else:
            for a, b in ranges:
                if consume(_chunk_outcomes(*args, a, b)):
                    break
        point.elapsed_s = time.perf_counter() - started
        points.append(point)
    return CampaignResult(config.setup.variant, config.master_seed, points)


def run_sweep(config: CampaignConfig, parameter: str, grid,
              workers: int = 1) -> list:
    """One campaign per grid value of theta/lam/eta, sharing the master seed."""
    if parameter not in SWEEPABLE:
        raise ConfigError(f"cannot sweep {parameter!r}; choose one of {SWEEPABLE}")
    if not len(grid):
        raise ConfigError("sweep grid must be non-empty")
    out = []
    for value in grid:
        setup = replace(config.setup, params=config.setup.params.replace(**{parameter: value}))
        out.append((float(value), run_campaign(replace(config, setup=setup), workers=workers)))
    return out


def run_convergence(code: ParityCheckCode, setups: dict, ebn0_db: float, frames: int,
                    master_seed: int, y_max: float = 2.5) -> dict:
    """Terminal objective deficit per decoder over a shared frame batch.

    Every decoder sees the identical channel realizations (same per-frame
    streams), which is the variance-reduced way to compare convergence
    errors.  Returns {name: mean(f(x(T)) - f_max)}.
    """
    sigma = ebn0_to_sigma(ebn0_db, float(code.rate))
    out = {}
    for name, setup in setups.items():
        outcomes = [decode_frame(code, setup, setup.params, sigma, y_max, master_seed, 0, fi)
                    for fi in range(frames)]
        out[name] = convergence_error([oc.final_objective for oc in outcomes],
                                      [oc.objective_max for oc in outcomes])
    return out


# ---------------------------------------------------------------------------
# JSON configuration
# ---------------------------------------------------------------------------


_CONFIG_KEYS = {"code", "decoder", "params", "ebn0_db", "frames", "seed", "error_target",
                "y_max", "quantizer", "mode_switching", "schedules"}


def params_from_dict(d: dict) -> NgdbfParams:
    known = {"theta", "lam", "eta", "w", "t_max", "smoothing_window", "noise_policy"}
    extra = set(d) - known
    if extra:
        raise ConfigError(f"unknown decoder parameter(s): {sorted(extra)}")
    try:
        return NgdbfParams(**d)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad decoder parameters: {exc}") from exc


def load_config(path, master_seed: int | None = None) -> CampaignConfig:
    """Load a campaign description from a JSON document.

    Relative code paths resolve against the config file's directory.  A
    seed given here is overridden by an explicit ``master_seed`` argument.
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    extra = set(doc) - _CONFIG_KEYS
    if extra:
        raise ConfigError(f"{path}: unknown key(s) {sorted(extra)}")
    for key in ("code", "decoder", "ebn0_db", "frames"):
        if key not in doc:
            raise ConfigError(f"{path}: missing required key {key!r}")

    code_path = Path(doc["code"])
    if not code_path.is_absolute():
        code_path = path.parent / code_path
    code = load_alist(code_path)

    quantizer = None
    if doc.get("quantizer"):
        qd = doc["quantizer"]
        for key in ("q_bits", "y_max"):
            if key not in qd:
                raise ConfigError(f"{path}: missing required key 'quantizer.{key}'")
        quantizer = QuantizerSpec(q_bits=int(qd["q_bits"]), y_max=float(qd["y_max"]))

    setup = DecoderSetup(
        variant=doc["decoder"],
        params=params_from_dict(doc.get("params", {})),
        quantizer=quantizer,
        mode_switching=bool(doc.get("mode_switching", True)),
    )
    schedules = {
        name: {float(k): float(v) for k, v in table.items()}
        for name, table in doc.get("schedules", {}).items()
    }
    seed = master_seed if master_seed is not None else doc.get("seed")
    if seed is None:
        raise ConfigError("a master seed is required (config 'seed' or --seed)")
    return CampaignConfig(
        code=code,
        setup=setup,
        ebn0_db=tuple(float(v) for v in doc["ebn0_db"]),
        frames=int(doc["frames"]),
        master_seed=int(seed),
        error_target=doc.get("error_target", 100),
        y_max=float(doc.get("y_max", 2.5)),
        schedules=schedules,
    )
