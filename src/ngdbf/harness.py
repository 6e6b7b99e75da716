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
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .analysis import convergence_error, f_max
from .channel import MAX_Q_BITS, QuantizerSpec, ebn0_to_sigma, saturate, transmit
from .codes import ParityCheckCode, load_alist
from .core import objective
from .gdbf import MAX_ITERATIONS, decode_batch, thresholds_by_count
from .minsum import decode_minsum
from .noisy import NgdbfParams, NoiseSource, shift_chain

SWEEPABLE = ("theta", "lam", "eta")
STOP_CHUNK = 512    # frames between two applications of the early-stop rule
CHAIN_BATCH = 32    # frames transmitted at once, and the most float64 shift chains a batch holds
CHAIN_BYTES = 1 << 20   # the most a batch's shift chains take, unless it is one frame


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class Variant:
    """How one decoder variant is built and run.

    ``rule`` picks the bit-flip thresholds and mode switch (see
    :func:`decode_frame`); it is None for min-sum, which is not a
    bit-flip decoder.  A ``stochastic`` variant is its deterministic twin (same rule)
    given a perturbation stream, which it gets when eta > 0.  A positive
    ``smoothing_window`` turns output smoothing on, over that many final
    iterations unless the parameters give their own window; only such a
    variant accepts a window in its parameters.
    """

    rule: str | None        # "single", "multi", "adaptive" or None
    stochastic: bool = False
    quantizable: bool = False
    smoothing_window: int = 0


VARIANTS = {
    "sgdbf": Variant("single"),
    "mgdbf": Variant("multi"),
    "atgdbf": Variant("adaptive"),
    "sngdbf": Variant("single", stochastic=True),
    "mngdbf": Variant("adaptive", stochastic=True, quantizable=True),
    "smngdbf": Variant("adaptive", stochastic=True, quantizable=True, smoothing_window=64),
    "minsum": Variant(None),
}


@dataclass(frozen=True)
class DecoderSetup:
    """A decoder variant plus everything needed to decode with it."""

    variant: str
    params: NgdbfParams
    quantizer: QuantizerSpec | None = None

    def __post_init__(self):
        if not isinstance(self.variant, str) or self.variant not in VARIANTS:
            raise ConfigError(f"unknown decoder variant {self.variant!r}")
        if self.quantizer is not None and not VARIANTS[self.variant].quantizable:
            names = "/".join(n for n, v in VARIANTS.items() if v.quantizable)
            raise ConfigError(f"quantized datapath is only available for {names}")
        if self.params.smoothing_window and not VARIANTS[self.variant].smoothing_window:
            names = "/".join(n for n, v in VARIANTS.items() if v.smoothing_window)
            raise ConfigError(f"'params.smoothing_window' applies only to {names}, "
                              f"not {self.variant}")
        if self.smoothing_window > self.params.t_max:
            raise ConfigError(f"'params.smoothing_window' is not given and the {self.variant} "
                              f"default of {self.smoothing_window} exceeds params.t_max = "
                              f"{self.params.t_max}; give a window of at most t_max")

    @property
    def smoothing_window(self) -> int:
        return self.params.smoothing_window or VARIANTS[self.variant].smoothing_window

    @property
    def perturbed(self) -> bool:
        """A stochastic variant at eta > 0: each frame draws a perturbation."""
        return VARIANTS[self.variant].stochastic and self.params.eta > 0

    @cached_property
    def weight_and_thresholds(self) -> tuple:
        """(w, thresholds by non-flip count) of the bit-flip rule, in the
        quantizer's units if any; built once, for every frame of this setup."""
        params, rule, quantizer = self.params, VARIANTS[self.variant].rule, self.quantizer
        thresholds = None if rule == "single" else thresholds_by_count(
            params.theta, params.lam if rule == "adaptive" else 1.0, params.t_max)
        if quantizer is None:
            return params.w, thresholds
        return int(quantizer.to_index(params.w)), quantizer.to_index(thresholds)


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
        variant = VARIANTS[self.setup.variant]     # does it read each of SWEEPABLE?
        reads = {"theta": variant.rule in ("multi", "adaptive"),
                 "lam": variant.rule == "adaptive", "eta": variant.stochastic}
        for name in self.schedules:
            if name not in reads:
                raise ConfigError(f"unknown schedule parameter {name!r}")
            if not reads[name]:
                raise ConfigError(f"{self.setup.variant} does not read {name!r}, so it "
                                  "cannot be scheduled or swept")

    def params_at(self, ebn0_db: float) -> NgdbfParams:
        """Base parameters with any per-SNR schedule overrides applied."""
        params = self.setup.params
        for name, table in self.schedules.items():
            if ebn0_db not in table:
                raise ConfigError(
                    f"schedule for {name!r} has no entry for Eb/N0 = {ebn0_db} dB")
            try:
                params = params.replace(**{name: table[ebn0_db]})
            except ValueError as exc:
                raise ConfigError(f"{name!r} = {table[ebn0_db]} at Eb/N0 = {ebn0_db} dB: "
                                  f"{exc}") from exc
        return params


def frame_rng(master_seed: int, snr_index: int, frame_index: int,
              stream: int) -> np.random.Generator:
    """Independent, scheduling-invariant random stream for one frame."""
    ss = np.random.SeedSequence(master_seed, spawn_key=(snr_index, frame_index, stream))
    return np.random.Generator(np.random.PCG64(ss))


class FrameStats(NamedTuple):
    """Statistics of a frame range (:func:`decode_chunk`): an int32 array each, a frame an entry."""

    bit_errors: np.ndarray
    iterations: np.ndarray
    engaged: np.ndarray     # the smoothing window was entered


def _transmit(code: ParityCheckCode, setup: DecoderSetup, sigma: float, y_max: float,
              master_seed: int, snr_index: int, start: int, y: np.ndarray) -> None:
    """Write the samples of all-ones frames ``start``, ``start + 1``, ... into the rows of
    ``y``: raw for min-sum, saturated for the bit-flip rule, and as quantizer indices
    through one float block if the setup has a quantizer."""
    block = y if setup.quantizer is None else np.empty(y.shape)
    for i, row in enumerate(block):
        row[:] = transmit(code.zero_codeword, sigma,
                          frame_rng(master_seed, snr_index, start + i, 0))
    if setup.variant != "minsum":
        saturate(block, y_max, out=block)
    if setup.quantizer is not None:
        y[:] = setup.quantizer.to_index(block)


def decode_frame(code: ParityCheckCode, setup: DecoderSetup, sigma: float, y: np.ndarray,
                 master_seed: int, snr_index: int, start: int) -> tuple:
    """Decode frames ``start``, ``start + 1``, ... of one SNR point, a row of samples each
    (:func:`_decode_batches`): min-sum frames row by row, any other block in one
    :func:`gdbf.decode_batch`, a perturbed block with each frame's stream 1 as its shift
    chain, in the samples' type, or as its :class:`NoiseSource`.  Returns the final decisions
    (an int8 row a frame), and int32 arrays of iterations and engaged flags.

    It decodes a block, not a frame, but keeps its name: perfbench's traced run wraps
    ``harness.decode_frame`` and counts its calls (ROADMAP item 1).
    """
    params, q, rule = setup.params, setup.quantizer, VARIANTS[setup.variant].rule
    if rule is None:
        results = [decode_minsum(code, row, params.t_max) for row in y]
        return (np.array([r.decisions for r in results], np.int8).reshape(len(y), code.n),
                np.array([r.iterations for r in results], np.int32), np.zeros(len(y), np.int32))
    (w, thresholds), chains, noise = setup.weight_and_thresholds, None, None
    thresholds = thresholds if q is None else thresholds.astype(y.dtype)
    if setup.perturbed:
        rngs = [frame_rng(master_seed, snr_index, start + i, 1) for i in range(len(y))]
        if params.noise_policy != "shift_chain":
            noise = NoiseSource(code.n, params.eta * sigma, params.noise_policy, rngs, quantizer=q)
        else:
            chains = np.empty((len(y), code.n + params.t_max), y.dtype)
            for row, rng in zip(chains, rngs):
                row[:] = shift_chain(code.n, params.eta * sigma, rng, params.t_max, q)
    return decode_batch(code, y, params.t_max, w, thresholds, rule == "multi",
                        setup.smoothing_window, chains, noise)


def _decode_batches(code: ParityCheckCode, setup: DecoderSetup, sigma: float, y_max: float,
                    master_seed: int, snr_index: int, start: int, stop: int):
    """Transmit and decode frames ``start`` to ``stop - 1`` of one SNR point (an empty range is
    one empty batch): yield each batch's samples and :func:`decode_frame`'s results.  Samples
    are floats or quantizer levels in the narrowest type that holds
    |E| <= (2 + max_dv) * (2**q_bits - 1), written CHAIN_BATCH frames at a time.  A noise-free
    bit-flip batch is at most STOP_CHUNK frames; another, at most 8 * CHAIN_BATCH bytes a
    position (32 float64 rows) and CHAIN_BYTES of chains (or one)."""
    q, dtype = setup.quantizer, np.dtype(np.float64)
    if q is not None:
        dtype = np.min_scalar_type(-(2 + len(code.col_slots)) * (q.n_levels - 1) - 1)
    noise_free = VARIANTS[setup.variant].rule is not None and not setup.perturbed
    size = STOP_CHUNK if noise_free else max(1, min(
        8 * CHAIN_BATCH, CHAIN_BYTES // (code.n + setup.params.t_max)) // dtype.itemsize)
    for first in range(start, max(stop, start + 1), size):
        y = np.empty((min(size, stop - first), code.n), dtype)
        for i in range(0, len(y), CHAIN_BATCH):
            _transmit(code, setup, sigma, y_max, master_seed, snr_index, first + i,
                      y[i:i + CHAIN_BATCH])
        yield y, *decode_frame(code, setup, sigma, y, master_seed, snr_index, first)


def decode_chunk(code: ParityCheckCode, setup: DecoderSetup, sigma: float, y_max: float,
                 master_seed: int, snr_index: int, start: int, stop: int) -> FrameStats:
    """Decode frames ``start`` to ``stop - 1`` of one SNR point a batch at a time
    (:func:`_decode_batches`), and count each frame's bit errors."""
    return FrameStats(*map(np.concatenate, zip(*(
        (np.count_nonzero(x != 1, axis=1).astype(np.int32), iterations, engaged)
        for _, x, iterations, engaged in _decode_batches(
            code, setup, sigma, y_max, master_seed, snr_index, start, stop)))))


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

    def add(self, stats: FrameStats) -> None:
        """Count a decoded frame range (:func:`decode_chunk`'s arrays)."""
        self.frames += stats.bit_errors.size
        self.bit_errors += int(stats.bit_errors.sum())
        self.frame_errors += int(np.count_nonzero(stats.bit_errors))
        self.total_iterations += int(stats.iterations.sum())
        self.engaged_frames += int(stats.engaged.sum())

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
    if isinstance(v, int):
        return str(v)
    return format(v, ".10g")


# Set in each pool worker by _init_worker: the (code, setup) its tasks decode.
_worker_state = None


def _init_worker(code: ParityCheckCode, setup: DecoderSetup) -> None:
    global _worker_state
    _worker_state = (code, setup)


def _decode_range(task: tuple) -> FrameStats:
    """Round task: :func:`decode_chunk` on this worker's code, with the
    task's (params, sigma, y_max, master_seed, snr_index, start, stop)."""
    code, setup = _worker_state
    params, *args = task
    return decode_chunk(code, replace(setup, params=params), *args)


def _run(configs: list, workers: int, chunk_size: int) -> list:
    """Run every SNR point of every config; one CampaignResult per config.

    Points run in rounds.  A round lists frame ranges over the next stop
    chunk of every point still running, or over the rest of its budget when
    it has no error target, decodes them, counts them in order and applies
    each point's stop rule.  With more than one worker, one process pool
    decodes every round in ranges of about an eighth of a chunk per worker,
    so that a point that stops at its first chunk keeps every worker busy;
    with one, this process decodes whole chunks.  The code, the variant and
    the quantizer are those of the first config; the configs differ at most
    in parameters.
    """
    results, running = [], []       # running: (config, SNR index, point, parameters)
    for cfg in configs:
        points = [SnrPoint(ebn0, ebn0_to_sigma(ebn0, float(cfg.code.rate)), cfg.code.n)
                  for ebn0 in cfg.ebn0_db]
        results.append(CampaignResult(cfg.setup.variant, cfg.master_seed, points))
        running += [(cfg, si, pt, replace(cfg.setup, params=cfg.params_at(pt.ebn0_db)).params)
                    for si, pt in enumerate(points)]
    code, setup = configs[0].code, configs[0].setup
    _init_worker(code, setup)       # without a pool, this process is the one worker
    pool = (ProcessPoolExecutor(max_workers=workers, initializer=_init_worker,
                                initargs=(code, setup)) if workers > 1 else None)
    size = -(-chunk_size // (8 * workers)) if pool else chunk_size
    started = time.perf_counter()
    with pool or nullcontext():
        while running:
            points, tasks = [], []
            for cfg, si, point, params in running:
                end = (cfg.frames if cfg.error_target is None
                       else min(cfg.frames, point.frames + chunk_size))
                for start in range(point.frames, end, size):
                    points.append(point)
                    tasks.append((params, point.sigma, cfg.y_max, cfg.master_seed, si, start,
                                  min(start + size, end)))
            for point, stats in zip(points, (pool.map if pool else map)(_decode_range, tasks)):
                point.add(stats)
            for _, _, point, _ in running:
                point.elapsed_s = time.perf_counter() - started
            running = [(cfg, si, pt, params) for cfg, si, pt, params in running
                       if pt.frames < cfg.frames and (cfg.error_target is None
                                                      or pt.frame_errors < cfg.error_target)]
    return results


def run_campaign(config: CampaignConfig, workers: int = 1,
                 chunk_size: int = STOP_CHUNK) -> CampaignResult:
    """Run every SNR point to its frame budget or error-event target.

    Early stopping is evaluated at fixed chunk boundaries in frame order,
    independent of how many workers decode the chunks, so two runs of the
    same config always produce bit-identical statistics.  With more than
    one worker, one process pool serves every point.
    """
    return _run([config], workers, chunk_size)[0]


def run_sweep(config: CampaignConfig, parameter: str, grid,
              workers: int = 1) -> list:
    """One campaign per grid value of theta/lam/eta, sharing the master seed.

    A grid value acts as a schedule giving the parameter that value at every
    point, so the config must not schedule it too.  Every campaign of the
    sweep runs on one process pool.
    """
    if parameter not in SWEEPABLE:
        raise ConfigError(f"cannot sweep {parameter!r}; choose one of {SWEEPABLE}")
    if not len(grid):
        raise ConfigError("sweep grid must be non-empty")
    if parameter in config.schedules:
        raise ConfigError(f"cannot sweep {parameter!r}: the config schedules it per Eb/N0")
    configs = [replace(config, schedules={**config.schedules,
                                          parameter: dict.fromkeys(config.ebn0_db, value)})
               for value in grid]
    return list(zip(map(float, grid), _run(configs, workers, STOP_CHUNK)))


def run_convergence(code: ParityCheckCode, setups: dict, ebn0_db: float, frames: int,
                    master_seed: int, y_max: float = 2.5) -> dict:
    """Terminal objective deficit per decoder over a shared frame batch.

    Every decoder sees the identical channel realizations (same per-frame
    streams), which is the variance-reduced way to compare convergence
    errors.  Frames are decoded a batch at a time, as in :func:`decode_chunk`;
    objectives are scored on the samples the decoder saw, as the values of
    its quantizer's levels if it has one.  Returns {name: mean(f(x(T)) - f_max)}.
    """
    sigma = ebn0_to_sigma(ebn0_db, float(code.rate))
    out = {}
    for name, setup in setups.items():
        finals, maxes = [], []
        for ys, xs, *_ in _decode_batches(code, setup, sigma, y_max, master_seed, 0, 0, frames):
            ys = ys if setup.quantizer is None else setup.quantizer.from_index(ys)
            finals += [objective(code, x, y) for x, y in zip(xs, ys)]
            maxes += [f_max(code, code.zero_codeword, y) for y in ys]
        out[name] = convergence_error(finals, maxes)
    return out


# ---------------------------------------------------------------------------
# JSON configuration
# ---------------------------------------------------------------------------


_CONFIG_KEYS = {"code", "decoder", "params", "ebn0_db", "frames", "seed", "error_target",
                "y_max", "quantizer", "schedules"}


def _integer(value, key: str, minimum: int | None = None, maximum: int | None = None) -> int:
    """A JSON integer, not a boolean, within the bounds that are given."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{key!r} must be an integer, not {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{key!r} must be at least {minimum}, not {value}")
    if maximum is not None and value > maximum:
        raise ConfigError(f"{key!r} must be at most {maximum}, not {value}")
    return value


def _number(value, key: str, positive: bool = False) -> float:
    """A finite JSON number, not a boolean, as a float; above zero if ``positive``."""
    if not isinstance(value, bool) and isinstance(value, (int, float)):
        try:
            if math.isfinite(value) and (value > 0 or not positive):
                return float(value)
        except OverflowError:       # an integer beyond the float range
            pass
    kind = "a positive" if positive else "a finite"
    raise ConfigError(f"{key!r} must be {kind} number, not {value!r}")


def _unique_keys(pairs: list) -> dict:
    """A JSON object's members; ``json`` alone keeps a repeated key's last value."""
    keys = [key for key, _ in pairs]
    if len(set(keys)) < len(keys):
        raise ConfigError(f"repeated key(s) {sorted({k for k in keys if keys.count(k) > 1})}")
    return dict(pairs)


def _object(value, key: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{key!r} must be a JSON object, not {value!r}")
    return value


def params_from_dict(d: dict) -> NgdbfParams:
    known = {"theta", "lam", "eta", "w", "t_max", "smoothing_window", "noise_policy"}
    extra = set(_object(d, "params")) - known
    if extra:
        raise ConfigError(f"unknown decoder parameter(s): {sorted(extra)}")
    for key, value in d.items():
        if key in ("t_max", "smoothing_window"):
            _integer(value, f"params.{key}", maximum=MAX_ITERATIONS)
        elif key != "noise_policy":
            _number(value, f"params.{key}")
    try:
        return NgdbfParams(**d)
    except ValueError as exc:
        raise ConfigError(f"bad decoder parameters: {exc}") from exc


def load_config(path, master_seed: int | None = None) -> CampaignConfig:
    """Load a campaign description from a JSON document.

    Relative code paths resolve against the config file's directory.  A
    seed given here is overridden by an explicit ``master_seed`` argument.
    Every value is checked here, so a malformed document raises a
    :class:`ConfigError` naming the key instead of failing in a decode.
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_text(), object_pairs_hook=_unique_keys)
    except ValueError as exc:       # bad JSON, a repeated key, or bytes that are not UTF-8
        raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    extra = set(doc) - _CONFIG_KEYS
    if extra:
        raise ConfigError(f"{path}: unknown key(s) {sorted(extra)}")
    for key in ("code", "decoder", "ebn0_db", "frames"):
        if key not in doc:
            raise ConfigError(f"{path}: missing required key {key!r}")

    if not isinstance(doc["code"], str) or not doc["code"]:
        raise ConfigError(f"'code' must be the path of an alist file, not {doc['code']!r}")
    code_path = Path(doc["code"])
    if not code_path.is_absolute():
        code_path = path.parent / code_path
    try:
        code = load_alist(code_path)
    except OSError as exc:
        raise ConfigError(f"'code': cannot read {code_path} ({exc.strerror})") from exc
    except ValueError as exc:       # not an alist, or not UTF-8 text
        raise ConfigError(f"'code': {code_path}: {exc}") from exc

    quantizer = None
    if doc.get("quantizer") is not None:
        qd = _object(doc["quantizer"], "quantizer")
        extra = set(qd) - {"q_bits", "y_max"}
        if extra:
            raise ConfigError(f"{path}: unknown key(s) {sorted(f'quantizer.{k}' for k in extra)}")
        for key in ("q_bits", "y_max"):
            if key not in qd:
                raise ConfigError(f"{path}: missing required key 'quantizer.{key}'")
        quantizer = QuantizerSpec(q_bits=_integer(qd["q_bits"], "quantizer.q_bits", minimum=1,
                                                  maximum=MAX_Q_BITS),
                                  y_max=_number(qd["y_max"], "quantizer.y_max", positive=True))

    setup = DecoderSetup(variant=doc["decoder"], params=params_from_dict(doc.get("params", {})),
                         quantizer=quantizer)
    schedules = {}
    for name, table in _object(doc.get("schedules", {}), "schedules").items():
        key = f"schedules.{name}"
        schedules[name] = {}
        for snr, value in _object(table, key).items():
            try:    # float() also reads 'nan' and 'inf', which _number refuses
                ebn0 = _number(float(snr), key)
            except ValueError:
                raise ConfigError(f"{key!r}: key {snr!r} is not an Eb/N0 in dB") from None
            if ebn0 in schedules[name]:
                raise ConfigError(f"'{key}.{snr}': Eb/N0 {ebn0} dB is scheduled twice")
            schedules[name][ebn0] = _number(value, f"{key}.{snr}")
    if not isinstance(doc["ebn0_db"], list):
        raise ConfigError(f"'ebn0_db' must be a list of numbers, not {doc['ebn0_db']!r}")
    error_target = doc.get("error_target", 100)
    if error_target is not None:
        _integer(error_target, "error_target", minimum=1)
    seed = doc.get("seed")
    if seed is not None:
        _integer(seed, "seed", minimum=0)
    if master_seed is not None:
        seed = master_seed
    if seed is None:
        raise ConfigError("a master seed is required (config 'seed' or --seed)")
    config = CampaignConfig(
        code=code,
        setup=setup,
        ebn0_db=tuple(_number(v, f"ebn0_db[{i}]") for i, v in enumerate(doc["ebn0_db"])),
        frames=_integer(doc["frames"], "frames", minimum=1),
        master_seed=int(seed),
        error_target=error_target,
        y_max=_number(doc.get("y_max", 2.5), "y_max", positive=True),
        schedules=schedules,
    )
    for i, ebn0 in enumerate(config.ebn0_db):   # a noise sigma, and scheduled values that fit
        try:
            ebn0_to_sigma(ebn0, float(code.rate))
        except ValueError as exc:
            raise ConfigError(f"'ebn0_db[{i}]': {exc}") from exc
        config.params_at(ebn0)
    return config
