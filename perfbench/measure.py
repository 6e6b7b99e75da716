"""The measured process: runs one workload's rounds through the public API.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``.  Without ``--trace`` it runs rounds until ``--seconds`` have passed
(and at least ``--rounds`` rounds) and reports throughput, CPU and peak RSS
scaled by the calibration kernel.  With ``--trace`` it runs an untraced
pass for half the time, then replays the workload's first traced rounds
with every layer boundary wrapped in a span, and reports the per-layer
split.  Every campaign point's statistics go to
``result.json`` in ``--out`` for ``run.py`` to check.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field, replace
from pathlib import Path

from calibrate import REFERENCE_S, calibrate
from tracer import Tracer
from workloads import CHUNK, WORKLOADS, round_seed

VARIANT_KEYS = ("sgdbf", "mgdbf", "atgdbf", "sngdbf", "mngdbf", "smngdbf", "mngdbf-q4", "minsum")

PER_LAYER = {
    "codes.syndrome.calls": "count",
    "codes.syndrome.us_per_call": "us/call",
    "codes.syndrome_sums.calls": "count",
    "codes.syndrome_sums.us_per_call": "us/call",
    "noisy.draw.calls": "count",
    "noisy.draw.us_per_call": "us/call",
    "noisy.quantized_step.self_us_per_iter": "us/iter",
    "gdbf.step.calls": "count",
    "gdbf.step.self_us_per_iter": "us/iter",
    "core.iterations": "count",
    "core.iters_per_frame": "iter/frame",
    "core.t_max_frac": "ratio",
    "core.decode.self_us_per_iter": "us/iter",
    "channel.to_index.calls": "count",
    "channel.to_index.us_per_call": "us/call",
    "minsum.decode.us_per_iter": "us/iter",
    "harness.frame_rng.us_per_frame": "us/frame",
    "channel.transmit.us_per_frame": "us/frame",
    "core.init_state.us_per_frame": "us/frame",
    "harness.decode_frame.self_us_per_frame": "us/frame",
    **{f"harness.run_campaign.{key}.frames_per_s": "frames/s" for key in VARIANT_KEYS},
    "harness.useful_frame_frac": "ratio",
    "harness.pool_starts": "count",
    "harness.pool_busy_frac": "ratio",
    "harness.chunk_args_bytes": "B",
    "codes.load_alist_s": "s",
    "trace.overhead_frac": "ratio",
}


@dataclass
class Pass:
    """What one pass over the rounds measured.

    A *unit* is one entry of a round on one input set, keyed (entry index,
    round % cycle).  Each time a unit runs it adds one (wall s, CPU s,
    worker CPU s) sample; CPU counts this process plus its reaped workers.
    """

    rounds: int = 0
    points: list = field(default_factory=list)
    csv: list = field(default_factory=list)            # (round, campaign CSV)
    samples: dict = field(default_factory=lambda: defaultdict(list))
    frames: dict = field(default_factory=dict)          # unit -> counted frames
    kernel_s: list = field(default_factory=list)        # calibration kernel times

    def totals(self, entries=None, inputs=None) -> tuple:
        """(counted frames, wall s, CPU s, worker CPU s) summed over units.

        ``entries`` keeps the units whose entry index it holds; ``inputs``
        keeps the units whose input set is below it.  A unit that ran more
        than once, once a fast enough program wraps round its cycle,
        contributes the median of its samples.
        """
        frames, wall, cpu, worker = 0, 0.0, 0.0, 0.0
        for unit, samples in self.samples.items():
            if (entries is None or unit[0] in entries) and (inputs is None or unit[1] < inputs):
                frames += self.frames[unit]
                wall += statistics.median(s[0] for s in samples)
                cpu += statistics.median(s[1] for s in samples)
                worker += statistics.median(s[2] for s in samples)
        return frames, wall, cpu, worker

    def csv_text(self, rounds: int) -> str:
        return "".join(text for r, text in self.csv if r < rounds)


def _cpu_times() -> tuple:
    """CPU seconds of (this process plus reaped workers, reaped workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    workers = resource.getrusage(resource.RUSAGE_CHILDREN)
    worker_s = workers.ru_utime + workers.ru_stime
    return own.ru_utime + own.ru_stime + worker_s, worker_s


def run_round(harness, workload, configs, seed, r, out: Pass, pass_name: str) -> None:
    for i, (entry, cfg) in enumerate(zip(workload.entries, configs)):
        unit = (i, r % workload.cycle)
        cfg = replace(cfg, master_seed=round_seed(seed, r, workload.cycle))
        base = {"round": r, "entry": i, "variant": entry.key, "budget": entry.frames,
                "target": entry.error_target, "t_max": entry.params.get("t_max", 100),
                "pass": pass_name}
        error = None
        cpu_before = _cpu_times()
        started = time.perf_counter()
        try:
            if entry.sweep:
                results = harness.run_sweep(cfg, entry.sweep[0], list(entry.sweep[1]),
                                            workers=entry.workers)
            else:
                results = [(None, harness.run_campaign(cfg, workers=entry.workers))]
        except Exception:
            error = traceback.format_exc()
            print(error, file=sys.stderr)
            results = []
        wall = time.perf_counter() - started
        cpu_after = _cpu_times()
        out.samples[unit].append((wall, cpu_after[0] - cpu_before[0],
                                  cpu_after[1] - cpu_before[1]))
        # About one calibration run per quarter second of workload, so the
        # kernel samples the machine's speed evenly over the pass.
        out.kernel_s.extend(calibrate(max(1, round(wall / 0.25)), workload.workers))
        out.frames[unit] = 0
        if error:
            for g in range(len(entry.grid)):
                for si in range(len(entry.ebn0_db)):
                    out.points.append({**base, "key": f"{i}/{unit[1]}/{g}/{si}",
                                       "error": error.strip().splitlines()[-1]})
        for g, (_, result) in enumerate(results):
            out.csv.append((r, f"# round {r} entry {i} grid {g}\n{result.to_csv()}"))
            for si, pt in enumerate(result.points):
                out.frames[unit] += pt.frames
                d = pt.as_dict()
                out.points.append({**base, "key": f"{i}/{unit[1]}/{g}/{si}",
                                   "stats": {k: d[k] for k in ("ebn0_db", "frames", "bit_errors",
                                                               "frame_errors", "avg_iters",
                                                               "smooth_frac")},
                                   "total_iterations": pt.total_iterations})


def run_pass(harness, workload, configs, seed, name, seconds=0.0, rounds=1) -> Pass:
    """Run rounds until at least ``rounds`` ran and ``seconds`` have passed."""
    out = Pass()
    started = time.perf_counter()
    while out.rounds < rounds or time.perf_counter() - started < seconds:
        run_round(harness, workload, configs, seed, out.rounds, out, name)
        out.rounds += 1
    return out


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0


def install(tracer: Tracer, out_dir: Path) -> None:
    """Wrap every layer boundary where its caller looks the name up."""
    from ngdbf import harness
    from ngdbf.channel import QuantizerSpec
    from ngdbf.codes import ParityCheckCode
    from ngdbf.core import Stepper
    from ngdbf.noisy import NoiseSource

    main_pid = os.getpid()

    def count_worker_frame(args, kwargs):
        # Forked pool workers never return their spans; a one-byte append
        # per decoded frame lets the parent count the frames they decoded.
        pid = os.getpid()
        if pid != main_pid:
            with open(out_dir / f"decoded-{pid}", "ab") as fh:
                fh.write(b".")

    def decode_done(args, kwargs, result):
        t_max = args[2] if len(args) > 2 else kwargs["t_max"]
        tracer.counters["core.decode.iterations"] += result.iterations
        tracer.counters["core.decode.t_max_frames"] += result.iterations == t_max

    def minsum_done(args, kwargs, result):
        tracer.counters["minsum.decode.iterations"] += result.iterations

    tracer.patch(harness, "frame_rng", "harness.frame_rng")
    tracer.patch(harness, "transmit", "channel.transmit")
    tracer.patch(harness, "init_state", "core.init_state")
    tracer.patch(harness, "decode", "core.decode", on_result=decode_done)
    tracer.patch(harness, "decode_minsum", "minsum.decode", on_result=minsum_done)
    tracer.patch(harness, "decode_frame", "harness.decode_frame", on_call=count_worker_frame)
    tracer.patch(harness, "run_campaign", "harness.run_campaign")
    tracer.patch(harness, "ProcessPoolExecutor", "harness.pool_start")
    tracer.patch(ParityCheckCode, "syndrome", "codes.syndrome")
    tracer.patch(ParityCheckCode, "syndrome_sums", "codes.syndrome_sums")
    tracer.patch(NoiseSource, "draw", "noisy.draw")
    tracer.patch(QuantizerSpec, "to_index", "channel.to_index")
    step_names = {"gdbf": "gdbf.step", "noisy": "noisy.quantized_step"}
    pending = list(Stepper.__subclasses__())
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "step" in cls.__dict__:
            module = cls.__module__.rsplit(".", 1)[-1]
            tracer.patch(cls, "step", step_names.get(module, f"{module}.step"))


def chunk_args_bytes(config) -> int:
    """Pickled size of the arguments run_campaign submits with one chunk.

    Taken on the freshly loaded config, as the sweep's parent process sends
    it: the parent never decodes there, so the code's lazily built edge
    arrays are not yet part of the pickle.
    """
    from ngdbf.channel import ebn0_to_sigma
    ebn0 = config.ebn0_db[0]
    sigma = ebn0_to_sigma(ebn0, float(config.code.rate))
    return len(pickle.dumps((config.code, config.setup, config.params_at(ebn0), sigma,
                             config.y_max, config.master_seed, 0, 0,
                             min(CHUNK, config.frames))))


def layer_metrics(tracer: Tracer, workload, chunk_bytes: int, plain: Pass, traced: Pass,
                  out_dir: Path) -> dict:
    def us(ns, per):
        return ns / 1e3 / per if per else 0.0

    calls, total, counters = tracer.calls, tracer.total_ns, tracer.counters
    parent_frames = calls["harness.decode_frame"]
    worker_frames = sum(p.stat().st_size for p in out_dir.glob("decoded-*"))
    decode_iters = counters["core.decode.iterations"]
    core_points = [p for p in traced.points if "stats" in p and p["variant"] != "minsum"]
    core_iters = sum(p["total_iterations"] for p in core_points)
    core_frames = sum(p["stats"]["frames"] for p in core_points)
    counted = sum(p["stats"]["frames"] for p in traced.points if "stats" in p)
    _, plain_wall, _, plain_worker = plain.totals()
    m = {
        "codes.syndrome.calls": calls["codes.syndrome"],
        "codes.syndrome.us_per_call": us(total["codes.syndrome"], calls["codes.syndrome"]),
        "codes.syndrome_sums.calls": calls["codes.syndrome_sums"],
        "codes.syndrome_sums.us_per_call": us(total["codes.syndrome_sums"],
                                              calls["codes.syndrome_sums"]),
        "noisy.draw.calls": calls["noisy.draw"],
        "noisy.draw.us_per_call": us(total["noisy.draw"], calls["noisy.draw"]),
        "noisy.quantized_step.self_us_per_iter": us(tracer.self_ns("noisy.quantized_step"),
                                                    calls["noisy.quantized_step"]),
        "gdbf.step.calls": calls["gdbf.step"],
        "gdbf.step.self_us_per_iter": us(tracer.self_ns("gdbf.step"), calls["gdbf.step"]),
        "core.iterations": core_iters,
        "core.iters_per_frame": core_iters / core_frames if core_frames else 0.0,
        "core.t_max_frac": (counters["core.decode.t_max_frames"] / calls["core.decode"]
                            if calls["core.decode"] else 0.0),
        "core.decode.self_us_per_iter": us(tracer.self_ns("core.decode"), decode_iters),
        "channel.to_index.calls": calls["channel.to_index"],
        "channel.to_index.us_per_call": us(total["channel.to_index"], calls["channel.to_index"]),
        "minsum.decode.us_per_iter": us(total["minsum.decode"],
                                        counters["minsum.decode.iterations"]),
        "harness.frame_rng.us_per_frame": us(total["harness.frame_rng"], parent_frames),
        "channel.transmit.us_per_frame": us(total["channel.transmit"], parent_frames),
        "core.init_state.us_per_frame": us(total["core.init_state"], parent_frames),
        "harness.decode_frame.self_us_per_frame": us(tracer.self_ns("harness.decode_frame"),
                                                     parent_frames),
        "harness.useful_frame_frac": counted / (parent_frames + worker_frames),
        "harness.pool_starts": calls["harness.pool_start"],
        "harness.pool_busy_frac": (plain_worker / (workload.workers * plain_wall)
                                   if workload.workers > 1 else 0.0),
        "harness.chunk_args_bytes": chunk_bytes,
        "codes.load_alist_s": total["codes.load_alist"] / 1e9 / calls["codes.load_alist"],
        # Each pass's wall time is taken at its own machine speed.
        "trace.overhead_frac": (traced.totals()[1] / statistics.fmean(traced.kernel_s)
                                / plain.totals(inputs=workload.trace_rounds)[1]
                                * statistics.fmean(plain.kernel_s) - 1.0),
    }
    for key in VARIANT_KEYS:
        frames, wall, _, _ = plain.totals({i for i, e in enumerate(workload.entries) if e.key == key})
        m[f"harness.run_campaign.{key}.frames_per_s"] = frames / wall if wall else 0.0
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--rounds", type=int, help="run at least this many rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("configs", nargs="+")
    args = parser.parse_args(argv)

    src = Path(__file__).resolve().parent.parent / "src"
    import numpy
    import ngdbf
    from ngdbf import harness
    if src not in Path(ngdbf.__file__).resolve().parents:
        raise SystemExit(f"measure: imported ngdbf from {ngdbf.__file__}, not from {src}")

    workload = WORKLOADS[args.workload]
    tracer = Tracer()
    result = {"python": sys.version.split()[0], "numpy": numpy.__version__}
    if args.trace:
        tracer.patch(harness, "load_alist", "codes.load_alist")
    configs = [harness.load_config(path) for path in args.configs]
    tracer.restore()

    if args.trace:
        chunk_bytes = chunk_args_bytes(configs[0])
        plain = run_pass(harness, workload, configs, args.seed, "untraced",
                         seconds=args.seconds / 2, rounds=workload.trace_rounds)
        install(tracer, args.out)
        try:
            traced = run_pass(harness, workload, configs, args.seed, "traced",
                              rounds=workload.trace_rounds)
        finally:
            tracer.restore()
        (args.out / "untraced.csv").write_text(plain.csv_text(workload.trace_rounds))
        (args.out / "traced.csv").write_text(traced.csv_text(workload.trace_rounds))
        tracer.write_spans(args.out / "spans.jsonl")
        result.update(rounds=plain.rounds, points=plain.points + traced.points,
                      layers=layer_metrics(tracer, workload, chunk_bytes, plain, traced, args.out),
                      spans=tracer.table())
    else:
        plain = run_pass(harness, workload, configs, args.seed, "untraced",
                         seconds=args.seconds, rounds=args.rounds or 1)
        (args.out / "untraced.csv").write_text(plain.csv_text(plain.rounds))
        counted, wall, cpu, _ = plain.totals()
        kernel_s = statistics.fmean(plain.kernel_s)
        scale = REFERENCE_S / kernel_s
        result.update(rounds=plain.rounds, points=plain.points,
                      samples=[[list(unit), plain.frames[unit], samples]
                               for unit, samples in plain.samples.items()],
                      kernel_s=kernel_s, e2e={
                          "frames_per_s": counted / (wall * scale),
                          "cpu_ms_per_frame": 1e3 * cpu * scale / max(counted, 1),
                          "peak_rss_mb": _peak_rss_mb(),
                      }, raw={
                          "frames_per_s": counted / wall,
                          "cpu_ms_per_frame": 1e3 * cpu / max(counted, 1),
                      })
    (args.out / "result.json").write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
