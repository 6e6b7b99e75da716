"""Campaign benchmark for ngdbf.

Runs one workload of Monte Carlo campaigns through the public API
(``load_config``, ``run_campaign``, ``run_sweep``) on the bundled n=1008
code, checks every campaign point's statistics, and prints each metric by
name with its unit.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

    python3 perfbench/run.py --workload waterfall-float --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports the
per-layer split from a traced replay.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import REFERENCE_S
from measure import PER_LAYER
from workloads import CHUNK, CODE, DEFAULT_SEED, WORKLOADS, write_configs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
OUT = ROOT / ".perfbench_out"

END_TO_END = {
    "frames_per_s": "frames/s",
    "cpu_ms_per_frame": "ms/frame",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
FIELDS = ("frames", "bit_errors", "frame_errors", "avg_iters", "smooth_frac")
SETUP_PROBES = 11
DEADLINE_S = 170.0


# ---------------------------------------------------------------------------
# correctness
# ---------------------------------------------------------------------------


def _point_failure(point: dict, reference: dict | None, seen: dict) -> str | None:
    if "error" in point:
        return f"raised {point['error']}"
    s = point["stats"]
    frames, frame_errors, bit_errors = s["frames"], s["frame_errors"], s["bit_errors"]
    budget, target = point["budget"], point["target"]
    if not 1 <= frames <= budget:
        return f"{frames} frames outside 1..{budget}"
    if frame_errors > frames:
        return f"{frame_errors} frame errors in {frames} frames"
    if bit_errors < frame_errors:
        return f"{bit_errors} bit errors under {frame_errors} frame errors"
    if frames < budget and (frames % CHUNK or target is None or frame_errors < target):
        return f"stopped at {frames} frames: not a chunk boundary with the error target met"
    if not 0 <= s["avg_iters"] <= point["t_max"]:
        return f"average of {s['avg_iters']} iterations outside 0..{point['t_max']}"
    got = {k: s[k] for k in FIELDS}
    first = seen.setdefault(point["key"], got)
    if first != got:
        return f"{got} differs from {first} for the same inputs earlier in this run"
    if reference is not None:
        want = reference.get(point["key"])
        if want != got:
            return f"{got} differs from the reference {want}"
    return None


def check_points(points: list, reference: dict | None) -> list:
    """One message per failed point.

    A point fails if its campaign raised, if its statistics break an
    invariant that holds for every seed, if it differs from the same inputs
    run earlier in this process, or if it differs from ``reference`` (the
    recorded statistics of the default seed, keyed like the points).
    """
    seen = {}
    failures = []
    for point in points:
        reason = _point_failure(point, reference, seen)
        if reason:
            failures.append(f"{point['pass']} round {point['round']} point {point['key']}: "
                            f"{reason}")
    return failures


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def child_env() -> dict:
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))


def run_child(cmd: list, timeout: float | None) -> int | None:
    """Run ``cmd`` in its own process group; kill the group on timeout."""
    proc = subprocess.Popen(cmd, env=child_env(), stdout=sys.stderr, start_new_session=True)
    try:
        return proc.wait(timeout=None if timeout is None else max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        print(f"perfbench: {cmd[1]} ran past its deadline", file=sys.stderr)
        return None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


def measure_setup(configs: list) -> tuple:
    """Median set-up time over fresh interpreters, as (scaled, raw) seconds.

    The first interpreter only warms caches.  The scaling is by the median
    calibration kernel time of the probes (see ``calibrate.py``).
    """
    times, kernels = [], []
    for i in range(SETUP_PROBES + 1):
        done = subprocess.run([sys.executable, str(HERE / "probe.py"), *configs],
                              env=child_env(), capture_output=True, text=True, timeout=60)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
        if i:
            elapsed, kernel = done.stdout.split()[-2:]
            times.append(float(elapsed))
            kernels.append(float(kernel))
    raw = statistics.median(times)
    return raw * REFERENCE_S / statistics.median(kernels), raw


def measure(workload, seed: int, seconds: float, trace: int, out_dir: Path,
            rounds: int | None = None) -> tuple:
    """Run the measured process; return (its result, (scaled, raw) set-up s or None)."""
    started = time.monotonic()
    configs = write_configs(workload, seed, ROOT, out_dir)
    setup = None if trace or rounds else measure_setup(configs)
    cmd = [sys.executable, str(HERE / "measure.py"), "--workload", workload.name,
           "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(trace),
           "--out", str(out_dir), *configs]
    if rounds:
        cmd += ["--rounds", str(rounds)]
    deadline = None if rounds else DEADLINE_S - (time.monotonic() - started)
    if run_child(cmd, deadline) != 0:
        raise RuntimeError("the measured process failed")
    return json.loads((out_dir / "result.json").read_text()), setup


# ---------------------------------------------------------------------------
# environment and report
# ---------------------------------------------------------------------------


def _git_sha() -> str:
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def environment(result: dict, workload) -> dict:
    return {"git_sha": _git_sha(), "python": result["python"], "numpy": result["numpy"],
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model(), "workers": workload.workers}


def report_lines(workload: str, metrics: dict, failed: int, attempted: int) -> list:
    lines = [f"{workload}  {name} = {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    lines.append(f"{workload}  failed_frac = {failed / attempted:.6g} ratio "
                 f"({failed} of {attempted} campaign points)")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    if not (ROOT / "src" / "ngdbf" / "__init__.py").is_file() or not (ROOT / CODE).is_file():
        print(f"perfbench: no ngdbf source tree and bundled code under {ROOT}", file=sys.stderr)
        return 2

    # Turn a termination request into SystemExit so that run_child's cleanup
    # still kills the measured process group.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workload = WORKLOADS[args.workload]
    out_dir = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    for stale in out_dir.glob("*") if out_dir.is_dir() else ():
        stale.unlink()
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        result, setup = measure(workload, args.seed, args.seconds, args.trace, out_dir)
    except (RuntimeError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    reference = None
    if args.seed == DEFAULT_SEED and REFERENCE.is_file():
        reference = json.loads(REFERENCE.read_text()).get(workload.name)
    failures = check_points(result["points"], reference)
    failed = len(failures)
    if args.trace and ((out_dir / "traced.csv").read_bytes()
                       != (out_dir / "untraced.csv").read_bytes()):
        failures.append("the traced run's campaign CSV differs from the untraced run's")
    for message in failures:
        print(f"FAILED {message}", file=sys.stderr)

    if args.trace:
        metrics = {name: {"value": result["layers"][name], "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        values = dict(result["e2e"], setup_s=setup[0])
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
        raw = dict(result["raw"], setup_s=setup[1], kernel_ms=1e3 * result["kernel_s"])
    attempted = len(result["points"])
    env = environment(result, workload)
    summary = {"correct": not failures, "attempted": attempted, "failed": failed,
               "metrics": metrics}
    (out_dir / "summary.json").write_text(json.dumps(
        dict(summary, workload=workload.name, seed=args.seed, rounds=result["rounds"],
             environment=env, raw=None if args.trace else raw), indent=1))
    print(f"environment: {json.dumps(env)}")
    if not args.trace:
        print(f"unscaled: {json.dumps(raw)} (timings below are scaled to a "
              f"{1e3 * REFERENCE_S:g} ms calibration kernel)")
    print("\n".join(report_lines(workload.name, metrics, failed, attempted)))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
