"""Write a before/after benchmark record, ``BENCH_<short sha>.json``.

    python3 tools/bench_record.py [--checkout DIR] [--out DIR] [--tier1]

Runs every perfbench workload of the checkout (this repository by
default) untraced once per seed 1, 2 and 3 and traced once with seed 1,
each for ``run.py``'s default 30 s, through the checkout's own
``perfbench/run.py``.  Per workload the record holds each end-to-end
metric's median, quartiles and spread, the same for the unscaled timings,
every run's values, the traced per-layer split and the run environment.
The calibration kernel is timed 20 times right before and 20 times right
after the traced run, and every per-layer time (a ``us_per_`` figure or
one in seconds) is also given scaled by it, and every per-variant rate by
its inverse, so that the layer figures of two records compare as their
end-to-end figures do.
``--tier1`` also runs the checkout's tier-1 suite once and records its
wall time and its passed and failed counts; the wall time is also given
scaled by the checkout's ``perfbench/calibrate.py`` kernel, timed once
about every 5 s while the suite runs, as perfbench scales its timings, so
that records made while the machine ran slower compare.  The record is
written to ``--out`` (this repository's root by default), named after the
checkout's commit, so the records of two commits measured on the same
machine can be compared side by side.  A checkout with uncommitted changes
under ``src``, ``perfbench`` or ``tests`` is refused, since its record
would be filed under a commit whose code it did not measure.  Any run that
is not correct stops the tool without writing a record.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIER1 = ["-m", "pytest", "-q", "-rf", "--continue-on-collection-errors", "-p", "no:cacheprovider"]
SEEDS = (1, 2, 3)
SECONDS = 30        # perfbench/run.py's default run length
KERNEL_EVERY_S = 5  # tier-1 wall time between two calibration kernel samples
MEASURED = ("src", "perfbench", "tests")


def git(checkout: Path, *args: str) -> str:
    return subprocess.run(["git", "-C", str(checkout), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def workload_record(runs: list, layers: dict, summarize) -> dict:
    """One workload's entry from its untraced ``runs`` and :func:`per_layer`.

    Beyond ``layers``, the same record as a workload's entry in
    ``perfbench/baseline.json``, which ``perfbench/baseline.py`` builds inline.
    """
    return {
        "environment": runs[0]["environment"],
        "end_to_end": {metric: summarize([r["metrics"][metric] for r in runs])
                       for metric in runs[0]["metrics"]},
        "unscaled": {metric: summarize([r["unscaled"][metric] for r in runs])
                     for metric in runs[0]["unscaled"]},
        "runs": [{"seed": r["seed"], **r["metrics"]} for r in runs],
        **layers,
    }


def per_layer(workload: str, run, seed: int) -> dict:
    """The traced split of one ``run``, raw and scaled by the calibration kernel.

    ``per_layer_scaled`` holds each time (``us_per_`` or in seconds, not a
    rate) times ``REFERENCE_S / mean kernel time`` over 20 kernel runs right
    before and 20 right after the traced run, and
    each per-variant rate ``harness.run_campaign.<variant>.frames_per_s``
    times the inverse, ``mean kernel time / REFERENCE_S``.  Call it after the
    checkout's ``perfbench`` directory is on ``sys.path``.
    """
    from calibrate import REFERENCE_S, calibrate

    before = calibrate(20)
    traced = run(workload, seed, SECONDS, 1)
    after = calibrate(20)
    scale = REFERENCE_S / statistics.mean(before + after)
    layers, scaled = traced["metrics"], {}
    for name, value in layers.items():
        if "us_per_" in name or (name.endswith("_s") and not name.endswith("per_s")):
            scaled[name] = value * scale
        elif re.fullmatch(r"harness\.run_campaign\..+\.frames_per_s", name):
            scaled[name] = value / scale
    return {"per_layer": layers,
            "per_layer_kernel_s": {"before": [round(k, 6) for k in before],
                                   "after": [round(k, 6) for k in after]},
            "per_layer_scaled": scaled}


def tier1(checkout: Path) -> dict:
    """Wall time and outcome counts of one tier-1 run in ``checkout``.

    ``scaled_wall_s`` is ``wall_s * REFERENCE_S / mean kernel time`` over
    one run of the calibration kernel as the suite starts and one about
    every ``KERNEL_EVERY_S`` while it runs, so that the samples cover the
    whole run, not only the time around it.  The kernel shares the machine
    with the suite, as it does for every checkout measured.  Call it after
    the checkout's ``perfbench`` directory is on ``sys.path``.
    """
    from calibrate import REFERENCE_S, calibrate

    paths = [str(checkout / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    calibrate(1)    # the first run pays numpy's one-off allocations
    kernels = []
    started = time.monotonic()
    with subprocess.Popen([sys.executable, *TIER1], cwd=checkout, env=env, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as suite:
        while True:
            kernels += calibrate(1)
            try:    # a timeout loses none of the output read so far
                stdout, _ = suite.communicate(timeout=KERNEL_EVERY_S)
                break
            except subprocess.TimeoutExpired:
                pass
    wall = time.monotonic() - started
    summary = stdout.strip().splitlines()[-1] if stdout.strip() else ""
    counts = {kind: int(n) for n, kind in re.findall(r"(\d+) (passed|failed|errors?|skipped)",
                                                     summary)}
    return {"wall_s": round(wall, 1),
            "scaled_wall_s": round(wall * REFERENCE_S / statistics.mean(kernels), 1),
            "kernel_s": [round(k, 6) for k in kernels],
            "summary": summary, **counts,
            "failed_tests": re.findall(r"^FAILED (\S+)", stdout, re.MULTILINE),
            "cpus_usable": len(os.sched_getaffinity(0))}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--checkout", type=Path, default=ROOT,
                        help="git checkout to measure (default: this repository)")
    parser.add_argument("--out", type=Path, default=ROOT, help="directory to write the record to")
    parser.add_argument("--tier1", action="store_true", help="also time the tier-1 suite")
    args = parser.parse_args()
    checkout = args.checkout.resolve()
    sha = git(checkout, "rev-parse", "HEAD")
    dirty = git(checkout, "status", "--porcelain", "--", *MEASURED)
    if dirty:
        parser.error(f"{checkout} has uncommitted changes; commit them first:\n{dirty}")

    # The checkout's own runner and summary, so both sides of a comparison
    # are measured with the benchmark code of their commit.
    sys.path.insert(0, str(checkout / "perfbench"))
    from baseline import run, summarize
    from workloads import DEFAULT_SEED, WORKLOADS

    record = {"git_sha": sha, "seeds": list(SEEDS), "seconds": SECONDS, "workloads": {}}
    for name in sorted(WORKLOADS):
        runs = [run(name, seed, SECONDS, 0) for seed in SEEDS]
        record["workloads"][name] = workload_record(runs, per_layer(name, run, DEFAULT_SEED),
                                                    summarize)
        fps = record["workloads"][name]["end_to_end"]["frames_per_s"]
        print(f"{name}: frames_per_s median {fps['median']:.6g} "
              f"(q1 {fps['q1']:.6g}, q3 {fps['q3']:.6g})", flush=True)
    if args.tier1:
        record["tier1"] = tier1(checkout)
        print(f"tier-1: {record['tier1']['summary']}", flush=True)
    path = args.out / f"BENCH_{sha[:7]}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
