"""Write a before/after benchmark record, ``BENCH_<short sha>.json``.

    python3 tools/bench_record.py [--checkout DIR] [--against DIR] [--out DIR] [--tier1]

Runs every perfbench workload of the checkout (this repository by
default) untraced once per seed 1, 2 and 3 and traced once per seed too,
each for ``run.py``'s default 30 s, through the checkout's own
``perfbench/run.py``.  Per workload the record holds each end-to-end
metric's median, quartiles and spread, the same for the unscaled timings,
every run's values, the traced per-layer split and the run environment.
The calibration kernel is timed 20 times right before and 20 times right
after each traced run, and every per-layer time of that run (a ``us_per_``
figure or one in seconds) is also given scaled by it, and every per-variant
rate by its inverse.  Each per-layer figure is recorded as its median over
the traced runs and as every run's value, so that the layer figures of two
records compare as their end-to-end figures do.
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

``--against DIR`` names a second clean checkout, normally the parent
commit's, and compares the two by alternating runs: for each workload and
seed it runs the checkout (A) and DIR (B) untraced in the order A B B A,
each through its own ``perfbench/run.py``, and pairs each A run with the B
run next to it.  For each end-to-end metric of the checkout's
``BENCHMARK.json`` the record's ``against`` entry holds every pair's ratio
(checkout over DIR), the median ratio with its quartiles, the number of
pairs in which the checkout was better, worse and equal, and the exact
two-sided sign-test p-value of those wins and losses.  The single-commit
fields are kept, from the checkout's A runs (two a seed).  With
``--tier1`` both checkouts also run tier-1 as one A B B A group, and the
record pairs their wall times the same way.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
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


def per_layer(workload: str, run) -> dict:
    """The traced split of one ``run`` per seed in ``SEEDS``, raw and scaled
    by the calibration kernel.

    A run's ``per_layer_scaled`` holds each time (``us_per_`` or in seconds,
    not a rate) times ``REFERENCE_S / mean kernel time`` over 20 kernel runs
    right before and 20 right after that run, and each per-variant rate
    ``harness.run_campaign.<variant>.frames_per_s`` times the inverse,
    ``mean kernel time / REFERENCE_S``.  ``per_layer`` and
    ``per_layer_scaled`` hold each figure's median over the runs, and
    ``per_layer_runs`` every run's figures and kernel times.  Call it after
    the checkout's ``perfbench`` directory is on ``sys.path``.
    """
    from calibrate import REFERENCE_S, calibrate

    runs = []
    for seed in SEEDS:
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
        runs.append({"seed": seed, "per_layer": layers, "per_layer_scaled": scaled,
                     "kernel_s": {"before": [round(k, 6) for k in before],
                                  "after": [round(k, 6) for k in after]}})
    medians = {key: {name: statistics.median(r[key][name] for r in runs) for name in runs[0][key]}
               for key in ("per_layer", "per_layer_scaled")}
    return {**medians, "per_layer_runs": runs}


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


def alternate(workload: str, run_a, run_b) -> list:
    """Untraced runs of ``workload`` by ``run_a`` and ``run_b`` in the order A B B A
    for each seed in ``SEEDS``: the (A, B) pairs of adjacent runs, two a seed."""
    pairs = []
    for seed in SEEDS:
        a1, b1, b2, a2 = (run(workload, seed, SECONDS, 0) for run in (run_a, run_b, run_b, run_a))
        pairs += [(a1, b1), (a2, b2)]
    return pairs


def sign_test(wins: int, losses: int) -> float:
    """Exact two-sided sign-test p-value of ``wins`` against ``losses`` (ties dropped)."""
    n = wins + losses
    tail = sum(math.comb(n, i) for i in range(min(wins, losses) + 1))
    return min(1.0, 2 * tail / 2 ** n)


def compare(pairs: list, better: dict, summarize) -> dict:
    """For each metric in ``better`` (its ``"higher"`` or ``"lower"``), the ratios
    A / B of ``pairs`` of run values, their median and quartiles (``summarize``),
    the counts of pairs where A was better, worse and equal, and the sign test."""
    out = {}
    for metric, direction in better.items():
        ratios = [a[metric] / b[metric] for a, b in pairs]
        sign = 1 if direction == "higher" else -1
        wins = sum(sign * (a[metric] - b[metric]) > 0 for a, b in pairs)
        losses = sum(sign * (a[metric] - b[metric]) < 0 for a, b in pairs)
        out[metric] = {"ratios": ratios, **summarize(ratios), "wins": wins, "losses": losses,
                       "ties": len(pairs) - wins - losses, "sign_test_p": sign_test(wins, losses)}
    return out


def load_baseline(checkout: Path, name: str):
    """``checkout``'s ``perfbench/baseline.py`` as module ``name``, whose ``run`` runs
    that checkout's ``run.py``."""
    spec = importlib.util.spec_from_file_location(name, checkout / "perfbench" / "baseline.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--checkout", type=Path, default=ROOT,
                        help="git checkout to measure (default: this repository)")
    parser.add_argument("--out", type=Path, default=ROOT, help="directory to write the record to")
    parser.add_argument("--tier1", action="store_true", help="also time the tier-1 suite")
    parser.add_argument("--against", type=Path,
                        help="checkout to compare with by alternating runs (the parent commit)")
    args = parser.parse_args()
    checkouts = [args.checkout.resolve()] + ([args.against.resolve()] if args.against else [])
    for checkout in checkouts:
        dirty = git(checkout, "status", "--porcelain", "--", *MEASURED)
        if dirty:
            parser.error(f"{checkout} has uncommitted changes; commit them first:\n{dirty}")
    checkout, sha = checkouts[0], git(checkouts[0], "rev-parse", "HEAD")

    # The checkout's own runner and summary, so both sides of a comparison
    # are measured with the benchmark code of their commit.
    sys.path.insert(0, str(checkout / "perfbench"))
    from baseline import run, summarize
    from workloads import WORKLOADS

    record = {"git_sha": sha, "seeds": list(SEEDS), "seconds": SECONDS, "workloads": {}}
    if args.against:
        run_b = load_baseline(checkouts[1], "against_baseline").run
        better = {m["name"]: m["better"] for m in
                  json.loads((checkout / "BENCHMARK.json").read_text())["end_to_end"]}
        record["against"] = {"git_sha": git(checkouts[1], "rev-parse", "HEAD"), "order": "ABBA",
                             "workloads": {}}
    for name in sorted(WORKLOADS):
        if args.against:
            pairs = alternate(name, run, run_b)
            runs = [a for a, _ in pairs]
            paired = compare([(a["metrics"], b["metrics"]) for a, b in pairs], better, summarize)
            record["against"]["workloads"][name] = {
                **paired, "runs": [{"seed": a["seed"], "a": a["metrics"], "b": b["metrics"]}
                                   for a, b in pairs]}
            for metric, c in paired.items():
                print(f"{name}: {metric} ratio median {c['median']:.4f} "
                      f"(q1 {c['q1']:.4f}, q3 {c['q3']:.4f}), better in {c['wins']} of "
                      f"{len(pairs)}, sign test p {c['sign_test_p']:.3g}", flush=True)
        else:
            runs = [run(name, seed, SECONDS, 0) for seed in SEEDS]
        record["workloads"][name] = workload_record(runs, per_layer(name, run), summarize)
        fps = record["workloads"][name]["end_to_end"]["frames_per_s"]
        print(f"{name}: frames_per_s median {fps['median']:.6g} "
              f"(q1 {fps['q1']:.6g}, q3 {fps['q3']:.6g})", flush=True)
    if args.tier1:
        record["tier1"] = a1 = tier1(checkout)
        print(f"tier-1: {a1['summary']}", flush=True)
        if args.against:    # the rest of one A B B A group
            b1, b2, a2 = tier1(checkouts[1]), tier1(checkouts[1]), tier1(checkout)
            record["against"]["tier1"] = {"a": [a1, a2], "b": [b1, b2],
                                          "wall_ratios": [a1["wall_s"] / b1["wall_s"],
                                                          a2["wall_s"] / b2["wall_s"]]}
    path = args.out / f"BENCH_{sha[:7]}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
