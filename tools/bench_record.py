"""Write a before/after benchmark record, ``BENCH_<short sha>.json``.

    python3 tools/bench_record.py --against DIR [--tier1]

Compares this repository (A) with DIR (B), a second clean checkout,
normally of the parent commit, by alternating runs: for each perfbench
workload and each seed 1, 2 and 3 it runs A and B untraced in the order
A B B A, each for ``run.py``'s default 30 s through its own
``perfbench/run.py``, and pairs each A run with the B run next to it.
For each end-to-end metric of ``BENCHMARK.json`` the record's ``against``
entry holds every pair's ratio (A over B), the median ratio with its
quartiles, the number of pairs in which A was better, worse and equal,
and the exact two-sided sign-test p-value of those wins and losses.

The single-commit fields come from A alone, so that the records of
successive commits still line up: per workload, each end-to-end metric's
median, quartiles and spread over A's six runs, the same for the unscaled
timings, every run's values, the run environment, and the per-layer split
of one traced run of A per seed, as each figure's median (``per_layer``)
and every run's figures (``per_layer_runs``).  ``--tier1`` also runs both
tier-1 suites as one A B B A group and records each run's wall time,
passed and failed counts and failed tests, and the two wall-time ratios.

The record is named after A's commit and written to this repository's
root.  A checkout with uncommitted changes under ``src``, ``perfbench`` or
``tests`` is refused, since its record would be filed under a commit whose
code it did not measure.  Any run that is not correct stops the tool
without writing a record.
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

ROOT = Path(__file__).resolve().parent.parent   # the checkout measured, and where its record goes
TIER1 = ["-m", "pytest", "-q", "-rf", "--continue-on-collection-errors", "-p", "no:cacheprovider"]
SEEDS = (1, 2, 3)
SECONDS = 30        # perfbench/run.py's default run length
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
    """The traced split of one ``run`` of ``workload`` per seed in ``SEEDS``:
    each figure's median over the runs (``per_layer``) and every run's
    figures (``per_layer_runs``)."""
    runs = [{"seed": seed, "per_layer": run(workload, seed, SECONDS, 1)["metrics"]}
            for seed in SEEDS]
    return {"per_layer": {name: statistics.median(r["per_layer"][name] for r in runs)
                          for name in runs[0]["per_layer"]},
            "per_layer_runs": runs}


def tier1(checkout: Path) -> dict:
    """Wall time and outcome counts of one tier-1 run in ``checkout``."""
    paths = [str(checkout / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    started = time.monotonic()
    with subprocess.Popen([sys.executable, *TIER1], cwd=checkout, env=env, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as suite:
        stdout, _ = suite.communicate()
    wall = time.monotonic() - started
    summary = stdout.strip().splitlines()[-1] if stdout.strip() else ""
    counts = {kind: int(n) for n, kind in re.findall(r"(\d+) (passed|failed|errors?|skipped)",
                                                     summary)}
    return {"wall_s": round(wall, 1), "summary": summary, **counts,
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
    parser.add_argument("--against", type=Path, required=True,
                        help="clean checkout to compare with by alternating runs (the parent commit)")
    parser.add_argument("--tier1", action="store_true", help="also time both tier-1 suites")
    args = parser.parse_args()
    against = args.against.resolve()
    for checkout in (ROOT, against):
        dirty = git(checkout, "status", "--porcelain", "--", *MEASURED)
        if dirty:
            parser.error(f"{checkout} has uncommitted changes; commit them first:\n{dirty}")
    sha = git(ROOT, "rev-parse", "HEAD")

    # Each side's own runner, so both are measured with the benchmark code of their commit.
    sys.path.insert(0, str(ROOT / "perfbench"))
    from baseline import run, summarize
    from workloads import WORKLOADS

    run_b = load_baseline(against, "against_baseline").run
    better = {m["name"]: m["better"] for m in
              json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    paired_record = {"git_sha": git(against, "rev-parse", "HEAD"), "order": "ABBA", "workloads": {}}
    record = {"git_sha": sha, "seeds": list(SEEDS), "seconds": SECONDS, "workloads": {},
              "against": paired_record}
    for name in sorted(WORKLOADS):
        pairs = alternate(name, run, run_b)
        paired = compare([(a["metrics"], b["metrics"]) for a, b in pairs], better, summarize)
        paired_record["workloads"][name] = {
            **paired, "runs": [{"seed": a["seed"], "a": a["metrics"], "b": b["metrics"]}
                               for a, b in pairs]}
        for metric, c in paired.items():
            print(f"{name}: {metric} ratio median {c['median']:.4f} "
                  f"(q1 {c['q1']:.4f}, q3 {c['q3']:.4f}), better in {c['wins']} of "
                  f"{len(pairs)}, sign test p {c['sign_test_p']:.3g}", flush=True)
        record["workloads"][name] = workload_record([a for a, _ in pairs], per_layer(name, run),
                                                    summarize)
    if args.tier1:
        a1, b1, b2, a2 = (tier1(checkout) for checkout in (ROOT, against, against, ROOT))
        record["tier1"] = a1
        paired_record["tier1"] = {"a": [a1, a2], "b": [b1, b2],
                                  "wall_ratios": [a1["wall_s"] / b1["wall_s"],
                                                  a2["wall_s"] / b2["wall_s"]]}
        print(f"tier-1: {a1['summary']} / {a2['summary']}", flush=True)
    path = ROOT / f"BENCH_{sha[:7]}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
