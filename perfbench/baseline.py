"""Measure the baseline and write ``baseline.json``.

    python3 perfbench/baseline.py [--seeds 10] [--seconds 30] [WORKLOAD ...]

Runs ``run.py`` untraced once per seed 1..N for each workload and records
every end-to-end metric's median, quartiles (``statistics.quantiles(n=4)``),
spread (quartile distance over median) and sample count, and the same for
the unscaled timings; then runs each workload once traced with the default
seed and records its per-layer table.  Fails if any run is not correct.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          capture_output=True, text=True, cwd=HERE.parent, timeout=300)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} is not correct:\n{done.stderr}")
    lines = done.stdout.splitlines()
    env = json.loads(lines[0].split(":", 1)[1])
    unscaled = {}
    if lines[1].startswith("unscaled: "):
        unscaled = json.loads(lines[1][len("unscaled: "):].split(" (", 1)[0])
    return {"seed": seed, "environment": env, "unscaled": unscaled,
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def summarize(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "n": len(values)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("workloads", nargs="*", default=sorted(WORKLOADS))
    args = parser.parse_args()
    path = HERE / "baseline.json"
    baseline = json.loads(path.read_text()) if path.is_file() else {}
    for name in args.workloads:
        runs = []
        for seed in range(1, args.seeds + 1):
            runs.append(run(name, seed, args.seconds, 0))
            print(name, seed, runs[-1]["metrics"], flush=True)
        traced = run(name, DEFAULT_SEED, args.seconds, 1)
        baseline[name] = {
            "environment": runs[0]["environment"],
            "end_to_end": {metric: summarize([r["metrics"][metric] for r in runs])
                           for metric in runs[0]["metrics"]},
            "unscaled": {metric: summarize([r["unscaled"][metric] for r in runs])
                         for metric in runs[0]["unscaled"]},
            "runs": [{"seed": r["seed"], **r["metrics"]} for r in runs],
            "per_layer": traced["metrics"],
        }
        for metric, s in baseline[name]["end_to_end"].items():
            print(f"{name} {metric}: median {s['median']:.6g} spread {s['spread']:.4f}")
        path.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
