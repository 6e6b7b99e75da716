"""Each benchmark workload runs traced to a correct result.

``tests/test_bench_hooks.py`` checks the tracer's hooks in process.  This
runs the benchmark itself, as its command line does, for a moment on each
workload: a traced run that divides by a layer no frame reaches, or whose
campaigns fail their checks, exits non-zero or reports it here.  The run
writes under the git-ignored ``.perfbench_out/``.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from .test_bench_hooks import MISSING, not_found

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.slow
@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_is_correct(workload):
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", "1", "--seconds", "0.01", "--trace", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    last = json.loads(done.stdout.splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0, last
    assert set(not_found(done.stderr)) <= set(MISSING), done.stderr[-2000:]
