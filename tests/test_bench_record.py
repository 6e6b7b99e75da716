"""``tools/bench_record.py --tier1`` scales the suite's wall time by the
calibration kernel timed right before and right after the run."""

import importlib.util
import subprocess
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent


def test_tier1_wall_time_is_scaled_by_the_kernel(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import calibrate
    spec = importlib.util.spec_from_file_location("bench_record",
                                                  ROOT / "tools" / "bench_record.py")
    bench_record = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_record)

    kernels = iter(([0.02] * 20, [0.03] * 20))
    clock = iter((100.0, 150.0))
    out = "FAILED tests/test_x.py::test_y\n1 failed, 2 passed in 50.0s\n"
    monkeypatch.setattr(calibrate, "calibrate", lambda runs: next(kernels))
    monkeypatch.setattr(bench_record, "time", SimpleNamespace(monotonic=lambda: next(clock)))
    monkeypatch.setattr(bench_record, "subprocess", SimpleNamespace(
        run=lambda argv, **kw: subprocess.CompletedProcess(argv, 1, out, "")))

    record = bench_record.tier1(ROOT)
    assert record["wall_s"] == 50.0
    assert record["kernel_s"] == {"before": [0.02] * 20, "after": [0.03] * 20}
    assert record["scaled_wall_s"] == 20.0     # 50 s * 0.010 s / mean(0.025 s)
    assert record["passed"] == 2 and record["failed"] == 1
    assert record["failed_tests"] == ["tests/test_x.py::test_y"]
