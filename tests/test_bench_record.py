"""``tools/bench_record.py`` scales the tier-1 wall time by the calibration
kernel timed throughout the suite, and the traced per-layer times and the
per-variant rates by the kernel timed right before and right after each run."""

import importlib.util
import subprocess
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parent.parent


def load_bench_record(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    spec = importlib.util.spec_from_file_location("bench_record",
                                                  ROOT / "tools" / "bench_record.py")
    bench_record = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_record)
    return bench_record


def test_tier1_wall_time_is_scaled_by_the_kernel(monkeypatch):
    bench_record = load_bench_record(monkeypatch)
    import calibrate

    kernels = iter(([0.5], [0.02], [0.03], [0.025]))     # the first is a warm-up
    clock = iter((100.0, 150.0))
    out = "FAILED tests/test_x.py::test_y\n1 failed, 2 passed in 50.0s\n"
    waits = []

    class Suite:
        """The suite runs through two kernel intervals, then exits."""

        def __init__(self, argv, **kw):
            assert kw["stdout"] == subprocess.PIPE and kw["cwd"] == ROOT

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def communicate(self, timeout):
            waits.append(timeout)
            if len(waits) < 3:
                raise subprocess.TimeoutExpired("pytest", timeout)
            return out, ""

    monkeypatch.setattr(calibrate, "calibrate", lambda runs: next(kernels))
    monkeypatch.setattr(bench_record, "time", SimpleNamespace(monotonic=lambda: next(clock)))
    monkeypatch.setattr(bench_record, "subprocess", SimpleNamespace(
        Popen=Suite, PIPE=subprocess.PIPE, TimeoutExpired=subprocess.TimeoutExpired))

    record = bench_record.tier1(ROOT)
    # one kernel sample as the suite starts and one after each interval it outlasts
    assert waits == [bench_record.KERNEL_EVERY_S] * 3
    assert record["wall_s"] == 50.0
    assert record["kernel_s"] == [0.02, 0.03, 0.025]
    assert record["scaled_wall_s"] == 20.0     # 50 s * 0.010 s / mean(0.025 s)
    assert record["passed"] == 2 and record["failed"] == 1
    assert record["failed_tests"] == ["tests/test_x.py::test_y"]


def test_per_layer_times_are_scaled_by_the_kernel_around_the_traced_run(monkeypatch):
    bench_record = load_bench_record(monkeypatch)
    import calibrate

    events = []

    def fake_calibrate(runs):
        events.append("kernel")
        return [0.02] * runs if len(events) == 1 else [0.03] * runs

    def fake_run(workload, seed, seconds, trace):
        events.append((workload, seed, seconds, trace))
        return {"metrics": {"codes.syndrome.us_per_call": 5.0, "codes.syndrome.calls": 7,
                            "gdbf.step.self_us_per_iter": 2.5, "codes.load_alist_s": 0.02,
                            "harness.run_campaign.sgdbf.frames_per_s": 400.0,
                            "harness.run_campaign.mngdbf-q4.frames_per_s": 100.0,
                            "sweep.frames_per_s": 50.0, "trace.overhead_frac": 0.3}}

    monkeypatch.setattr(calibrate, "calibrate", fake_calibrate)
    layers = bench_record.per_layer("waterfall-float", fake_run, 1)
    assert events == ["kernel", ("waterfall-float", 1, bench_record.SECONDS, 1), "kernel"]
    assert layers["per_layer"] == fake_run("", 0, 0, 0)["metrics"]
    assert layers["per_layer_kernel_s"] == {"before": [0.02] * 20, "after": [0.03] * 20}
    # times go by 0.010 s / mean(0.025 s) and per-variant rates by the inverse;
    # counts, ratios and other rates are left out
    assert layers["per_layer_scaled"] == pytest.approx({
        "codes.syndrome.us_per_call": 2.0, "gdbf.step.self_us_per_iter": 1.0,
        "codes.load_alist_s": 0.008, "harness.run_campaign.sgdbf.frames_per_s": 1000.0,
        "harness.run_campaign.mngdbf-q4.frames_per_s": 250.0})
    record = bench_record.workload_record([{"environment": {}, "seed": 1, "metrics": {"m": 1.0},
                                            "unscaled": {}}] * 3, layers,
                                          lambda values: sorted(values))
    assert {"per_layer", "per_layer_kernel_s", "per_layer_scaled"} <= set(record)
