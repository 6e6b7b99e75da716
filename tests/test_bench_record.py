"""``tools/bench_record.py`` runs this repository against a parent checkout
in A B B A order, pairs adjacent runs, and records each metric's ratios,
wins and exact sign test.  It traces one run of this repository per seed and
records each per-layer figure's median and every run, times each tier-1 run
whole, and times no calibration kernel."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path
from types import ModuleType, SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parent.parent


def load_bench_record(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    spec = importlib.util.spec_from_file_location("bench_record",
                                                  ROOT / "tools" / "bench_record.py")
    bench_record = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_record)
    return bench_record


def no_kernel(runs):
    raise AssertionError("the calibration kernel is not timed")


def test_tier1_records_wall_time_counts_and_failed_tests(monkeypatch):
    bench_record = load_bench_record(monkeypatch)
    import calibrate

    clock = iter((100.0, 150.0))
    out = "FAILED tests/test_x.py::test_y\n1 failed, 2 passed in 50.0s\n"
    waits = []

    class Suite:
        def __init__(self, argv, **kw):
            assert kw["stdout"] == subprocess.PIPE and kw["cwd"] == ROOT

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def communicate(self, timeout=None):
            waits.append(timeout)
            return out, ""

    monkeypatch.setattr(calibrate, "calibrate", no_kernel)
    monkeypatch.setattr(bench_record, "time", SimpleNamespace(monotonic=lambda: next(clock)))
    monkeypatch.setattr(bench_record, "subprocess", SimpleNamespace(Popen=Suite,
                                                                    PIPE=subprocess.PIPE))
    record = bench_record.tier1(ROOT)
    assert waits == [None]      # one wait for the whole suite, with no kernel timed beside it
    assert record["wall_s"] == 50.0
    assert record["passed"] == 2 and record["failed"] == 1
    assert record["failed_tests"] == ["tests/test_x.py::test_y"]
    assert record["summary"] == "1 failed, 2 passed in 50.0s"


def test_per_layer_holds_each_figures_median_and_every_run(monkeypatch):
    bench_record = load_bench_record(monkeypatch)
    import calibrate

    events = []
    speed = {1: 1.0, 2: 2.0, 3: 0.5}     # seed 2 ran twice as fast, seed 3 half

    def fake_run(workload, seed, seconds, trace):
        events.append((workload, seed, seconds, trace))
        f = speed[seed]
        return {"metrics": {"codes.syndrome.us_per_call": 5.0 / f,
                            "codes.syndrome.calls": 6 + seed,
                            "harness.run_campaign.sgdbf.frames_per_s": 400.0 * f,
                            "trace.overhead_frac": 0.3}}

    monkeypatch.setattr(calibrate, "calibrate", no_kernel)
    layers = bench_record.per_layer("waterfall-float", fake_run)
    assert events == [("waterfall-float", seed, bench_record.SECONDS, 1)
                      for seed in bench_record.SEEDS]
    runs = layers["per_layer_runs"]
    assert [r["seed"] for r in runs] == [1, 2, 3]
    assert [r["per_layer"] for r in runs] == [fake_run("", s, 0, 0)["metrics"] for s in (1, 2, 3)]
    assert all(set(r) == {"seed", "per_layer"} for r in runs)   # no kernel times
    # each figure is its median over the runs, taken unscaled
    assert layers["per_layer"] == pytest.approx({
        "codes.syndrome.us_per_call": 5.0, "codes.syndrome.calls": 8,
        "harness.run_campaign.sgdbf.frames_per_s": 400.0, "trace.overhead_frac": 0.3})
    record = bench_record.workload_record([{"environment": {}, "seed": 1, "metrics": {"m": 1.0},
                                            "unscaled": {}}] * 3, layers,
                                          lambda values: sorted(values))
    assert {"per_layer", "per_layer_runs"} <= set(record)


def test_alternating_runs_go_abba_and_pair_adjacent_runs(monkeypatch):
    bench_record = load_bench_record(monkeypatch)
    events = []

    def runner(side):
        def run(workload, seed, seconds, trace):
            events.append((side, workload, seed, seconds, trace))
            return {"side": side, "seed": seed, "order": len(events)}
        return run

    pairs = bench_record.alternate("sweep-early-stop", runner("a"), runner("b"))
    assert [e[0] for e in events] == list("abba") * len(bench_record.SEEDS)
    assert {e[1:] for e in events} == {("sweep-early-stop", seed, bench_record.SECONDS, 0)
                                       for seed in bench_record.SEEDS}
    # each A run is paired with the B run next to it: 1-2 and 4-3, 5-6 and 8-7, ...
    assert [(a["order"], b["order"]) for a, b in pairs] == [
        (4 * i + 1, 4 * i + 2) if j == 0 else (4 * i + 4, 4 * i + 3)
        for i in range(len(bench_record.SEEDS)) for j in (0, 1)]
    assert all(a["side"] == "a" and b["side"] == "b" and a["seed"] == b["seed"]
               for a, b in pairs)


def test_sign_test_is_exact_and_two_sided(monkeypatch):
    bench_record = load_bench_record(monkeypatch)
    assert bench_record.sign_test(6, 0) == bench_record.sign_test(0, 6) == 2 / 64
    assert bench_record.sign_test(5, 1) == 2 * (1 + 6) / 64
    assert bench_record.sign_test(9, 1) == 2 * (1 + 10) / 1024
    assert bench_record.sign_test(3, 3) == bench_record.sign_test(0, 0) == 1.0
    scipy_stats = pytest.importorskip("scipy.stats")
    for wins, losses in ((7, 2), (4, 4), (12, 1), (0, 5)):
        assert bench_record.sign_test(wins, losses) == pytest.approx(
            scipy_stats.binomtest(wins, wins + losses).pvalue, rel=1e-12)


def test_paired_metrics_hold_ratios_quartiles_wins_and_the_sign_test(monkeypatch):
    bench_record = load_bench_record(monkeypatch)
    from baseline import summarize

    a_fps, b_fps = [110, 105, 99, 120, 102, 100], [100, 100, 100, 100, 100, 100]
    a_rss, b_rss = [40, 40, 41, 40, 40, 40], [44, 44, 44, 44, 44, 44]
    pairs = [({"frames_per_s": fa, "peak_rss_mb": ra, "extra": 1.0},
              {"frames_per_s": fb, "peak_rss_mb": rb, "extra": 2.0})
             for fa, fb, ra, rb in zip(a_fps, b_fps, a_rss, b_rss)]
    got = bench_record.compare(pairs, {"frames_per_s": "higher", "peak_rss_mb": "lower"},
                               summarize)
    assert set(got) == {"frames_per_s", "peak_rss_mb"}     # only the declared metrics
    fps, rss = got["frames_per_s"], got["peak_rss_mb"]
    assert fps["ratios"] == pytest.approx([1.10, 1.05, 0.99, 1.20, 1.02, 1.00])
    # statistics.quantiles(n=4) of the sorted ratios 0.99 1.00 1.02 1.05 1.10 1.20
    assert fps["median"] == pytest.approx(1.035)
    assert fps["q1"] == pytest.approx(0.9975) and fps["q3"] == pytest.approx(1.125)
    assert (fps["wins"], fps["losses"], fps["ties"]) == (4, 1, 1)
    assert fps["sign_test_p"] == pytest.approx(2 * (1 + 5) / 32)
    # lower is better: every smaller RSS is a win
    assert (rss["wins"], rss["losses"], rss["ties"]) == (6, 0, 0)
    assert rss["median"] == pytest.approx(40 / 44) and rss["sign_test_p"] == 2 / 64


def fake_sides(monkeypatch, bench_record, root):
    """A fake checkout ``root`` of this repository, its commit ``<root>0123456789``,
    whose runs read 110 frames/s against the other side's 100; returns the list
    that every run is logged in as (side, workload, seed, trace)."""
    from baseline import summarize

    order = []

    def runner(side, fps):
        def run(workload, seed, seconds, trace):
            order.append((side, workload, seed, trace))
            metrics = {"frames_per_s": fps, "cpu_ms_per_frame": 1000 / fps,
                       "setup_s": 0.5, "peak_rss_mb": 40.0}
            return {"seed": seed, "environment": {"side": side}, "metrics": metrics,
                    "unscaled": dict(metrics)}
        return run

    root.mkdir()
    (root / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    fake = ModuleType("baseline")
    fake.run, fake.summarize = runner("a", 110.0), summarize
    monkeypatch.setitem(sys.modules, "baseline", fake)
    monkeypatch.setattr(bench_record, "ROOT", root)
    monkeypatch.setattr(bench_record, "load_baseline",
                        lambda checkout, name: SimpleNamespace(run=runner("b", 100.0)))
    monkeypatch.setattr(bench_record, "git", lambda checkout, *args: (
        "" if args[0] == "status" else f"{checkout.name}0123456789"))
    return order


def test_a_record_against_a_parent_keeps_the_single_commit_fields(monkeypatch, tmp_path):
    bench_record = load_bench_record(monkeypatch)
    import calibrate
    from workloads import WORKLOADS

    order = fake_sides(monkeypatch, bench_record, tmp_path / "change")
    monkeypatch.setattr(calibrate, "calibrate", no_kernel)
    monkeypatch.setattr(sys, "argv", ["bench_record.py", "--against", str(tmp_path / "parent")])
    assert bench_record.main() == 0

    [path] = (tmp_path / "change").glob("BENCH_*.json")
    assert path.name == "BENCH_change0.json"
    record = json.loads(path.read_text())
    assert record["git_sha"] == "change0123456789"
    assert record["against"]["git_sha"] == "parent0123456789"
    for name in WORKLOADS:
        untraced = [o[0] for o in order if o[1] == name and o[3] == 0]
        assert untraced == list("abba") * len(bench_record.SEEDS)
        # one traced run per seed, of this repository only
        assert [o[:3] for o in order if o[1] == name and o[3] == 1] == [
            ("a", name, seed) for seed in bench_record.SEEDS]
        paired = record["against"]["workloads"][name]
        assert paired["frames_per_s"]["median"] == pytest.approx(1.1)
        assert paired["frames_per_s"]["wins"] == 2 * len(bench_record.SEEDS)
        assert paired["cpu_ms_per_frame"]["wins"] == 2 * len(bench_record.SEEDS)
        assert paired["peak_rss_mb"]["ties"] == 2 * len(bench_record.SEEDS)
        assert len(paired["runs"]) == 2 * len(bench_record.SEEDS)
        # the single-commit fields come from this repository's runs only
        single = record["workloads"][name]
        assert single["end_to_end"]["frames_per_s"]["median"] == 110.0
        assert single["environment"] == {"side": "a"}
        assert [r["seed"] for r in single["runs"]] == [s for s in bench_record.SEEDS
                                                      for _ in (0, 1)]
        assert set(single) == {"environment", "end_to_end", "unscaled", "runs",
                               "per_layer", "per_layer_runs"}


def test_leaving_out_against_is_a_usage_error_before_any_run(monkeypatch, tmp_path, capsys):
    bench_record = load_bench_record(monkeypatch)
    order = fake_sides(monkeypatch, bench_record, tmp_path / "change")
    monkeypatch.setattr(sys, "argv", ["bench_record.py", "--tier1"])
    with pytest.raises(SystemExit) as exit_:
        bench_record.main()
    assert exit_.value.code == 2
    assert "--against" in capsys.readouterr().err
    assert order == [] and list((tmp_path / "change").glob("BENCH_*.json")) == []
