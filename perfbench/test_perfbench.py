"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import json
import re
import time
from pathlib import Path

import pytest

from measure import PER_LAYER
from run import END_TO_END, REFERENCE, check_points, report_lines
from tracer import Tracer
from workloads import WORKLOADS

NAME = re.compile(r"[A-Za-z0-9_.-]+")
BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def test_metric_and_workload_names_are_well_formed():
    for name in [*END_TO_END, *PER_LAYER, *WORKLOADS]:
        assert NAME.fullmatch(name) and len(name) <= 64, name


def test_benchmark_json_matches_the_code():
    assert {w["name"]: w["why"] for w in BENCHMARK["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()}
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == PER_LAYER


def _point(key="0/0/0/0", frames=40, **stats):
    s = {"ebn0_db": 3.0, "frames": frames, "bit_errors": 30, "frame_errors": 3,
         "avg_iters": 71.25, "smooth_frac": 0.0}
    s.update(stats)
    return {"key": key, "round": 0, "entry": 0, "variant": "mngdbf", "budget": 40,
            "target": None, "t_max": 100, "pass": "untraced", "stats": s}


def _reference(*points):
    return {p["key"]: {k: p["stats"][k] for k in ("frames", "bit_errors", "frame_errors",
                                                   "avg_iters", "smooth_frac")}
            for p in points}


def test_matching_points_pass():
    good = _point()
    assert check_points([good, _point(key="0/1/0/0")], _reference(good, _point(key="0/1/0/0"))) == []


def test_altered_reference_count_is_a_failed_point():
    good = _point()
    reference = _reference(good)
    reference[good["key"]]["bit_errors"] += 1
    failures = check_points([good, _point(key="0/1/0/0")], reference)
    assert len(failures) == 2    # the altered point, and one the reference lacks
    assert "0/0/0/0" in failures[0] and "reference" in failures[0]


def test_invariant_violations_and_errors_are_failed_points():
    points = [
        _point(key="a", frames=41),                     # over budget
        _point(key="b", frame_errors=50),               # more frame errors than frames
        _point(key="c", bit_errors=2),                  # fewer bit errors than frame errors
        _point(key="d", frames=20),                     # early stop without a target
        {**_point(key="e"), "stats": None, "error": "ValueError: boom"},
    ]
    del points[-1]["stats"]
    failures = check_points(points, None)
    assert len(failures) == len(points)
    for failure, point in zip(failures, points):
        assert f" point {point['key']}: " in failure


def test_early_stop_on_a_chunk_boundary_passes():
    point = {**_point(frames=512, frame_errors=25, bit_errors=300), "budget": 2048, "target": 20}
    assert check_points([point], None) == []
    off = {**point, "stats": dict(point["stats"], frames=500)}
    assert len(check_points([off], None)) == 1


def test_repeated_inputs_must_repeat_their_statistics():
    first = _point()
    again = {**_point(bit_errors=31), "pass": "traced"}
    failures = check_points([first, again], None)
    assert len(failures) == 1 and failures[0].startswith("traced")


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_printer_lists_every_end_to_end_metric_with_its_unit(workload):
    metrics = {name: {"value": 1.5, "unit": unit} for name, unit in END_TO_END.items()}
    lines = report_lines(workload, metrics, 0, 12)
    for name, unit in END_TO_END.items():
        assert any(line.startswith(f"{workload}  {name} = ") and line.endswith(f" {unit}")
                   for line in lines), name
    assert lines[-1].startswith(f"{workload}  failed_frac = 0 ratio")


def test_reference_covers_every_point_of_every_workload():
    reference = json.loads(REFERENCE.read_text())
    for name, w in WORKLOADS.items():
        keys = {f"{i}/{r}/{g}/{si}" for r in range(w.cycle)
                for i, e in enumerate(w.entries)
                for g in range(len(e.grid)) for si in range(len(e.ebn0_db))}
        assert set(reference[name]) == keys, name


def test_self_time_excludes_child_spans():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: time.sleep(0.02))

    def outer_body():
        inner()
        time.sleep(0.01)

    tracer.wrap("outer", outer_body)()
    assert tracer.calls == {"inner": 1, "outer": 1}
    assert tracer.child_ns["outer"] == tracer.total_ns["inner"]
    assert 0.005e9 < tracer.self_ns("outer") < tracer.total_ns["inner"]
    parent = {span[0]: span[1] for span in tracer.spans}
    outer_id = next(s[0] for s in tracer.spans if s[2] == "outer")
    assert parent[next(s[0] for s in tracer.spans if s[2] == "inner")] == outer_id


def test_patch_skips_a_missing_name_and_restores():
    class Owner:
        def f(self):
            return 1

    tracer = Tracer()
    original = Owner.__dict__["f"]
    tracer.patch(Owner, "f", "owner.f")
    tracer.patch(Owner, "missing", "owner.missing")
    assert Owner().f() == 1 and tracer.calls["owner.f"] == 1
    tracer.restore()
    assert Owner.__dict__["f"] is original
