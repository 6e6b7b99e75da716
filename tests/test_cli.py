import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import pytest

import ngdbf
from ngdbf import harness
from ngdbf.analysis import MAX_DEGREE
from ngdbf.cli import build_parser, main
from ngdbf.gdbf import MAX_ITERATIONS

DATA_DIR = Path(__file__).parent / "data"
CODE = str(DATA_DIR / "reg3x6_504x1008.alist")


def write_config(tmp_path, **overrides):
    doc = {
        "code": CODE,
        "decoder": "mngdbf",
        "params": {"theta": -0.9, "lam": 0.99, "eta": 0.95, "w": 0.75, "t_max": 30},
        "ebn0_db": [3.0],
        "frames": 40,
        "error_target": None,
    }
    doc.update(overrides)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(doc))
    return str(p)


class TestCodeInfo:
    def test_prints_summary(self, capsys):
        assert main(["code-info", "--code", CODE]) == 0
        out = capsys.readouterr().out
        assert "n = 1008" in out and "m = 504" in out
        assert "rate = 1/2" in out
        assert "3x1008" in out and "6x504" in out

    def test_missing_file(self, capsys):
        assert main(["code-info", "--code", "/nonexistent.alist"]) == 1
        assert "cannot read" in capsys.readouterr().err

    def test_directory_given_as_file(self, tmp_path, capsys):
        assert main(["code-info", "--code", str(tmp_path)]) == 1
        assert f"cannot read {tmp_path} (Is a directory)" in capsys.readouterr().err

    def test_malformed_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.alist"
        bad.write_text("3 6\n1 1\n")
        assert main(["code-info", "--code", str(bad)]) == 1
        assert "line 1" in capsys.readouterr().err


class TestAdaptTable:
    def test_reference_rows(self, capsys):
        assert main(["adapt-table", "--theta", "-0.9", "--lambda", "0.99",
                     "--q", "4", "--ymax", "2.5", "--t", "300"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out == ["i,theta_level,tau", "0,-0.78125,0", "1,-0.46875,37",
                       "2,-0.15625,106"]

    def test_file_output(self, tmp_path):
        dest = tmp_path / "table.csv"
        assert main(["adapt-table", "--theta", "-0.9", "--lambda", "0.99",
                     "--q", "3", "--ymax", "2.5", "--t", "300", "--out", str(dest)]) == 0
        assert dest.read_text().splitlines()[1] == "0,-0.9375,0"

    @pytest.mark.parametrize("t", ["0", "-1"])
    def test_iteration_limit_below_one_rejected(self, capsys, t):
        with pytest.raises(SystemExit) as exc:
            main(["adapt-table", "--theta", "-0.9", "--lambda", "0.99",
                  "--q", "4", "--ymax", "2.5", "--t", t])
        assert exc.value.code != 0
        captured = capsys.readouterr()
        assert "--t" in captured.err and captured.out == ""

    def test_iteration_limit_bounded_before_allocating(self, capsys):
        # numpy refuses a threshold vector of 10**15 entries at once
        with pytest.raises(SystemExit) as exc:
            main(["adapt-table", "--theta", "-0.9", "--lambda", "0.99",
                  "--q", "4", "--ymax", "2.5", "--t", "1000000000000000"])
        assert exc.value.code == 2
        assert f"--t: must be at most {MAX_ITERATIONS}" in capsys.readouterr().err


class TestFlipMatrix:
    def test_lml_mode(self, tmp_path, capsys):
        dest = tmp_path / "fm.csv"
        rc = main(["flip-matrix", "--mode", "lml", "--sigma", "0.668", "--q", "4",
                   "--ymax", "1.5", "--dv", "3", "--dc", "6", "--pe", "0.0336",
                   "--out", str(dest)])
        assert rc == 0
        grid = capsys.readouterr().out
        assert "S=+3" in grid
        rows = dest.read_text().splitlines()
        assert rows[0] == "level,S-3,S-1,S+1,S+3"
        assert len(rows) == 17

    def test_gdbf_mode(self, capsys):
        assert main(["flip-matrix", "--mode", "gdbf", "--theta", "-0.9", "--w", "0.5",
                     "--q", "4", "--ymax", "1.5", "--dv", "3"]) == 0

    @pytest.mark.parametrize("dv", ["0", "-2"])
    def test_symbol_degree_below_one_rejected(self, capsys, dv):
        with pytest.raises(SystemExit) as exc:
            main(["flip-matrix", "--mode", "gdbf", "--theta", "-0.9", "--q", "4",
                  "--ymax", "1.5", "--dv", dv])
        assert exc.value.code == 2
        assert f"--dv: must be at least 1, not {dv}" in capsys.readouterr().err

    @pytest.mark.parametrize("dv", [str(MAX_DEGREE + 1), "1000000000000"])
    def test_symbol_degree_bounded_before_allocating(self, capsys, dv):
        with pytest.raises(SystemExit) as exc:
            main(["flip-matrix", "--mode", "gdbf", "--q", "4", "--ymax", "1.75", "--dv", dv,
                  "--theta", "-0.5"])
        assert exc.value.code == 2
        assert f"--dv: must be at most {MAX_DEGREE}, not {dv}" in capsys.readouterr().err

    @pytest.mark.parametrize("dc, bound", [("1", "at least 2"), ("0", "at least 2"),
                                           (str(MAX_DEGREE + 1), f"at most {MAX_DEGREE}"),
                                           ("1000000000000", f"at most {MAX_DEGREE}")])
    def test_check_degree_bounded(self, capsys, dc, bound):
        # parsed only: the lml tables loop over every subset size of d_c - 1
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["flip-matrix", "--mode", "lml", "--sigma", "0.6",
                                       "--q", "4", "--ymax", "1.5", "--dv", "3", "--dc", dc,
                                       "--pe", "0.1"])
        assert exc.value.code == 2
        assert f"--dc: must be {bound}, not {dc}" in capsys.readouterr().err

    def test_degrees_at_the_bound_accepted(self, capsys):
        assert main(["flip-matrix", "--mode", "gdbf", "--q", "4", "--ymax", "1.75",
                     "--dv", str(MAX_DEGREE), "--theta", "-0.5"]) == 0
        assert main(["flip-matrix", "--mode", "lml", "--sigma", "0.6", "--q", "4",
                     "--ymax", "1.5", "--dv", "3", "--dc", str(MAX_DEGREE), "--pe", "0.1"]) == 0

    def test_quantizer_bits_bounded_before_allocating(self, capsys):
        tracemalloc.start()
        try:
            rc = main(["flip-matrix", "--mode", "lml", "--sigma", "0.6", "--q", "40",
                       "--ymax", "1.5", "--dv", "3", "--dc", "6", "--pe", "0.1"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "q_bits" in err
        assert peak < 1 << 20

    def test_lml_missing_args(self, capsys):
        assert main(["flip-matrix", "--mode", "lml", "--q", "4", "--ymax", "1.5",
                     "--dv", "3"]) == 1
        assert "required" in capsys.readouterr().err


class TestClosedStdout:
    @pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
    def test_reader_closing_early_exits_quietly(self, unbuffered):
        # About 140 kB of grid, more than a pipe holds, so writes must
        # continue after the reader has gone, buffered or not.
        src = str(Path(ngdbf.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONUNBUFFERED": unbuffered,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.Popen(
            [sys.executable, "-m", "ngdbf.cli", "flip-matrix", "--mode", "gdbf", "--theta",
             "-0.9", "--q", "12", "--ymax", "1.5", "--dv", "3"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        assert proc.stdout.readline().startswith(b"level")
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 141      # 128 + SIGPIPE
        assert err == b""


class TestSimulate:
    def test_csv_and_json(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "r.csv"
        jout = tmp_path / "r.json"
        rc = main(["simulate", "--config", cfg, "--seed", "7", "--out", str(out),
                   "--json-out", str(jout), "--workers", "1"])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("ebn0_db,frames")
        assert len(lines) == 2
        assert json.loads(jout.read_text())["seed"] == 7

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path)
        outs = []
        for name in ("a.csv", "b.csv"):
            dest = tmp_path / name
            assert main(["simulate", "--config", cfg, "--seed", "3", "--out",
                         str(dest), "--workers", "1"]) == 0
            outs.append(dest.read_bytes())
        assert outs[0] == outs[1]

    def test_seed_flag_mandatory(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--config", cfg, "--out", str(tmp_path / "x.csv")])
        assert exc.value.code != 0

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_workers_below_one_rejected(self, tmp_path, capsys, command, workers):
        argv = [command, "--config", write_config(tmp_path), "--seed", "1",
                "--out", str(tmp_path / "x.csv"), "--workers", workers]
        if command == "sweep":
            argv += ["--param", "lam", "--grid", "0.99"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code != 0
        assert "--workers" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_workers_above_cpu_count_rejected(self, tmp_path, capsys, monkeypatch, command):
        # A pool starts all its workers at once; only the rejection is run here.
        def refuse(*args, **kwargs):
            raise AssertionError("a process pool was started")

        monkeypatch.setattr(harness, "ProcessPoolExecutor", refuse)
        workers = (os.cpu_count() or 1) + 1
        argv = [command, "--config", write_config(tmp_path), "--seed", "1",
                "--out", str(tmp_path / "x.csv"), "--workers", str(workers)]
        if command == "sweep":
            argv += ["--param", "lam", "--grid", "0.99"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert (f"argument --workers: must be at most {workers - 1}, not {workers}"
                in capsys.readouterr().err)
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("command", ["simulate", "sweep", "convergence"])
    def test_negative_seed_names_the_flag(self, tmp_path, capsys, command):
        argv = {"simulate": ["simulate", "--config", write_config(tmp_path)],
                "sweep": ["sweep", "--config", write_config(tmp_path), "--param", "lam",
                          "--grid", "0.99"],
                "convergence": ["convergence", "--code", CODE, "--ebn0", "3"]}[command]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--seed", "-1", "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
        assert "argument --seed: must be at least 0, not -1" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_directory_given_as_config(self, tmp_path, capsys):
        rc = main(["simulate", "--config", str(tmp_path), "--seed", "1",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 1
        assert f"cannot read {tmp_path} (Is a directory)" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "sweep", "flip-matrix"])
    def test_unwritable_output_reported(self, tmp_path, capsys, command):
        dest = tmp_path / "missing" / "x.csv"
        cfg = write_config(tmp_path, frames=2)
        argv = {"simulate": ["simulate", "--config", cfg, "--seed", "1", "--workers", "1"],
                "sweep": ["sweep", "--config", cfg, "--seed", "1", "--workers", "1",
                          "--param", "lam", "--grid", "0.99"],
                "flip-matrix": ["flip-matrix", "--mode", "gdbf", "--theta", "-0.9",
                                "--q", "4", "--ymax", "1.5", "--dv", "3"]}[command]
        assert main(argv + ["--out", str(dest)]) == 1
        err = capsys.readouterr().err
        assert f"cannot write {dest} (No such file or directory)" in err
        assert "cannot read" not in err

    def test_invalid_config_reports_and_fails(self, tmp_path, capsys):
        cfg = write_config(tmp_path, decoder="bogus")
        rc = main(["simulate", "--config", cfg, "--seed", "1",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 1
        assert "unknown decoder variant" in capsys.readouterr().err

    def test_truncated_alist_names_the_key_and_the_file(self, tmp_path, capsys):
        alist = tmp_path / "short.alist"
        alist.write_text("".join(Path(CODE).read_text().splitlines(keepends=True)[:3]))
        rc = main(["simulate", "--config", write_config(tmp_path, code=str(alist)), "--seed", "1",
                   "--workers", "1", "--out", str(tmp_path / "x.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == f"error: 'code': {alist}: line 4: file ends early, expected row degrees\n"
        assert not (tmp_path / "x.csv").exists()

    def test_huge_iteration_limit_names_its_key(self, tmp_path, capsys):
        params = {"theta": -0.9, "lam": 0.99, "eta": 0.95, "w": 0.75, "t_max": 10**18}
        rc = main(["simulate", "--config", write_config(tmp_path, params=params), "--seed", "1",
                   "--workers", "1", "--out", str(tmp_path / "x.csv")])
        assert rc == 1
        assert f"'params.t_max' must be at most {MAX_ITERATIONS}" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("ebn0", [4000, -4000])
    def test_eb_n0_beyond_the_float_range_names_its_key(self, tmp_path, capsys, ebn0):
        rc = main(["simulate", "--config", write_config(tmp_path, ebn0_db=[3.0, ebn0]),
                   "--seed", "1", "--workers", "1", "--out", str(tmp_path / "x.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'ebn0_db[1]'" in err
        assert not (tmp_path / "x.csv").exists()


class TestSweep:
    def test_lambda_grid(self, tmp_path):
        cfg = write_config(tmp_path, frames=20)
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--config", cfg, "--seed", "2", "--param", "lam",
                   "--grid", "0.98,0.99", "--out", str(out), "--workers", "1"])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("param,value")
        assert len(lines) == 3


class TestOneWayToAskForEachDecoder:
    @pytest.mark.parametrize("command, overrides, message", [
        ("sweep", {"decoder": "atgdbf"}, "atgdbf does not read 'eta'"),
        ("simulate", {"decoder": "mgdbf", "mode_switching": False},
         "unknown key(s) ['mode_switching']"),
    ], ids=["sweep-unread-eta", "simulate-mode-switching"])
    def test_refused_with_one_line(self, tmp_path, capsys, command, overrides, message):
        dest = tmp_path / "x.csv"
        argv = [command, "--config", write_config(tmp_path, frames=2, **overrides), "--seed", "1",
                "--workers", "1", "--out", str(dest)]
        if command == "sweep":
            argv += ["--param", "eta", "--grid", "0.2,0.9"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
        assert message in captured.err
        assert captured.out == "" and not dest.exists()


class TestNonFiniteParameters:
    @pytest.mark.parametrize("command", ["sweep", "convergence", "adapt-table"])
    @pytest.mark.parametrize("theta", ["nan", "-inf"])
    def test_rejected(self, tmp_path, capsys, command, theta):
        dest = tmp_path / "x.csv"
        argv = {"sweep": ["sweep", "--config", write_config(tmp_path, frames=8), "--seed", "1",
                          "--workers", "1", "--param", "theta", f"--grid={theta},-0.9"],
                "convergence": ["convergence", "--code", CODE, "--ebn0", "3.0", "--frames",
                                "2", "--seed", "1", f"--theta={theta}"],
                "adapt-table": ["adapt-table", f"--theta={theta}", "--lambda", "0.99",
                                "--q", "4", "--ymax", "2.5"]}[command]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv + ["--out", str(dest)]) == 1
        assert "finite and negative" in capsys.readouterr().err
        assert not dest.exists()


class TestNonFiniteInputs:
    ADAPT = ["adapt-table", "--theta", "-0.9", "--lambda", "0.99", "--q", "4"]
    CONVERGENCE = ["convergence", "--code", CODE, "--ebn0", "3.0", "--frames", "2",
                   "--seed", "1"]
    GDBF = ["flip-matrix", "--mode", "gdbf", "--q", "4", "--dv", "3"]
    LML = ["flip-matrix", "--mode", "lml", "--q", "4", "--ymax", "1.5", "--dv", "3",
           "--dc", "6", "--pe", "0.0336"]

    @pytest.mark.parametrize("argv", [
        ADAPT + ["--ymax", "nan"],
        ADAPT + ["--ymax", "inf"],
        CONVERGENCE + ["--ymax", "nan"],
        CONVERGENCE + ["--ymax", "inf"],
        GDBF + ["--ymax", "1.5", "--theta", "nan"],
        GDBF + ["--ymax", "1.5", "--theta", "-0.9", "--w", "nan"],
        GDBF + ["--ymax", "nan", "--theta", "-0.9"],
        LML + ["--sigma", "nan"],
    ], ids=["adapt-ymax-nan", "adapt-ymax-inf", "convergence-ymax-nan",
            "convergence-ymax-inf", "gdbf-theta-nan", "gdbf-w-nan", "gdbf-ymax-nan",
            "lml-sigma-nan"])
    def test_rejected_with_one_line(self, tmp_path, capsys, argv):
        dest = tmp_path / "x.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv + ["--out", str(dest)]) == 1
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1 and "must be finite" in captured.err
        assert captured.out == "" and not dest.exists()


class TestConvergence:
    @pytest.mark.parametrize("frames", ["0", "-3"])
    def test_frames_below_one_rejected(self, tmp_path, capsys, frames):
        with pytest.raises(SystemExit) as exc:
            main(["convergence", "--code", CODE, "--ebn0", "5.0", "--frames", frames,
                  "--seed", "4", "--out", str(tmp_path / "eps.csv")])
        assert exc.value.code != 0
        assert "--frames" in capsys.readouterr().err
        assert not (tmp_path / "eps.csv").exists()

    @pytest.mark.parametrize("t", ["0", "1000000000000000"])
    def test_iteration_limit_bounded(self, capsys, t):
        # parsed only: a noise-free decoder given that limit would not stop
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["convergence", "--code", CODE, "--ebn0", "3.0",
                                       "--seed", "4", "--t", t])
        assert exc.value.code == 2
        assert "--t" in capsys.readouterr().err

    @pytest.mark.parametrize("ebn0", ["4000", "-4000"])
    def test_eb_n0_beyond_the_float_range_rejected(self, tmp_path, capsys, ebn0):
        rc = main(["convergence", "--code", CODE, "--ebn0", ebn0, "--frames", "1",
                   "--seed", "4", "--out", str(tmp_path / "eps.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "no finite positive noise sigma" in err
        assert not (tmp_path / "eps.csv").exists()

    def test_reports_all_decoders(self, tmp_path):
        out = tmp_path / "eps.csv"
        rc = main(["convergence", "--code", CODE, "--ebn0", "5.0", "--frames", "10",
                   "--t", "30", "--seed", "4", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "decoder,epsilon"
        assert {ln.split(",")[0] for ln in lines[1:]} == \
            {"sgdbf", "sngdbf", "mgdbf", "atgdbf", "mngdbf"}
