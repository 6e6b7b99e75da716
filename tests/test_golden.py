"""Golden outputs: small fixed-seed campaigns compared byte for byte.

The CSV files under ``tests/data/golden/`` pin decoder behaviour
independently of the implementation.  They cover paths the benchmark's
reference points do not reach: the default smoothing window, the uniform
and shift-chain noise policies on the float datapath, the quantized
datapath with iid noise, the fixed-threshold multi-bit rule (``atgdbf`` at
lam = 1), a per-SNR parameter schedule and the convergence report.  They
also pin the benchmark's quantized shift-chain setup at a lower SNR, and
convergence scoring of the quantized and min-sum setups, which the CLI's
report does not run.

A deliberate change of results re-records them with

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import tempfile
from pathlib import Path

import pytest

from ngdbf.channel import QuantizerSpec
from ngdbf.cli import main as cli_main
from ngdbf.codes import load_alist
from ngdbf.harness import DecoderSetup, NgdbfParams, load_config, run_campaign, run_convergence

DATA_DIR = Path(__file__).parent / "data"
GOLDEN_DIR = DATA_DIR / "golden"
CODE = DATA_DIR / "reg3x6_504x1008.alist"

_MN = {"theta": -0.9, "lam": 0.99, "eta": 0.95, "w": 0.75, "t_max": 100}

CAMPAIGNS = {
    # no smoothing_window given: smngdbf falls back to its default window
    "smngdbf_default_window": {"decoder": "smngdbf", "params": _MN,
                               "ebn0_db": [2.5], "frames": 24},
    "mngdbf_uniform": {"decoder": "mngdbf", "params": dict(_MN, noise_policy="uniform"),
                       "ebn0_db": [3.0], "frames": 24},
    "mngdbf_shift_chain": {"decoder": "mngdbf",
                           "params": dict(_MN, noise_policy="shift_chain"),
                           "ebn0_db": [3.0], "frames": 24},
    "mngdbf_q4_iid": {"decoder": "mngdbf",
                      "params": {"theta": -0.7, "lam": 0.99, "eta": 0.95, "w": 0.75,
                                 "t_max": 100, "noise_policy": "iid"},
                      "quantizer": {"q_bits": 4, "y_max": 1.75},
                      "ebn0_db": [3.5], "frames": 24},
    # the quantized-minsum-4db benchmark's Q4 setup, 0.5 dB lower
    "mngdbf_q4_shift_chain": {"decoder": "mngdbf",
                              "params": {"theta": -0.7, "lam": 0.99, "eta": 0.95, "w": 0.75,
                                         "t_max": 100, "noise_policy": "shift_chain"},
                              "quantizer": {"q_bits": 4, "y_max": 1.75},
                              "ebn0_db": [3.5], "frames": 24},
    # lam defaults to 1: the fixed-threshold multi-bit rule, without mgdbf's mode switch
    "atgdbf_lam_one": {"decoder": "atgdbf", "params": {"theta": -0.5, "w": 1.0, "t_max": 100},
                       "ebn0_db": [3.0], "frames": 24},
    "mngdbf_lam_schedule": {"decoder": "mngdbf", "params": _MN,
                            "schedules": {"lam": {"3.0": 0.99, "3.5": 0.97}},
                            "ebn0_db": [3.0, 3.5], "frames": 16},
}

_Q4 = NgdbfParams(theta=-0.7, lam=0.99, eta=0.95, w=0.75, t_max=100,
                  noise_policy="shift_chain")

# run_convergence on setups the CLI's report leaves out: the quantized
# datapath, perturbed and noise-free, and min-sum
CONVERGENCE_SETUPS = {
    "mngdbf_q4_shift_chain": DecoderSetup("mngdbf", _Q4, QuantizerSpec(4, 1.75)),
    "mngdbf_q4_eta0": DecoderSetup("mngdbf", _Q4.replace(eta=0.0), QuantizerSpec(4, 1.75)),
    "minsum": DecoderSetup("minsum", NgdbfParams(t_max=5)),
}

CONVERGENCE_ARGV = ["convergence", "--code", str(CODE), "--ebn0", "3.0",
                    "--frames", "8", "--t", "60", "--seed", "17"]


def campaign_csv(name: str, tmp_dir: Path) -> str:
    doc = dict(CAMPAIGNS[name], code=str(CODE), seed=2024, error_target=None)
    path = tmp_dir / f"{name}.json"
    path.write_text(json.dumps(doc))
    return run_campaign(load_config(path)).to_csv()


def convergence_csv(tmp_dir: Path) -> str:
    out = tmp_dir / "convergence.csv"
    assert cli_main(CONVERGENCE_ARGV + ["--out", str(out)]) == 0
    return out.read_text()


def scored_convergence_csv() -> str:
    eps = run_convergence(load_alist(CODE), CONVERGENCE_SETUPS, 3.0, 12, 17)
    return "decoder,epsilon\n" + "".join(f"{name},{value:.10g}\n" for name, value in eps.items())


@pytest.mark.parametrize("name", sorted(CAMPAIGNS))
def test_campaign_matches_golden(name, tmp_path):
    expected = (GOLDEN_DIR / f"{name}.csv").read_text()
    assert campaign_csv(name, tmp_path) == expected


def test_convergence_report_matches_golden(tmp_path):
    expected = (GOLDEN_DIR / "convergence.csv").read_text()
    assert convergence_csv(tmp_path) == expected


def test_convergence_scoring_matches_golden():
    expected = (GOLDEN_DIR / "convergence_scoring.csv").read_text()
    assert scored_convergence_csv() == expected


def record() -> None:
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(CAMPAIGNS):
            (GOLDEN_DIR / f"{name}.csv").write_text(campaign_csv(name, Path(tmp)))
        (GOLDEN_DIR / "convergence.csv").write_text(convergence_csv(Path(tmp)))
    (GOLDEN_DIR / "convergence_scoring.csv").write_text(scored_convergence_csv())


if __name__ == "__main__":
    record()
