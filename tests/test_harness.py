import json
from pathlib import Path

import numpy as np
import pytest

from ngdbf.channel import QuantizerSpec
from ngdbf.harness import (CampaignConfig, ConfigError, DecoderSetup, NgdbfParams,
                           decode_frame, load_config, run_campaign, run_convergence,
                           run_sweep, wilson_interval)

DATA_DIR = Path(__file__).parent / "data"


def make_config(code, variant="mngdbf", ebn0=(4.0,), frames=200, seed=5,
                error_target=None, schedules=None, **params):
    return CampaignConfig(
        code=code,
        setup=DecoderSetup(variant, NgdbfParams(**params)),
        ebn0_db=tuple(ebn0),
        frames=frames,
        master_seed=seed,
        error_target=error_target,
        schedules=schedules or {},
    )


class TestWilson:
    def test_zero_successes(self):
        lo, hi = wilson_interval(0, 100)
        assert lo == 0.0 and 0.0 < hi < 0.05

    def test_contains_point_estimate(self):
        lo, hi = wilson_interval(13, 250)
        assert lo < 13 / 250 < hi

    def test_tightens_with_trials(self):
        w1 = np.diff(wilson_interval(10, 100))[0]
        w2 = np.diff(wilson_interval(100, 1000))[0]
        assert w2 < w1


class TestCampaign:
    def test_identical_runs_are_bit_identical(self, bench_code):
        cfg = make_config(bench_code, frames=120, theta=-0.9, lam=0.99, eta=0.95, w=0.75,
                          t_max=50)
        a = run_campaign(cfg)
        b = run_campaign(cfg)
        assert a.to_csv() == b.to_csv()

    def test_worker_count_invariance(self, bench_code):
        cfg = make_config(bench_code, frames=90, theta=-0.9, lam=0.99, eta=0.95, w=0.75,
                          t_max=40)
        serial = run_campaign(cfg, workers=1, chunk_size=16)
        pooled = run_campaign(cfg, workers=3, chunk_size=16)
        assert serial.to_csv() == pooled.to_csv()

    def test_high_snr_limit(self, bench_code):
        cfg = make_config(bench_code, ebn0=(40.0,), frames=50, theta=-0.9, lam=0.99,
                          eta=0.95, w=0.75, t_max=50)
        pt = run_campaign(cfg).points[0]
        assert pt.bit_errors == 0 and pt.frame_errors == 0
        assert pt.avg_iterations == 0.0

    def test_fer_at_least_ber(self, bench_code):
        cfg = make_config(bench_code, ebn0=(2.0, 3.0), frames=60, theta=-0.9, lam=0.99,
                          eta=0.95, w=0.75, t_max=25)
        for pt in run_campaign(cfg).points:
            assert pt.fer >= pt.ber
            assert pt.frame_errors <= pt.frames

    def test_early_stop_at_chunk_boundary(self, bench_code):
        cfg = make_config(bench_code, ebn0=(1.0,), frames=500, error_target=10,
                          theta=-0.9, lam=0.99, eta=0.95, w=0.75, t_max=10)
        pt = run_campaign(cfg, chunk_size=25).points[0]
        assert pt.frame_errors >= 10
        assert pt.frames < 500
        assert pt.frames % 25 == 0

    def test_csv_schema(self, bench_code):
        cfg = make_config(bench_code, frames=30, theta=-0.9, lam=0.99, eta=0.95,
                          w=0.75, t_max=20)
        res = run_campaign(cfg)
        header = res.to_csv().splitlines()[0]
        assert header == ("ebn0_db,frames,bit_errors,frame_errors,ber,fer,"
                          "avg_iters,smooth_frac,ci_low,ci_high")
        doc = json.loads(res.to_json())
        assert doc["seed"] == 5 and len(doc["points"]) == 1

    def test_unknown_variant_rejected(self, bench_code):
        with pytest.raises(ConfigError, match="unknown decoder variant"):
            DecoderSetup("turbo", NgdbfParams())

    def test_quantizer_only_for_multibit_noisy(self, bench_code):
        with pytest.raises(ConfigError, match="quantized"):
            DecoderSetup("sgdbf", NgdbfParams(), QuantizerSpec(4, 1.75))


class TestSchedules:
    def test_override_applied(self, bench_code):
        cfg = make_config(bench_code, ebn0=(3.5, 4.0), frames=10,
                          schedules={"lam": {3.5: 0.97, 4.0: 0.94}},
                          theta=-0.9, lam=0.99, eta=0.95, w=0.75, t_max=10)
        assert cfg.params_at(3.5).lam == 0.97
        assert cfg.params_at(4.0).lam == 0.94

    def test_missing_point_is_an_error(self, bench_code):
        cfg = make_config(bench_code, ebn0=(3.0,), frames=10,
                          schedules={"eta": {4.0: 0.9}},
                          theta=-0.9, lam=0.99, eta=0.95, w=0.75, t_max=10)
        with pytest.raises(ConfigError, match="no entry for Eb/N0"):
            cfg.params_at(3.0)

    def test_unknown_schedule_parameter(self, bench_code):
        with pytest.raises(ConfigError, match="unknown schedule"):
            make_config(bench_code, frames=10, schedules={"gamma": {3.0: 1.0}},
                        theta=-0.9, t_max=10)


class TestSweep:
    def test_degenerate_grid_equals_plain_campaign(self, bench_code):
        cfg = make_config(bench_code, frames=60, theta=-0.9, lam=1.0, eta=0.95,
                          w=0.75, t_max=30)
        plain = run_campaign(cfg)
        swept = run_sweep(cfg, "lam", [1.0])
        assert len(swept) == 1
        assert swept[0][0] == 1.0
        assert swept[0][1].to_csv() == plain.to_csv()

    def test_sweep_validation(self, bench_code):
        cfg = make_config(bench_code, frames=10, theta=-0.9, t_max=10)
        with pytest.raises(ConfigError):
            run_sweep(cfg, "w", [0.5])
        with pytest.raises(ConfigError):
            run_sweep(cfg, "eta", [])


class TestConvergenceRunner:
    def test_shared_frames_and_signs(self, bench_code):
        setups = {
            "mngdbf": DecoderSetup("mngdbf", NgdbfParams(theta=-0.9, lam=0.99, eta=0.95,
                                                         w=0.75, t_max=60)),
            "mgdbf": DecoderSetup("mgdbf", NgdbfParams(theta=-0.5, w=1.0, t_max=60)),
        }
        eps = run_convergence(bench_code, setups, 5.0, 40, master_seed=3)
        assert set(eps) == {"mngdbf", "mgdbf"}
        for v in eps.values():
            assert v <= 0.0 or v == pytest.approx(0.0)


class TestFrameDecode:
    def test_minsum_variant(self, bench_code):
        setup = DecoderSetup("minsum", NgdbfParams(t_max=10))
        oc = decode_frame(bench_code, setup, setup.params, 0.5, 2.5, 1, 0, 0)
        assert oc.bit_errors == 0 and not oc.frame_error

    def test_smoothing_engagement_flag(self, bench_code):
        setup = DecoderSetup("smngdbf",
                             NgdbfParams(theta=-0.9, lam=0.99, eta=0.95, w=0.75,
                                         t_max=40, smoothing_window=30))
        # at very low SNR the budget is exhausted and the window engages
        oc = decode_frame(bench_code, setup, setup.params, 1.4, 2.5, 2, 0, 0)
        assert oc.iterations == 40
        assert oc.engaged


class TestConfigLoading:
    def _write(self, tmp_path, doc):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(doc))
        return p

    def base_doc(self):
        return {
            "code": str(DATA_DIR / "reg3x6_504x1008.alist"),
            "decoder": "mngdbf",
            "params": {"theta": -0.9, "lam": 0.99, "eta": 0.95, "w": 0.75, "t_max": 50},
            "ebn0_db": [3.0, 3.5],
            "frames": 100,
            "schedules": {"lam": {"3.0": 0.99, "3.5": 0.97}},
        }

    def test_round_trip(self, tmp_path):
        cfg = load_config(self._write(tmp_path, self.base_doc()), master_seed=9)
        assert cfg.master_seed == 9
        assert cfg.code.n == 1008
        assert cfg.params_at(3.5).lam == 0.97

    def test_seed_required(self, tmp_path):
        with pytest.raises(ConfigError, match="seed"):
            load_config(self._write(tmp_path, self.base_doc()))

    def test_missing_key(self, tmp_path):
        doc = self.base_doc()
        del doc["decoder"]
        with pytest.raises(ConfigError, match="decoder"):
            load_config(self._write(tmp_path, doc), master_seed=1)

    def test_bad_json(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text("{nope")
        with pytest.raises(ConfigError, match="JSON"):
            load_config(p, master_seed=1)

    def test_unknown_param(self, tmp_path):
        doc = self.base_doc()
        doc["params"]["gamma"] = 2.0
        with pytest.raises(ConfigError, match="gamma"):
            load_config(self._write(tmp_path, doc), master_seed=1)

    def test_top_level_must_be_an_object(self, tmp_path):
        with pytest.raises(ConfigError, match="object"):
            load_config(self._write(tmp_path, [{"code": "x"}]), master_seed=1)

    def test_unknown_top_level_key(self, tmp_path):
        doc = self.base_doc()
        doc["frame"] = 10       # typo of "frames"
        with pytest.raises(ConfigError, match="'frame'"):
            load_config(self._write(tmp_path, doc), master_seed=1)

    @pytest.mark.parametrize("key", ["q_bits", "y_max"])
    def test_quantizer_block_missing_key(self, tmp_path, key):
        doc = self.base_doc()
        doc["quantizer"] = {"q_bits": 4, "y_max": 1.75}
        del doc["quantizer"][key]
        with pytest.raises(ConfigError, match=f"quantizer.{key}"):
            load_config(self._write(tmp_path, doc), master_seed=1)

    def test_quantizer_block(self, tmp_path):
        doc = self.base_doc()
        doc["quantizer"] = {"q_bits": 4, "y_max": 1.75}
        cfg = load_config(self._write(tmp_path, doc), master_seed=1)
        assert cfg.setup.quantizer.n_levels == 16
