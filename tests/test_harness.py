import json
import pickle
import re
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ngdbf import harness
from ngdbf.analysis import convergence_error, f_max
from ngdbf.channel import QuantizerSpec, ebn0_to_sigma
from ngdbf.core import objective
from ngdbf.gdbf import MAX_ITERATIONS, thresholds_by_count
from ngdbf.harness import (CHAIN_BATCH, CHAIN_BYTES, STOP_CHUNK, SWEEPABLE, VARIANTS,
                           CampaignConfig, ConfigError, DecoderSetup, NgdbfParams, decode_chunk,
                           load_config, run_campaign, run_convergence, run_sweep, wilson_interval)
from ngdbf.noisy import shift_chain

DATA_DIR = Path(__file__).parent / "data"
ALIST = str(DATA_DIR / "reg3x6_504x1008.alist")

# Arbitrary finite JSON values, and documents whose values are mostly near
# their expected shape, so that generated documents also pass the first checks
# and reach the later ones.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=6)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=3),
    max_leaves=8)


@st.composite
def mostly(draw, strategy):
    """A value of ``strategy`` or, one time in four, any finite JSON value."""
    return draw(JSON_VALUES if draw(st.integers(0, 3)) == 0 else strategy)


NEAR_SHAPE = {
    "decoder": st.sampled_from(sorted(VARIANTS)),
    "params": st.dictionaries(
        st.sampled_from(["theta", "lam", "eta", "w", "t_max", "smoothing_window",
                         "noise_policy"]),
        mostly(st.floats(-1.5, 1.5) | st.integers(0, 120) | st.just("shift_chain"))),
    "ebn0_db": st.lists(mostly(st.sampled_from([3.0, 3.5])), min_size=1, max_size=3),
    "frames": st.integers(-1, 5),
    "seed": st.integers(-1, 5),
    "error_target": st.none() | st.integers(-1, 5),
    "y_max": st.floats(-1, 3),
    "quantizer": st.fixed_dictionaries({"q_bits": mostly(st.integers(0, 5)),
                                        "y_max": mostly(st.floats(-1, 3))}),
    "schedules": st.dictionaries(
        st.sampled_from(SWEEPABLE + ("gamma",)),
        mostly(st.dictionaries(st.sampled_from(["3.0", "3.5", "x"]),
                               mostly(st.floats(-1, 1)), min_size=1))),
}


@st.composite
def config_documents(draw):
    """The bundled code, the required keys and some optional ones."""
    keys = ["decoder", "ebn0_db", "frames", "seed"] + draw(st.lists(
        st.sampled_from(["params", "error_target", "y_max", "quantizer", "schedules"]),
        unique=True))
    return {"code": ALIST, **{key: draw(mostly(NEAR_SHAPE[key])) for key in keys}}


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

    def test_early_stop_invariant_under_worker_count(self, bench_code):
        # 151 frames is not a multiple of the 2-frame ranges a 25-frame chunk
        # is split into on 2 or 3 workers; the points stop after 2 and 5 chunks
        # and at the end of the budget.
        cfg = make_config(bench_code, ebn0=(2.5, 4.0, 5.0), frames=151, error_target=30,
                          theta=-0.9, lam=0.99, eta=0.95, w=0.75, t_max=40)
        results = {w: run_campaign(cfg, workers=w, chunk_size=25) for w in (1, 2, 3)}
        assert [pt.frames for pt in results[1].points] == [50, 125, 151]
        assert results[2].to_csv() == results[1].to_csv()
        assert results[3].to_csv() == results[1].to_csv()

    def test_ranges_stay_within_the_chunk_the_stop_rule_decides(self, bench_code,
                                                                 monkeypatch):
        # With an error target, only the next stop chunk goes out, so the pool
        # decodes exactly the frames counted; without one, the whole budget.
        ranges = []

        class RecordingPool(ProcessPoolExecutor):
            def map(self, fn, tasks, **kwargs):
                tasks = list(tasks)
                ranges.extend(task[-2:] for task in tasks)     # (start, stop)
                return super().map(fn, tasks, **kwargs)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
        for target, counted in ((1, 25), (None, 60)):
            ranges.clear()
            cfg = make_config(bench_code, ebn0=(1.0,), frames=60, error_target=target,
                              theta=-0.9, lam=0.99, eta=0.95, w=0.75, t_max=10)
            assert run_campaign(cfg, workers=2, chunk_size=25).points[0].frames == counted
            starts, stops = zip(*sorted(ranges))
            assert starts[0] == 0 and stops[-1] == counted and starts[1:] == stops[:-1]

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


# Which of theta, lam and eta each variant's decoder reads, written out.
READS = {"sgdbf": (), "mgdbf": ("theta",), "atgdbf": ("theta", "lam"), "sngdbf": ("eta",),
         "mngdbf": ("theta", "lam", "eta"), "smngdbf": ("theta", "lam", "eta"), "minsum": ()}
GRID = {"theta": [-0.5, -0.7], "lam": [0.99, 0.98], "eta": [0.5, 0.9]}


@pytest.mark.parametrize("parameter", SWEEPABLE)
@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_schedule_and_sweep_only_of_a_parameter_the_variant_reads(bench_code, variant,
                                                                  parameter):
    assert set(READS) == set(VARIANTS)
    cfg = make_config(bench_code, variant, ebn0=(5.0,), frames=2, theta=-0.9, lam=0.99,
                      eta=0.95, w=0.75, t_max=64)
    grid = GRID[parameter]
    schedule = {parameter: {5.0: grid[0]}}
    if parameter in READS[variant]:
        assert getattr(replace(cfg, schedules=schedule).params_at(5.0), parameter) == grid[0]
        assert [value for value, _ in run_sweep(cfg, parameter, grid)] == grid
        return
    named = re.escape(f"{variant} does not read {parameter!r}")
    with pytest.raises(ConfigError, match=named):
        replace(cfg, schedules=schedule)
    with pytest.raises(ConfigError, match=named):
        run_sweep(cfg, parameter, grid)


class TestSweep:
    def test_degenerate_grid_equals_plain_campaign(self, bench_code):
        cfg = make_config(bench_code, frames=60, theta=-0.9, lam=1.0, eta=0.95,
                          w=0.75, t_max=30)
        plain = run_campaign(cfg)
        swept = run_sweep(cfg, "lam", [1.0])
        assert len(swept) == 1
        assert swept[0][0] == 1.0
        assert swept[0][1].to_csv() == plain.to_csv()

    def test_one_pool_and_small_tasks(self, bench_code, monkeypatch):
        # The code and setup reach each worker once, when the pool starts;
        # a task carries only a point's parameters, sigma and frame range.
        starts, task_bytes = [], []

        class RecordingPool(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                starts.append(kwargs.get("max_workers"))
                super().__init__(*args, **kwargs)

            def submit(self, fn, /, *args, **kwargs):
                task_bytes.append(len(pickle.dumps((fn, args, kwargs))))
                return super().submit(fn, *args, **kwargs)

        cfg = make_config(bench_code, ebn0=(3.0, 3.5), frames=40, theta=-0.9, lam=0.99,
                          eta=0.95, w=0.75, t_max=20)
        serial = run_sweep(cfg, "eta", [0.85, 0.95])
        monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
        pooled = run_sweep(cfg, "eta", [0.85, 0.95], workers=2)
        assert starts == [2]
        assert task_bytes and max(task_bytes) < 1024
        assert [res.to_csv() for _, res in pooled] == [res.to_csv() for _, res in serial]

    def test_sweep_validation(self, bench_code):
        cfg = make_config(bench_code, frames=10, theta=-0.9, t_max=10)
        with pytest.raises(ConfigError):
            run_sweep(cfg, "w", [0.5])
        with pytest.raises(ConfigError):
            run_sweep(cfg, "eta", [])
        # A grid value NgdbfParams rejects is named with its parameter.
        with pytest.raises(ConfigError, match=re.escape("'eta' = 1.5")):
            run_sweep(cfg, "eta", [0.5, 1.5])
        # A schedule would override every grid value of its parameter.
        scheduled = make_config(bench_code, ebn0=(3.0,), frames=10, schedules={"eta": {3.0: 0.5}},
                                theta=-0.9, t_max=10)
        with pytest.raises(ConfigError, match="'eta'"):
            run_sweep(scheduled, "eta", [0.1, 0.9])


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

    @pytest.mark.parametrize("variant, quantizer, frames, sizes", [
        # a noise-free range: a stop chunk, then the frame past it
        pytest.param("atgdbf", None, STOP_CHUNK + 1,
                     [("transmit", CHAIN_BATCH)] * (STOP_CHUNK // CHAIN_BATCH)
                     + [("decode", STOP_CHUNK), ("transmit", 1), ("decode", 1)],
                     id="atgdbf-513-512"),
        # a float64 shift-chain range: no larger a batch than CHAIN_BATCH frames
        pytest.param("mngdbf", None, CHAIN_BATCH + 1,
                     [("transmit", CHAIN_BATCH), ("decode", CHAIN_BATCH), ("transmit", 1),
                      ("decode", 1)], id="mngdbf-33-32"),
        # a Q4 int8 shift-chain range of 128 frames: one batch
        pytest.param("mngdbf", QuantizerSpec(4, 1.75), 128,
                     [("transmit", CHAIN_BATCH)] * 4 + [("decode", 128)], id="mngdbf-q4-128-128"),
    ])
    def test_holds_one_batch_at_a_time(self, bench_code, monkeypatch, variant, quantizer, frames,
                                       sizes):
        # the deficit is that of the whole range transmitted and decoded at once,
        # scored on the quantized samples if the setup quantizes them
        setup = DecoderSetup(variant, NgdbfParams(theta=-0.9, lam=0.99, eta=0.95, w=0.75,
                                                  t_max=20, noise_policy="shift_chain"),
                             quantizer)
        sigma = ebn0_to_sigma(2.0, float(bench_code.rate))
        ys = harness._transmit(bench_code, setup, sigma, 2.5, 3, 0, 0, frames)
        xs = harness.decode_batched(bench_code, setup, sigma, setup.samples(ys), 3, 0, 0)[0]
        ys = ys if quantizer is None else quantizer.quantize(ys)
        want = convergence_error([objective(bench_code, x, y) for x, y in zip(xs, ys)],
                                 [f_max(bench_code, bench_code.zero_codeword, y) for y in ys])
        got, transmit, engine = [], harness._transmit, harness.decode_batched

        def record_transmit(*args):
            got.append(("transmit", args[-1] - args[-2]))
            return transmit(*args)

        def record_decode(code, setup, sigma, y, *args):
            got.append(("decode", len(y)))
            return engine(code, setup, sigma, y, *args)

        monkeypatch.setattr(harness, "_transmit", record_transmit)
        monkeypatch.setattr(harness, "decode_batched", record_decode)
        eps = run_convergence(bench_code, {variant: setup}, 2.0, frames, master_seed=3)
        assert got == sizes
        assert eps[variant] == want

    @pytest.mark.parametrize("variant", ["mgdbf", "mngdbf", "minsum"])
    def test_no_frames_refused(self, bench_code, variant):
        setup = DecoderSetup(variant, NgdbfParams(theta=-0.5, t_max=10))
        with pytest.raises(ValueError, match="non-empty"):
            run_convergence(bench_code, {variant: setup}, 3.0, 0, master_seed=3)


class TestFrameDecode:
    @pytest.mark.parametrize("quantizer, t_max, frames, batches", [
        (None, 100, 70, [32, 32, 6]),       # float64: at most CHAIN_BATCH chains a batch
        (QuantizerSpec(4, 1.75), 100, 300, [256, 44]),  # int8: 8 * CHAIN_BATCH chains
        (None, MAX_ITERATIONS, 3, [1, 1, 1]),   # a huge t_max shrinks the batch
    ], ids=["float64", "q4-int8", "float64-huge-t_max"])
    def test_chain_block_is_bounded(self, bench_code, monkeypatch, quantizer, t_max, frames,
                                    batches):
        setup = DecoderSetup("mngdbf", NgdbfParams(theta=-0.7, lam=0.99, eta=0.95, w=0.75,
                                                   t_max=t_max, noise_policy="shift_chain"),
                             quantizer)
        got, engine = [], harness.decode_batch

        def record(code, y, t_max, w, thresholds, switching, window, chains):
            got.append((len(y), chains.shape, chains.nbytes))
            return engine(code, y, t_max, w, thresholds, switching, window, chains)

        monkeypatch.setattr(harness, "decode_batch", record)
        stats = decode_chunk(bench_code, setup, ebn0_to_sigma(6.0, float(bench_code.rate)), 2.5,
                             3, 0, 0, frames)
        assert stats.iterations.max() < 100     # no frame ran a huge budget
        assert [size for size, _, _ in got] == batches
        chain = bench_code.n + t_max
        for size, shape, nbytes in got:
            assert shape == (size, chain)
            assert nbytes <= min(CHAIN_BATCH * 8 * chain, CHAIN_BYTES)

    def test_statistics_are_int32_arrays_of_length_one_for_every_setup_kind(self, bench_code):
        params = NgdbfParams(theta=-0.9, lam=0.99, eta=0.95, w=0.75, t_max=20)
        chain = params.replace(noise_policy="shift_chain")
        setups = [DecoderSetup("sgdbf", params), DecoderSetup("mngdbf", params.replace(eta=0.0)),
                  DecoderSetup("mngdbf", params), DecoderSetup("mngdbf", chain),
                  DecoderSetup("smngdbf", chain.replace(smoothing_window=5)),
                  DecoderSetup("mngdbf", params, QuantizerSpec(4, 1.75)),
                  DecoderSetup("mngdbf", chain, QuantizerSpec(4, 1.75)),
                  DecoderSetup("minsum", NgdbfParams(t_max=10))]
        for setup in setups:
            stats = decode_chunk(bench_code, setup, 0.8, 2.5, 1, 0, 0, 1)
            assert [(a.dtype, a.shape) for a in stats] == [(np.int32, (1,))] * 3, setup

    def test_empty_range_gives_empty_int32_arrays(self, bench_code):
        params = NgdbfParams(theta=-0.9, lam=0.99, eta=0.95, w=0.75, t_max=20)
        for setup in (DecoderSetup("sgdbf", params), DecoderSetup("minsum", params),
                      DecoderSetup("mngdbf", params),
                      DecoderSetup("mngdbf", params.replace(noise_policy="shift_chain"))):
            stats = decode_chunk(bench_code, setup, 0.8, 2.5, 1, 0, 5, 5)
            assert [(a.dtype, a.shape) for a in stats] == [(np.int32, (0,))] * 3, setup

    def test_minsum_variant(self, bench_code):
        setup = DecoderSetup("minsum", NgdbfParams(t_max=10))
        oc = decode_chunk(bench_code, setup, 0.5, 2.5, 1, 0, 0, 1)
        assert oc.bit_errors.tolist() == [0]

    def test_smoothing_engagement_flag(self, bench_code):
        setup = DecoderSetup("smngdbf",
                             NgdbfParams(theta=-0.9, lam=0.99, eta=0.95, w=0.75,
                                         t_max=40, smoothing_window=30))
        # at very low SNR the budget is exhausted and the window engages
        oc = decode_chunk(bench_code, setup, 1.4, 2.5, 2, 0, 0, 1)
        assert oc.iterations.tolist() == [40]
        assert oc.engaged.tolist() == [1]

    @pytest.mark.parametrize("noisy, plain", [("sngdbf", "sgdbf"), ("mngdbf", "atgdbf")])
    def test_stochastic_flag_is_the_only_difference(self, bench_code, noisy, plain):
        # At eta = 0 a noisy variant draws no perturbation and is its twin.
        params = NgdbfParams(theta=-0.7, lam=0.98, eta=0.0, w=0.75, t_max=40)
        outcomes = {name: np.array([decode_chunk(bench_code, DecoderSetup(name, params),
                                                 0.8, 2.5, 11, 0, fi, fi + 1) for fi in range(6)])
                    for name in (noisy, plain)}
        assert np.array_equal(outcomes[noisy], outcomes[plain])
        assert outcomes[plain][:, 1].any()     # some frame iterates


class TestConfigLoading:
    def _write(self, tmp_path, doc):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(doc))
        return p

    def base_doc(self):
        return {
            "code": ALIST,
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

    def test_mode_switching_is_refused_as_unknown(self, tmp_path):
        # mgdbf always switches; the fixed-threshold rule is atgdbf at lam = 1.
        doc = self.base_doc()
        doc["decoder"] = "mgdbf"
        for value in (True, False, "false"):
            doc["mode_switching"] = value
            with pytest.raises(ConfigError, match=re.escape("unknown key(s) ['mode_switching']")):
                load_config(self._write(tmp_path, doc), master_seed=1)

    def test_default_smoothing_window_must_fit_t_max(self, tmp_path):
        doc = self.base_doc()
        doc["decoder"] = "smngdbf"      # t_max 50 and no window: the default 64 is too long
        with pytest.raises(ConfigError, match=re.escape("'params.smoothing_window'")):
            load_config(self._write(tmp_path, doc), master_seed=1)
        doc["params"]["smoothing_window"] = 50
        assert load_config(self._write(tmp_path, doc), master_seed=1).setup.smoothing_window == 50

    @pytest.mark.parametrize("key, value, named", [
        ("schedules", [1], "schedules"),
        ("schedules", {"eta": [1]}, "schedules.eta"),
        ("ebn0_db", "4.5", "ebn0_db"),
        ("ebn0_db", 4, "ebn0_db"),
        ("ebn0_db", ["x"], "ebn0_db[0]"),
        ("quantizer", 5, "quantizer"),
        ("quantizer", {"q_bits": 0, "y_max": 1.75}, "quantizer.q_bits"),
        ("frames", 10.7, "frames"),
        ("frames", True, "frames"),
        ("seed", 1.9, "seed"),
        ("error_target", 0, "error_target"),
        ("error_target", -3, "error_target"),
        ("error_target", 2.5, "error_target"),
        ("y_max", -1, "y_max"),
        ("params", {"t_max": 1.5}, "params.t_max"),
        ("params", {"smoothing_window": 30}, "params.smoothing_window"),   # mngdbf: no smoothing
        ("mode_switching", False, "mode_switching"),    # an unknown key is named too
        ("code", 5, "code"),
        ("code", ".", "code"),
        ("code", "missing.alist", "code"),
        ("quantizer", {"q_bits": 17, "y_max": 1.75}, "quantizer.q_bits"),
        ("params", {"t_max": 10**18}, "params.t_max"),
        ("ebn0_db", [4000], "ebn0_db[0]"),
        ("ebn0_db", [3.0, -4000], "ebn0_db[1]"),
        ("quantizer", {"q_bits": 4, "y_max": 1.75, "extra": 1}, "quantizer.extra"),
        # two keys for one Eb/N0, and keys no point can match
        ("schedules", {"eta": {"3": 0.9, "3.0": 0.8, "3.5": 0.9}}, "schedules.eta.3.0"),
        ("schedules", {"eta": {"3.0": 0.9, "3.5": 0.9, "nan": 0.8}}, "nan"),
        ("schedules", {"eta": {"3.0": 0.9, "3.5": 0.9, "-inf": 0.8}}, "-inf"),
    ])
    def test_malformed_value_names_its_key(self, tmp_path, key, value, named):
        doc = self.base_doc()
        doc[key] = value
        with pytest.raises(ConfigError, match=re.escape(f"'{named}'")):
            load_config(self._write(tmp_path, doc), master_seed=1)

    @pytest.mark.parametrize("key, repeat", [
        ("frames", '"frames": 200'),
        ("q_bits", '"quantizer": {"q_bits": 4, "y_max": 1.75, "q_bits": 3}'),
    ], ids=["top-level", "nested"])
    def test_repeated_key_is_named(self, tmp_path, key, repeat):
        p = self._write(tmp_path, self.base_doc())
        p.write_text(p.read_text()[:-1] + ", " + repeat + "}")   # json.dumps cannot repeat a key
        with pytest.raises(ConfigError, match=re.escape(f"repeated key(s) ['{key}']")):
            load_config(p, master_seed=1)

    @pytest.mark.parametrize("content, reason", [
        (b"1008 504\n3 6\n" + b"3 " * 1008 + b"\n", "line 4: file ends early"),
        (b"1008 504\n3 6\n\xff\n", "'utf-8' codec can't decode"),
    ], ids=["truncated", "not-utf8"])
    def test_bad_alist_names_the_key_and_the_file(self, tmp_path, content, reason):
        alist = tmp_path / "bad.alist"
        alist.write_bytes(content)
        doc = self.base_doc()
        doc["code"] = "bad.alist"       # relative to the config's directory
        with pytest.raises(ConfigError, match=re.escape(f"'code': {alist}: {reason}")):
            load_config(self._write(tmp_path, doc), master_seed=1)

    def test_config_that_is_not_utf8_names_its_path(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_bytes(b'{"code": "\xff.alist"}')
        with pytest.raises(ConfigError, match=re.escape(f"{p}: not valid JSON ('utf-8' codec")):
            load_config(p, master_seed=1)

    def test_iteration_limit_is_bounded_before_allocating(self, tmp_path):
        # a threshold vector of 10**18 entries is refused by numpy at once
        for huge in (MAX_ITERATIONS + 1, 10**18):
            with pytest.raises(ValueError, match="iteration limit"):
                NgdbfParams(t_max=huge)
            with pytest.raises(ValueError, match="iteration limit"):
                shift_chain(8, 1.0, np.random.default_rng(0), huge)
        with pytest.raises(ValueError, match="iteration limit"):
            thresholds_by_count(-0.9, 0.99, 10**18)
        doc = self.base_doc()
        doc["params"]["t_max"] = MAX_ITERATIONS + 1
        with pytest.raises(ConfigError, match=re.escape(f"'params.t_max' must be at most "
                                                        f"{MAX_ITERATIONS}")):
            load_config(self._write(tmp_path, doc), master_seed=1)
        assert NgdbfParams(t_max=MAX_ITERATIONS).t_max == MAX_ITERATIONS

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(doc=config_documents())
    def test_any_document_loads_or_raises_config_error(self, tmp_path_factory, doc):
        path = tmp_path_factory.getbasetemp() / "generated.json"
        path.write_text(json.dumps(doc))
        try:
            load_config(path)
        except ConfigError:
            pass
