import numpy as np
import pytest

from ngdbf.channel import QuantizerSpec, ebn0_to_sigma, saturate, transmit
from ngdbf import gdbf
from ngdbf.core import smoothed_decision
from ngdbf.gdbf import decode, decode_batch, step, thresholds_by_count
from ngdbf.harness import DecoderSetup, decode_chunk
from ngdbf.noisy import NOISE_POLICIES, NgdbfParams, NoiseSource, adaptation_events, shift_chain

from .support.oracles import (ShiftRegister, flip_decisions_direct, flip_decisions_prescaled,
                               inversion)
from .test_gdbf import start


class TestParams:
    def test_defaults_valid(self):
        NgdbfParams()

    @pytest.mark.parametrize("kw", [
        dict(theta=0.1), dict(lam=0.0), dict(lam=1.1), dict(eta=-0.1),
        dict(eta=1.5), dict(w=0.0), dict(t_max=0),
        dict(smoothing_window=200, t_max=100), dict(noise_policy="weird"),
        dict(theta=float("nan")), dict(theta=-np.inf), dict(w=float("nan")), dict(w=np.inf),
    ])
    def test_invalid_rejected(self, kw):
        with pytest.raises(ValueError):
            NgdbfParams(**kw)


class TestNoiseSource:
    def test_iid_standard_deviation(self):
        src = NoiseSource(1000, 0.668, "iid", np.random.default_rng(3))
        draws = np.concatenate([src.draw() for _ in range(1000)])
        assert draws.std() == pytest.approx(0.668, rel=0.01)
        assert abs(draws.mean()) < 0.005

    def test_shift_chain_semantics(self):
        n, t_max = 16, 100
        w = shift_chain(n, 1.0, np.random.default_rng(4), t_max)
        q0, q1, q2 = (w[t_max - t:t_max - t + n] for t in range(3))
        assert np.array_equal(q1[1:], q0[:-1])
        assert q1[0] not in q0
        assert np.array_equal(q2[1:], q1[:-1])

    def test_shift_chain_matches_the_register_recurrence(self):
        # Every register t = 0..t_max of float and quantized chains, t_max = 1 among them
        n, sigma = 16, 0.7
        for t_max, quantizer in ((100, None), (100, QuantizerSpec(4, 1.75)),
                                 (1, None), (7, QuantizerSpec(3, 1.0))):
            w = shift_chain(n, sigma, np.random.default_rng(8), t_max, quantizer)
            levels = (lambda q: q) if quantizer is None else quantizer.to_index
            register = ShiftRegister(n, sigma, np.random.default_rng(8))
            for t in range(t_max + 1):
                want = levels(register.draw())
                q = w[t_max - t:t_max - t + n]
                assert q.dtype == want.dtype and np.array_equal(q, want)

    @pytest.mark.parametrize("policy", NOISE_POLICIES)
    def test_quantized_draws_are_the_float_draws_through_the_quantizer(self, policy):
        quantizer = QuantizerSpec(4, 1.75)

        def draws(q):
            if policy == "shift_chain":     # drawn whole, for t_max = 20
                return [shift_chain(64, 0.6, np.random.default_rng(10), 20, q)]
            src = NoiseSource(64, 0.6, policy, np.random.default_rng(10), quantizer=q)
            return [src.draw() for _ in range(50)]

        for drawn, twin in zip(draws(quantizer), draws(None), strict=True):
            assert np.array_equal(drawn, quantizer.to_index(twin))

    @pytest.mark.parametrize("policy", ["iid", "uniform"])
    def test_draws_are_not_changed_by_later_draws(self, policy):
        src = NoiseSource(16, 1.0, policy, np.random.default_rng(9))
        drawn = [(q, q.copy()) for q in (src.draw() for _ in range(100))]
        assert all(np.array_equal(q, kept) for q, kept in drawn)

    def test_uniform_variance_matched(self):
        sigma = 0.668 * 0.9   # eta^2 N0/2 with eta = 0.9
        src = NoiseSource(1000, sigma, "uniform", np.random.default_rng(5))
        draws = np.concatenate([src.draw() for _ in range(1000)])
        assert draws.var() == pytest.approx(sigma * sigma, rel=0.01)
        assert np.abs(draws).max() <= np.sqrt(3) * sigma

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            NoiseSource(8, 1.0, "gauss", np.random.default_rng(0))

    @pytest.mark.parametrize("sigma", [-1.0, float("nan"), float("inf")])
    def test_sigma_must_be_finite_and_non_negative(self, sigma):
        with pytest.raises(ValueError, match="finite and non-negative"):
            NoiseSource(8, sigma, "iid", np.random.default_rng(0))
        with pytest.raises(ValueError, match="finite and non-negative"):
            shift_chain(8, sigma, np.random.default_rng(0), 10)

    def test_shift_chain_is_not_drawn_per_iteration(self):
        with pytest.raises(ValueError, match="shift_chain"):
            NoiseSource(8, 1.0, "shift_chain", np.random.default_rng(0))


class TestNoisyInversion:
    def test_degenerate_parameters_reduce_to_plain_metric(self):
        assert inversion(1, 0.8, (1, 1, 1), w=1.0, q_k=0.0) == pytest.approx(3.8)

    def test_weighted_example(self):
        assert inversion(1, 0.5, (1, -1, 1), w=0.75, q_k=-0.2) == pytest.approx(1.05)

    def test_zero_mean_noise_preserves_expectation(self):
        rng = np.random.default_rng(6)
        q = rng.normal(0, 0.668, 100_000)
        vals = 1 * 0.5 + 0.75 * (1 - 1 + 1) + q
        assert vals.mean() == pytest.approx(inversion(1, 0.5, (1, -1, 1), w=0.75),
                                            abs=4 * 0.668 / np.sqrt(len(q)))


class TestDegeneration:
    def test_zero_noise_multibit_matches_deterministic(self, bench_code):
        rng = np.random.default_rng(44)
        c = np.ones(bench_code.n, dtype=np.int8)
        params = NgdbfParams(theta=-0.9, lam=1.0, eta=0.0, w=1.0, t_max=30)
        noisy = DecoderSetup("mngdbf", params).weight_and_thresholds
        plain = DecoderSetup("atgdbf", params).weight_and_thresholds
        for _ in range(5):
            y = saturate(transmit(c, 0.63, rng), 2.5)
            x_a, s_a, u_a = start(bench_code, y)
            x_b, s_b, u_b = start(bench_code, y)
            for _ in range(30):
                s_a = step(bench_code, x_a, s_a, y, *noisy, u_a)
                s_b = step(bench_code, x_b, s_b, y, *plain, u_b)
                assert np.array_equal(x_a, x_b)

    def test_fixed_seed_reproducible_flips(self, bench_code):
        c = np.ones(bench_code.n, dtype=np.int8)
        y = saturate(transmit(c, 0.63, np.random.default_rng(9)), 2.5)
        params = NgdbfParams(theta=-0.9, lam=0.99, eta=0.95, w=0.75, t_max=40)
        outs = []
        for _ in range(2):
            noise = NoiseSource(bench_code.n, params.eta * 0.63, params.noise_policy,
                                np.random.default_rng(123))
            res = decode(bench_code, y, 40, *DecoderSetup("mngdbf", params).weight_and_thresholds,
                         noise)
            outs.append((res.iterations, res.decisions.tobytes()))
        assert outs[0] == outs[1]


class TestSmoothing:
    THRESHOLDS = thresholds_by_count(-0.9, 1.0, 100)

    @staticmethod
    def accumulators(monkeypatch) -> list:
        """The accumulators the engine hands to smoothed_decision, (n, frames) a call."""
        seen = []
        monkeypatch.setattr(gdbf, "smoothed_decision", lambda smooth, x: (
            seen.append(smooth.copy()) or smoothed_decision(smooth, x)))
        return seen

    def test_early_success_skips_smoothing(self, tiny_code):
        x, _, engaged = decode_batch(tiny_code, np.ones((1, 6)), 100, thresholds=self.THRESHOLDS,
                                     smoothing_window=64)
        assert tiny_code.is_codeword(x[0]) and not engaged[0]

    def test_constant_tail_reproduces_the_constant(self, tiny_code, monkeypatch):
        # stalled frame: decisions never change, smoothing must return them
        y = np.array([[-2.0, 1, 1, 1, 1, 1.0]])
        smooth = self.accumulators(monkeypatch)
        x, _, engaged = decode_batch(tiny_code, y, 10, thresholds=self.THRESHOLDS,
                                     smoothing_window=4)
        assert not tiny_code.is_codeword(x[0]) and engaged[0]
        assert list(x[0]) == [-1, 1, 1, 1, 1, 1]
        assert [a.T.tolist() for a in smooth] == [[[-4, 4, 4, 4, 4, 4]]]

    def test_window_length_counts_final_iterations(self, tiny_code, monkeypatch):
        y = np.array([[-2.0, 1, 1, 1, 1, 1.0]])
        smooth = self.accumulators(monkeypatch)
        decode_batch(tiny_code, y, 12, thresholds=self.THRESHOLDS, smoothing_window=5)
        assert abs(int(smooth[0][1, 0])) == 5


class TestAdaptationTable:
    # reference events for theta=-0.9, lambda=0.99, y_max=2.5, budget 300
    REFERENCE = {
        3: [(-0.9375, 0), (-0.3125, 37)],
        4: [(-0.78125, 0), (-0.46875, 37), (-0.15625, 106)],
        5: [(-0.859375, 0), (-0.703125, 15), (-0.546875, 37), (-0.390625, 65),
            (-0.234375, 106), (-0.078125, 175)],
    }

    @pytest.mark.parametrize("q_bits", [3, 4, 5])
    def test_reference_events(self, q_bits):
        rows = adaptation_events(-0.9, 0.99, QuantizerSpec(q_bits, 2.5), 300)
        assert rows == [(i, lvl, tau) for i, (lvl, tau) in enumerate(self.REFERENCE[q_bits])]

    def test_invariants_across_parameters(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            theta = -float(rng.uniform(0.1, 2.4))
            lam = float(rng.uniform(0.9, 0.999))
            q = QuantizerSpec(int(rng.integers(2, 7)), float(rng.choice([1.5, 1.75, 2.5])))
            rows = adaptation_events(theta, lam, q, 400)
            i, levels, taus = zip(*rows)
            assert list(i) == list(range(len(rows)))
            assert taus[0] == 0
            assert all(b > a for a, b in zip(taus, taus[1:]))
            assert all(b > a for a, b in zip(levels, levels[1:]))
            assert len(levels) <= q.n_levels // 2
            # each level is theta * lam**tau quantized, and holds until the next event
            u = np.arange(401)
            assert np.array_equal(q.quantize(theta * lam ** u),
                                  np.repeat(levels, np.diff((*taus, 401))))

    def test_lambda_one_single_event(self):
        assert adaptation_events(-0.9, 1.0, QuantizerSpec(4, 2.5), 300) == [(0, -0.78125, 0)]

    def test_threshold_lookup_switch_point(self, tiny_code):
        # The rule holds each reference level from its tau up to the next one.
        params = NgdbfParams(theta=-0.9, lam=0.99, eta=0.0, t_max=300)
        for q_bits, events in self.REFERENCE.items():
            q = QuantizerSpec(q_bits, 2.5)
            _, thresholds = DecoderSetup("mngdbf", params, q).weight_and_thresholds
            levels, taus = zip(*events)
            expected = np.repeat(levels, np.diff((*taus, params.t_max + 1)))
            assert np.array_equal(q.from_index(thresholds), expected)

    def test_validation(self):
        q = QuantizerSpec(3, 2.5)
        for theta in (0.5, 0.0, float("nan"), -np.inf):
            with pytest.raises(ValueError, match="finite and negative"):
                adaptation_events(theta, 0.99, q, 100)
        for lam in (0.0, 1.01):
            with pytest.raises(ValueError, match="adaptation parameter"):
                adaptation_events(-0.9, lam, q, 100)
        for t_max in (0, -1):
            with pytest.raises(ValueError, match="iteration limit"):
                adaptation_events(-0.9, 0.99, q, t_max)


class TestQuantizedDatapath:
    def _random_symbols(self, rng, q, n):
        odd = np.arange(-(q.n_levels - 1), q.n_levels, 2)
        return dict(
            x=rng.choice([-1, 1], size=n).astype(np.int64),
            y_idx=rng.choice(odd, size=n),
            q_idx=rng.choice(odd, size=n),
            theta_idx=rng.choice(odd[odd < 0], size=n),
            syndrome_sums=rng.integers(-3, 4, size=n),
        )

    def test_prescaled_matches_direct(self):
        q = QuantizerSpec(4, 1.75)
        rng = np.random.default_rng(12)
        w_idx = int(q.to_index(0.75))
        for _ in range(5):
            sym = self._random_symbols(rng, q, 500)
            direct = flip_decisions_direct(w_idx=w_idx, **sym)
            scaled = flip_decisions_prescaled(w_idx=w_idx, **sym)
            assert np.array_equal(direct, scaled)

    def test_huge_weight_takes_the_outer_level(self, tiny_code):
        setup = DecoderSetup("mngdbf", NgdbfParams(w=1e20), QuantizerSpec(4, 1.75))
        assert setup.weight_and_thresholds[0] == 15

    def test_exact_threshold_boundary_does_not_flip(self):
        # E == theta: delta = sign(0) = +1, counter increments, no flip
        one = np.array([1])
        delta = flip_decisions_direct(x=one, y_idx=np.array([3]), q_idx=np.array([-1]),
                                      theta_idx=np.array([5]), w_idx=3,
                                      syndrome_sums=np.array([1]))
        assert delta[0] == 1
        scaled = flip_decisions_prescaled(x=one, y_idx=np.array([3]), q_idx=np.array([-1]),
                                          theta_idx=np.array([5]), w_idx=3,
                                          syndrome_sums=np.array([1]))
        assert scaled[0] == 1

    def test_counter_and_threshold_progression(self, tiny_code):
        q = QuantizerSpec(3, 2.5)
        params = NgdbfParams(theta=-0.9, lam=0.99, eta=0.0, w=0.75, t_max=300)
        setup = DecoderSetup("mngdbf", params, q)
        w, thresholds = setup.weight_and_thresholds
        y = setup.samples(np.array([-2.0, 1, 1, 1, 1, 1.0]))
        x, s, u = start(tiny_code, y)
        for _ in range(36):
            s = step(tiny_code, x, s, y, w, thresholds, u)
        # the stalled symbols have 36 consecutive non-flips; one more crosses
        # the tau=37 event and relaxes the threshold from -0.9375 to -0.3125
        active_before = thresholds[u]
        step(tiny_code, x, s, y, w, thresholds, u)
        active_after = thresholds[u]
        frozen = u == 37
        assert frozen.any()
        assert (q.from_index(active_before[frozen]) == pytest.approx(-0.9375))
        assert (q.from_index(active_after[frozen]) == pytest.approx(-0.3125))

    def test_flip_set_matches_direct_oracle(self, bench_code):
        # Random decisions and counters; each step's flips must be exactly the
        # oracle's delta = -1 set, from the same decisions, samples,
        # perturbation, syndrome sums and thresholds theta * lam**u.
        q = QuantizerSpec(4, 1.75)
        params = NgdbfParams(theta=-0.7, lam=0.97, eta=0.95, w=0.75, t_max=80)
        rng = np.random.default_rng(61)
        n = bench_code.n
        c = np.ones(n, dtype=np.int8)
        setup = DecoderSetup("mngdbf", params, q)
        w, thresholds = setup.weight_and_thresholds
        boundary = 0
        for trial in range(6):
            y = setup.samples(transmit(c, 0.8, rng))
            noise = NoiseSource(n, params.eta * 0.8, "iid", np.random.default_rng(trial),
                                quantizer=q)
            twin = NoiseSource(n, params.eta * 0.8, "iid", np.random.default_rng(trial))
            x = rng.choice(np.array([-1, 1], dtype=np.int8), size=n)
            s = bench_code.syndrome(x)
            u = rng.integers(0, params.t_max - 10, size=n)
            for _ in range(10):
                x_before, u_before = x.copy(), u.copy()
                sums = bench_code.syndrome_sums(s)
                q_idx = q.to_index(twin.draw())
                theta_idx = q.to_index(params.theta * params.lam ** u_before)
                delta = flip_decisions_direct(x_before, y, q_idx, theta_idx, w, sums)
                boundary += int((x_before * y + w * sums + q_idx == theta_idx).sum())
                s = step(bench_code, x, s, y, w, thresholds, u, noise.draw())
                assert np.array_equal(x != x_before, delta == -1)
                assert np.array_equal(u, u_before + (delta == 1))
        assert boundary > 0

    def test_shift_chain_frame_quantizes_samples_and_chain_once(self, bench_code, monkeypatch):
        setup = DecoderSetup("mngdbf", NgdbfParams(theta=-0.7, lam=0.99, eta=0.95, w=0.75,
                                                   t_max=100, noise_policy="shift_chain"),
                             QuantizerSpec(4, 1.75))
        setup.weight_and_thresholds     # built once per setup, not per frame
        calls, to_index = [], QuantizerSpec.to_index
        monkeypatch.setattr(QuantizerSpec, "to_index",
                            lambda self, y: calls.append(1) or to_index(self, y))
        frames, sigma = 8, ebn0_to_sigma(3.0, float(bench_code.rate))
        stats = [decode_chunk(bench_code, setup, sigma, 2.5, 5, 0, fi, fi + 1)
                 for fi in range(frames)]
        assert sum(int(s.iterations.sum()) for s in stats) > 10 * frames
        assert len(calls) <= 2 * frames

    def test_quantized_decode_runs_and_counts(self, bench_code):
        q = QuantizerSpec(4, 1.75)
        params = NgdbfParams(theta=-0.7, lam=0.99, eta=0.95, w=0.75, t_max=100)
        c = np.ones(bench_code.n, dtype=np.int8)
        y = transmit(c, 0.6, np.random.default_rng(2))
        noise = NoiseSource(bench_code.n, params.eta * 0.6, params.noise_policy,
                            np.random.default_rng(3), quantizer=q)
        setup = DecoderSetup("mngdbf", params, q)
        res = decode(bench_code, setup.samples(y), 100, *setup.weight_and_thresholds, noise)
        assert res.success
        assert bench_code.is_codeword(res.decisions)


class TestSingleBitNoisy:
    def test_argmin_semantics_with_zero_noise(self, tiny_code):
        y = np.array([1, 1, 1, -0.1, 1, 1.0])
        x, s, _ = start(tiny_code, y)
        step(tiny_code, x, s, y, w=1.0)
        assert list(x) == [1] * 6
