import numpy as np
import pytest

from ngdbf.channel import QuantizerSpec, ebn0_to_sigma, saturate, transmit
from ngdbf.core import DecoderState, decode, init_state
from ngdbf.gdbf import BitFlipStepper, thresholds_by_count
from ngdbf.harness import DecoderSetup, build_stepper, decode_frame
from ngdbf.noisy import NOISE_POLICIES, NgdbfParams, NoiseSource, adaptation_events

from .support.oracles import flip_decisions_direct, flip_decisions_prescaled, inversion


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
        src = NoiseSource(16, 1.0, "shift_chain", np.random.default_rng(4))
        q0 = src.draw()
        q1 = src.draw()
        assert np.array_equal(q1[1:], q0[:-1])
        assert q1[0] not in q0
        q2 = src.draw()
        assert np.array_equal(q2[1:], q1[:-1])

    def test_shift_chain_matches_the_register_recurrence(self):
        # Float and quantized chains, with enough draws to run past the first
        # block of t_max + 1 registers and move the register to a new chain
        # several times; t_max = 1 moves it on every other draw.
        n, sigma = 16, 0.7
        for t_max, quantizer in ((100, None), (100, QuantizerSpec(4, 1.75)),
                                 (1, None), (7, QuantizerSpec(3, 1.0))):
            src = NoiseSource(n, sigma, "shift_chain", np.random.default_rng(8), t_max, quantizer)
            levels = (lambda q: q) if quantizer is None else quantizer.to_index
            twin = np.random.default_rng(8)
            chain = sigma * twin.standard_normal(n)
            drawn = []
            for _ in range(3 * n + 300):
                q = src.draw()
                if drawn:
                    chain = np.concatenate((sigma * twin.standard_normal(1), chain[:-1]))
                want = levels(chain)
                assert q.dtype == want.dtype and np.array_equal(q, want)
                drawn.append((q, want))
            assert all(np.array_equal(q, chain) for q, chain in drawn)

    @pytest.mark.parametrize("policy", NOISE_POLICIES)
    def test_quantized_draws_are_the_float_draws_through_the_quantizer(self, policy):
        quantizer = QuantizerSpec(4, 1.75)
        src, twin = (NoiseSource(64, 0.6, policy, np.random.default_rng(10), 20, q)
                     for q in (quantizer, None))
        for _ in range(50):
            assert np.array_equal(src.draw(), quantizer.to_index(twin.draw()))

    @pytest.mark.parametrize("policy", NOISE_POLICIES)
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
        for _ in range(5):
            y = saturate(transmit(c, 0.63, rng), 2.5)
            st_a = init_state(bench_code, y)
            st_b = init_state(bench_code, y)
            noisy = build_stepper(bench_code, DecoderSetup("mngdbf", params), y, None)
            plain = build_stepper(bench_code, DecoderSetup("atgdbf", params), y, None)
            for _ in range(30):
                noisy.step(st_a)
                plain.step(st_b)
                assert np.array_equal(st_a.x, st_b.x)

    def test_fixed_seed_reproducible_flips(self, bench_code):
        c = np.ones(bench_code.n, dtype=np.int8)
        y = saturate(transmit(c, 0.63, np.random.default_rng(9)), 2.5)
        params = NgdbfParams(theta=-0.9, lam=0.99, eta=0.95, w=0.75, t_max=40)
        outs = []
        for _ in range(2):
            noise = NoiseSource(bench_code.n, params.eta * 0.63, params.noise_policy,
                                np.random.default_rng(123))
            stepper = build_stepper(bench_code, DecoderSetup("mngdbf", params), y, noise)
            res = decode(stepper, init_state(bench_code, y), 40)
            outs.append((res.iterations, res.decisions.tobytes()))
        assert outs[0] == outs[1]


class TestSmoothing:
    def test_early_success_skips_smoothing(self, tiny_code):
        y = np.ones(6)
        stepper = BitFlipStepper(tiny_code, y, thresholds=thresholds_by_count(-0.9, 1.0, 100))
        res = decode(stepper, init_state(tiny_code, y), 100, smoothing_window=64)
        assert res.success and not res.smoothing_engaged

    def test_constant_tail_reproduces_the_constant(self, tiny_code):
        # stalled frame: decisions never change, smoothing must return them
        y = np.array([-2.0, 1, 1, 1, 1, 1.0])
        stepper = BitFlipStepper(tiny_code, y, thresholds=thresholds_by_count(-0.9, 1.0, 100))
        st = init_state(tiny_code, y)
        res = decode(stepper, st, 10, smoothing_window=4)
        assert not res.success and res.smoothing_engaged
        assert list(res.decisions) == [-1, 1, 1, 1, 1, 1]
        assert list(st.smooth) == [-4, 4, 4, 4, 4, 4]

    def test_window_length_counts_final_iterations(self, tiny_code):
        y = np.array([-2.0, 1, 1, 1, 1, 1.0])
        stepper = BitFlipStepper(tiny_code, y, thresholds=thresholds_by_count(-0.9, 1.0, 100))
        st = init_state(tiny_code, y)
        decode(stepper, st, 12, smoothing_window=5)
        assert abs(int(st.smooth[1])) == 5


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
        # The stepper holds each reference level from its tau up to the next one.
        params = NgdbfParams(theta=-0.9, lam=0.99, eta=0.0, t_max=300)
        for q_bits, events in self.REFERENCE.items():
            q = QuantizerSpec(q_bits, 2.5)
            stepper = build_stepper(tiny_code, DecoderSetup("mngdbf", params, q), np.ones(tiny_code.n),
                                    None)
            levels, taus = zip(*events)
            expected = np.repeat(levels, np.diff((*taus, params.t_max + 1)))
            assert np.array_equal(q.from_index(stepper.thresholds), expected)

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
        assert build_stepper(tiny_code, setup, np.ones(tiny_code.n), None).w == 15

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
        y = np.array([-2.0, 1, 1, 1, 1, 1.0])
        stepper = build_stepper(tiny_code, DecoderSetup("mngdbf", params, q), y, None)
        st = init_state(tiny_code, stepper.y)
        for _ in range(36):
            stepper.step(st)
        # the stalled symbols have 36 consecutive non-flips; one more crosses
        # the tau=37 event and relaxes the threshold from -0.9375 to -0.3125
        active_before = stepper.thresholds[stepper.u]
        stepper.step(st)
        active_after = stepper.thresholds[stepper.u]
        frozen = stepper.u == 37
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
        boundary = 0
        for trial in range(6):
            y = transmit(c, 0.8, rng)
            noise = NoiseSource(n, params.eta * 0.8, "iid", np.random.default_rng(trial),
                                params.t_max, q)
            twin = NoiseSource(n, params.eta * 0.8, "iid", np.random.default_rng(trial))
            stepper = build_stepper(bench_code, DecoderSetup("mngdbf", params, q), y, noise)
            x = rng.choice(np.array([-1, 1], dtype=np.int8), size=n)
            st = DecoderState(x=x, s=bench_code.syndrome(x))
            stepper.u[:] = rng.integers(0, params.t_max - 10, size=n)
            for _ in range(10):
                x_before, u_before = st.x.copy(), stepper.u.copy()
                sums = bench_code.syndrome_sums(st.s)
                q_idx = q.to_index(twin.draw())
                theta_idx = q.to_index(params.theta * params.lam ** u_before)
                delta = flip_decisions_direct(x_before, stepper.y, q_idx, theta_idx,
                                              stepper.w, sums)
                boundary += int((x_before * stepper.y + stepper.w * sums + q_idx
                                 == theta_idx).sum())
                stepper.step(st)
                assert np.array_equal(st.x != x_before, delta == -1)
                assert np.array_equal(stepper.u, u_before + (delta == 1))
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
        stats = [decode_frame(bench_code, setup, sigma, 2.5, 5, 0, fi) for fi in range(frames)]
        assert sum(s.iterations for s in stats) > 10 * frames
        assert len(calls) <= 2 * frames

    def test_quantized_decode_runs_and_counts(self, bench_code):
        q = QuantizerSpec(4, 1.75)
        params = NgdbfParams(theta=-0.7, lam=0.99, eta=0.95, w=0.75, t_max=100,
                             noise_policy="shift_chain")
        c = np.ones(bench_code.n, dtype=np.int8)
        y = transmit(c, 0.6, np.random.default_rng(2))
        noise = NoiseSource(bench_code.n, params.eta * 0.6, params.noise_policy,
                            np.random.default_rng(3), params.t_max, q)
        stepper = build_stepper(bench_code, DecoderSetup("mngdbf", params, q), y, noise)
        res = decode(stepper, init_state(bench_code, stepper.y), 100)
        assert res.success
        assert bench_code.is_codeword(res.decisions)


class TestSingleBitNoisy:
    def test_argmin_semantics_with_zero_noise(self, tiny_code):
        y = np.array([1, 1, 1, -0.1, 1, 1.0])
        stepper = BitFlipStepper(tiny_code, y, w=1.0)
        st = init_state(tiny_code, y)
        stepper.step(st)
        assert list(st.x) == [1] * 6
