import numpy as np
import pytest

from ngdbf.channel import saturate, transmit
from ngdbf.core import DecoderState, decode, init_state, objective
from ngdbf.gdbf import BitFlipStepper, decode_batch, inversions, thresholds_by_count

from .support.oracles import PlainBitFlip, inversion


class TestInversion:
    def test_satisfied_neighborhood(self):
        assert inversion(1, 0.8, (1, 1, 1)) == pytest.approx(3.8)

    def test_unsatisfied_neighborhood(self):
        assert inversion(-1, 0.8, (-1, -1, -1)) == pytest.approx(-3.8)

    def test_correct_bit_is_never_a_flip_candidate(self):
        # satisfied checks and matching sign: E = |y| + d_v > 0
        assert inversion(1, 0.3, (1, 1, 1)) > 0

    def test_vectorized_matches_scalar(self, tiny_code):
        rng = np.random.default_rng(2)
        y = rng.normal(1, 0.7, 6)
        st = init_state(tiny_code, rng.normal(0, 1, 6))
        e = inversions(tiny_code, st, y, w=0.75)
        for k in range(6):
            adj = [int(st.s[i]) for i in tiny_code.col_neighbors[k]]
            assert e[k] == pytest.approx(inversion(st.x[k], y[k], adj, w=0.75))


class TestSingleFlip:
    def test_flips_unique_argmin(self, tiny_code):
        y = np.array([1, 1, 1, -0.1, 1, 1.0])
        st = init_state(tiny_code, y)
        BitFlipStepper(tiny_code, y).step(st)
        assert list(st.x) == [1, 1, 1, 1, 1, 1]

    def test_tie_breaks_to_lowest_index(self, tiny_code):
        # confident correct bits leave symbols 3 and 4 tied at the minimum
        y = np.array([2, 2, 2, -0.1, -0.1, 2.0])
        st = init_state(tiny_code, y)
        e = inversions(tiny_code, st, y)
        assert e[3] == e[4] == min(e)
        BitFlipStepper(tiny_code, y).step(st)
        assert st.x[3] == 1 and st.x[4] == -1

    def test_syndrome_kept_consistent(self, tiny_code):
        y = np.array([1, 1, -0.4, -0.1, 1, 1.0])
        st = init_state(tiny_code, y)
        stepper = BitFlipStepper(tiny_code, y)
        for _ in range(4):
            stepper.step(st)
            assert np.array_equal(st.s, tiny_code.syndrome(st.x))


class TestDecodeBatch:
    def test_single_flip_ties_break_to_the_lowest_index(self, tiny_code):
        # Symbols 1, 2 and 4 tie at the first minimum.  Flipping symbol 1 leads to
        # a wrong codeword after 2 steps; flipping 4 would decode in 3.
        y = np.array([[2, -0.1, -0.1, 2, -0.1, 0.1], [2, 2, 2, -0.1, -0.1, 2.0]])
        x, iterations, engaged = decode_batch(tiny_code, y, 3)
        assert x.dtype == np.int8 and x.shape == y.shape
        for j, row in enumerate(y):
            result = decode(BitFlipStepper(tiny_code, row), init_state(tiny_code, row), 3)
            assert np.array_equal(x[j], result.decisions)
            assert iterations[j] == result.iterations and not engaged[j]
        assert (np.count_nonzero(x[0] != 1), iterations[0]) == (3, 2)

    def test_empty_batch(self, tiny_code):
        x, *stats = decode_batch(tiny_code, np.empty((0, tiny_code.n)), 5,
                                 thresholds=thresholds_by_count(-0.5, 1.0, 5), mode_switching=True)
        assert x.shape == (0, tiny_code.n) and [a.tolist() for a in stats] == [[], []]


class TestMultiFlip:
    def test_threshold_comparison(self, tiny_code):
        # metrics: E_3 = -0.7 and E_4 = -0.75, all other symbols >= 0
        y = np.array([2, 2, 2, -0.3, -0.25, 2.0])
        st = init_state(tiny_code, y)
        deep = BitFlipStepper(tiny_code, y, thresholds=thresholds_by_count(-0.9, 1.0, 1))
        deep.step(st)
        assert list(st.x) == [1, 1, 1, -1, -1, 1]     # nothing under -0.9: no-op
        assert st.t == 0                               # loop owns the counter
        stepper = BitFlipStepper(tiny_code, y, thresholds=thresholds_by_count(-0.5, 1.0, 1))
        stepper.step(st)
        assert list(st.x) == [1, 1, 1, 1, 1, 1]

    def test_parallel_snapshot_semantics(self, tiny_code):
        # bits 0 and 1 are both under threshold on the pre-step snapshot, but
        # flipping bit 0 alone would lift bit 1 far above it; both must flip.
        y = np.array([-0.2, 0.35, 1, 1, 1, 1.0])
        st = init_state(tiny_code, y)
        stepper = BitFlipStepper(tiny_code, y, thresholds=thresholds_by_count(0.4, 1.0, 1))
        e = inversions(tiny_code, st, y)
        assert e[0] < 0.4 and e[1] < 0.4
        stepper.step(st)
        assert st.x[0] == 1 and st.x[1] == -1
        assert np.array_equal(st.s, tiny_code.syndrome(st.x))

    def test_single_bit_mode_when_flag_low(self, tiny_code):
        y = np.array([1, 1, 1, -0.3, -0.25, 1.0])
        st = init_state(tiny_code, y)
        stepper = BitFlipStepper(tiny_code, y, thresholds=thresholds_by_count(-0.1, 1.0, 1))
        stepper.mu = 0
        stepper.step(st)
        assert int((st.x != init_state(tiny_code, y).x).sum()) == 1

    # An aggressive threshold flips four bits at once and the objective drops;
    # single flips then raise it and decode at step 3.
    OVERSHOOT = np.array([0.3, 2, 2, -0.2, -0.2, 2])

    def test_overshoot_drops_mode_flag_permanently(self, tiny_code):
        y, thresholds = self.OVERSHOOT, thresholds_by_count(0.5, 1.0, 10)
        st = init_state(tiny_code, y)
        stepper = BitFlipStepper(tiny_code, y, thresholds=thresholds)
        f = [objective(tiny_code, st.x, y, st.s)]
        for t in range(3):
            if t == 2:      # had the rise brought the flag back, step 3 would multi-flip
                multi = DecoderState(st.x.copy(), st.s.copy())
                BitFlipStepper(tiny_code, y, thresholds=thresholds).step(multi)
                assert not tiny_code.is_codeword(multi.x)
            stepper.step(st)
            stepper.mu = 0      # the flag drops after the first step, for good
            f.append(objective(tiny_code, st.x, y, st.s))
        assert f[1] < f[0] and f[2] > f[1] and tiny_code.is_codeword(st.x)
        x, iterations, _ = decode_batch(tiny_code, y[None], 10, thresholds=thresholds,
                                        mode_switching=True)
        assert np.array_equal(x[0], st.x) and iterations[0] == 3

    def test_mode_flag_untouched_without_switching(self, tiny_code):
        y, thresholds = self.OVERSHOOT, thresholds_by_count(0.5, 1.0, 10)
        result = decode(BitFlipStepper(tiny_code, y, thresholds=thresholds),
                        init_state(tiny_code, y), 10)
        x, iterations, _ = decode_batch(tiny_code, y[None], 10, thresholds=thresholds)
        assert np.array_equal(x[0], result.decisions) and iterations[0] == 10
        assert not result.success


class TestAdaptiveThreshold:
    def test_lambda_one_matches_fixed_threshold_multibit(self, bench_code):
        rng = np.random.default_rng(77)
        c = np.ones(bench_code.n, dtype=np.int8)
        for _ in range(5):
            y = saturate(transmit(c, 0.63, rng), 2.5)
            st_a = init_state(bench_code, y)
            st_b = init_state(bench_code, y)
            a = BitFlipStepper(bench_code, y, thresholds=thresholds_by_count(-0.9, 1.0, 30))
            b = PlainBitFlip(bench_code, y, theta=-0.9)
            for _ in range(30):
                a.step(st_a)
                b.step()
                assert np.array_equal(st_a.x, b.x)

    def test_no_flip_decays_threshold(self, tiny_code):
        y = np.ones(6)
        st = init_state(tiny_code, y)
        stepper = BitFlipStepper(tiny_code, y, thresholds=thresholds_by_count(-0.9, 0.99, 1))
        stepper.step(st)
        assert np.allclose(stepper.thresholds[stepper.u], -0.891)

    def test_flip_keeps_threshold(self, tiny_code):
        # weak wrong bit with both checks violated: E_0 = 0.2 - 2 = -1.8
        y = np.array([-0.2, 1, 1, 1, 1, 1.0])
        st = init_state(tiny_code, y)
        stepper = BitFlipStepper(tiny_code, y, thresholds=thresholds_by_count(-0.9, 0.99, 1))
        e = inversions(tiny_code, st, y)
        assert e[0] < -0.9
        stepper.step(st)
        assert st.x[0] == 1                       # flipped
        assert stepper.thresholds[stepper.u][0] == pytest.approx(-0.9)
        assert stepper.thresholds[stepper.u][1] == pytest.approx(-0.891)

    def test_threshold_magnitudes_never_grow(self, bench_code):
        rng = np.random.default_rng(13)
        c = np.ones(bench_code.n, dtype=np.int8)
        y = saturate(transmit(c, 0.7, rng), 2.5)
        st = init_state(bench_code, y)
        stepper = BitFlipStepper(bench_code, y, thresholds=thresholds_by_count(-0.9, 0.98, 50))
        prev = np.abs(stepper.thresholds[stepper.u])
        for _ in range(50):
            stepper.step(st)
            now = np.abs(stepper.thresholds[stepper.u])
            assert (now <= prev + 1e-15).all()
            prev = now.copy()

    @pytest.mark.parametrize("theta, lam", [(-0.9, 0.99), (-0.6, 0.97), (-1.3, 0.9),
                                            (-0.7, 0.999), (-2.1, 0.93), (-0.5, 1.0)])
    def test_threshold_after_u_non_flips_is_the_repeated_product(self, tiny_code, theta, lam):
        # Every check satisfied and E_k > 0: no symbol ever flips, so after u
        # steps each threshold is theta multiplied by lam u times in turn.
        y = np.ones(6)
        st = init_state(tiny_code, y)
        stepper = BitFlipStepper(tiny_code, y, thresholds=thresholds_by_count(theta, lam, 400))
        expected = theta
        for u in range(1, 401):
            stepper.step(st)
            expected *= lam
            assert (stepper.u == u).all()
            assert (stepper.thresholds[stepper.u] == expected).all()

    def test_invalid_lambda(self, tiny_code):
        with pytest.raises(ValueError):
            thresholds_by_count(-0.9, 0.0, 10)

    @pytest.mark.parametrize("t_max", [0, -1])
    def test_iteration_limit_below_one(self, t_max):
        with pytest.raises(ValueError, match="iteration limit"):
            thresholds_by_count(-0.9, 0.99, t_max)
