import numpy as np
import pytest

from ngdbf.channel import saturate, transmit
from ngdbf.codes import bipolar_sign
from ngdbf.core import objective
from ngdbf.gdbf import decode, decode_batch, step, thresholds_by_count

from .support.oracles import PlainBitFlip, inversion, plain_decode


def start(code, y):
    """Initial decisions, syndromes and non-flip counts of a frame."""
    x = bipolar_sign(y)
    return x, code.syndrome(x), np.zeros(code.n, dtype=np.int64)


def metrics(code, x, s, y, w=1.0):
    """E_k = x_k y_k + w * sum_{i in M(k)} s_i, from its definition."""
    return x * y + w * code.syndrome_sums(s)


class TestInversion:
    def test_satisfied_neighborhood(self):
        assert inversion(1, 0.8, (1, 1, 1)) == pytest.approx(3.8)

    def test_unsatisfied_neighborhood(self):
        assert inversion(-1, 0.8, (-1, -1, -1)) == pytest.approx(-3.8)

    def test_correct_bit_is_never_a_flip_candidate(self):
        # satisfied checks and matching sign: E = |y| + d_v > 0
        assert inversion(1, 0.3, (1, 1, 1)) > 0

    def test_vectorized_matches_scalar(self, tiny_code):
        # step's metric flips the scalar metric's argmin, or every symbol below 0
        rng = np.random.default_rng(2)
        y = rng.normal(1, 0.7, 6)
        x, s, u = start(tiny_code, rng.normal(0, 1, 6))
        e = [inversion(x[k], y[k], [int(s[i]) for i in tiny_code.col_neighbors[k]], w=0.75)
             for k in range(6)]
        single = x.copy()
        step(tiny_code, single, s.copy(), y, 0.75)
        assert np.flatnonzero(single != x).tolist() == [int(np.argmin(e))]
        multi = x.copy()
        step(tiny_code, multi, s.copy(), y, 0.75, np.zeros(2), u)
        assert np.array_equal(multi != x, np.array(e) < 0)


class TestSingleFlip:
    def test_flips_unique_argmin(self, tiny_code):
        y = np.array([1, 1, 1, -0.1, 1, 1.0])
        x, s, _ = start(tiny_code, y)
        step(tiny_code, x, s, y)
        assert list(x) == [1, 1, 1, 1, 1, 1]

    def test_tie_breaks_to_lowest_index(self, tiny_code):
        # confident correct bits leave symbols 3 and 4 tied at the minimum
        y = np.array([2, 2, 2, -0.1, -0.1, 2.0])
        x, s, _ = start(tiny_code, y)
        e = metrics(tiny_code, x, s, y)
        assert e[3] == e[4] == min(e)
        step(tiny_code, x, s, y)
        assert x[3] == 1 and x[4] == -1

    def test_syndrome_kept_consistent(self, tiny_code):
        y = np.array([1, 1, -0.4, -0.1, 1, 1.0])
        x, s, _ = start(tiny_code, y)
        for _ in range(4):
            s = step(tiny_code, x, s, y)
            assert np.array_equal(s, tiny_code.syndrome(x))


class TestDecodeBatch:
    def test_single_flip_ties_break_to_the_lowest_index(self, tiny_code):
        # Symbols 1, 2 and 4 tie at the first minimum.  Flipping symbol 1 leads to
        # a wrong codeword after 2 steps; flipping 4 would decode in 3.
        y = np.array([[2, -0.1, -0.1, 2, -0.1, 0.1], [2, 2, 2, -0.1, -0.1, 2.0]])
        x, iterations, engaged = decode_batch(tiny_code, y, 3)
        assert x.dtype == np.int8 and x.shape == y.shape
        for j, row in enumerate(y):
            decisions, t, _ = plain_decode(tiny_code, row, 3)
            assert np.array_equal(x[j], decisions)
            assert iterations[j] == t and not engaged[j]
        assert (np.count_nonzero(x[0] != 1), iterations[0]) == (3, 2)

    def test_empty_batch(self, tiny_code):
        x, *stats = decode_batch(tiny_code, np.empty((0, tiny_code.n)), 5,
                                 thresholds=thresholds_by_count(-0.5, 1.0, 5), mode_switching=True)
        assert x.shape == (0, tiny_code.n) and [a.tolist() for a in stats] == [[], []]


def test_decode_takes_only_frames_with_per_iteration_draws(tiny_code):
    # an unperturbed frame goes through decode_batch; decode needs a noise source
    with pytest.raises(TypeError):
        decode(tiny_code, np.ones(6), 3, 1.0, None)


class TestMultiFlip:
    def test_threshold_comparison(self, tiny_code):
        # metrics: E_3 = -0.7 and E_4 = -0.75, all other symbols >= 0
        y = np.array([2, 2, 2, -0.3, -0.25, 2.0])
        x, s, u = start(tiny_code, y)
        s = step(tiny_code, x, s, y, thresholds=thresholds_by_count(-0.9, 1.0, 1), u=u)
        assert list(x) == [1, 1, 1, -1, -1, 1]      # nothing under -0.9: no-op
        assert (u == 1).all()                        # every symbol counts a non-flip
        step(tiny_code, x, s, y, thresholds=thresholds_by_count(-0.5, 1.0, 1),
             u=np.zeros(6, dtype=np.int64))
        assert list(x) == [1, 1, 1, 1, 1, 1]

    def test_parallel_snapshot_semantics(self, tiny_code):
        # bits 0 and 1 are both under threshold on the pre-step snapshot, but
        # flipping bit 0 alone would lift bit 1 far above it; both must flip.
        y = np.array([-0.2, 0.35, 1, 1, 1, 1.0])
        x, s, u = start(tiny_code, y)
        e = metrics(tiny_code, x, s, y)
        assert e[0] < 0.4 and e[1] < 0.4
        s = step(tiny_code, x, s, y, thresholds=thresholds_by_count(0.4, 1.0, 1), u=u)
        assert x[0] == 1 and x[1] == -1
        assert np.array_equal(s, tiny_code.syndrome(x))

    def test_single_bit_mode_when_flag_low(self, tiny_code):
        # with the mode flag low, the rule takes no thresholds
        y = np.array([1, 1, 1, -0.3, -0.25, 1.0])
        x, s, _ = start(tiny_code, y)
        step(tiny_code, x, s, y)
        assert int((x != bipolar_sign(y)).sum()) == 1

    # An aggressive threshold flips four bits at once and the objective drops;
    # single flips then raise it and decode at step 3.
    OVERSHOOT = np.array([0.3, 2, 2, -0.2, -0.2, 2])

    def test_overshoot_drops_mode_flag_permanently(self, tiny_code):
        y, thresholds = self.OVERSHOOT, thresholds_by_count(0.5, 1.0, 10)
        x, s, u = start(tiny_code, y)
        f = [objective(tiny_code, x, y, s)]
        for t in range(3):
            if t == 2:      # had the rise brought the flag back, step 3 would multi-flip
                multi = x.copy()
                step(tiny_code, multi, s.copy(), y, thresholds=thresholds,
                     u=np.zeros(6, dtype=np.int64))
                assert not tiny_code.is_codeword(multi)
            # the flag drops after the first step, for good
            s = step(tiny_code, x, s, y, thresholds=thresholds if t == 0 else None, u=u)
            f.append(objective(tiny_code, x, y, s))
        assert f[1] < f[0] and f[2] > f[1] and tiny_code.is_codeword(x)
        xb, iterations, _ = decode_batch(tiny_code, y[None], 10, thresholds=thresholds,
                                         mode_switching=True)
        assert np.array_equal(xb[0], x) and iterations[0] == 3

    def test_mode_flag_untouched_without_switching(self, tiny_code):
        y, thresholds = self.OVERSHOOT, thresholds_by_count(0.5, 1.0, 10)
        decisions, t, _ = plain_decode(tiny_code, y, 10, theta=0.5)
        x, iterations, _ = decode_batch(tiny_code, y[None], 10, thresholds=thresholds)
        assert np.array_equal(x[0], decisions) and iterations[0] == t == 10
        assert not tiny_code.is_codeword(x[0])


class TestAdaptiveThreshold:
    def test_lambda_one_matches_fixed_threshold_multibit(self, bench_code):
        rng = np.random.default_rng(77)
        c = np.ones(bench_code.n, dtype=np.int8)
        thresholds = thresholds_by_count(-0.9, 1.0, 30)
        for _ in range(5):
            y = saturate(transmit(c, 0.63, rng), 2.5)
            x, s, u = start(bench_code, y)
            b = PlainBitFlip(bench_code, y, theta=-0.9)
            for _ in range(30):
                s = step(bench_code, x, s, y, thresholds=thresholds, u=u)
                b.step()
                assert np.array_equal(x, b.x)

    def test_no_flip_decays_threshold(self, tiny_code):
        y = np.ones(6)
        x, s, u = start(tiny_code, y)
        thresholds = thresholds_by_count(-0.9, 0.99, 1)
        step(tiny_code, x, s, y, thresholds=thresholds, u=u)
        assert np.allclose(thresholds[u], -0.891)

    def test_flip_keeps_threshold(self, tiny_code):
        # weak wrong bit with both checks violated: E_0 = 0.2 - 2 = -1.8
        y = np.array([-0.2, 1, 1, 1, 1, 1.0])
        x, s, u = start(tiny_code, y)
        thresholds = thresholds_by_count(-0.9, 0.99, 1)
        e = metrics(tiny_code, x, s, y)
        assert e[0] < -0.9
        step(tiny_code, x, s, y, thresholds=thresholds, u=u)
        assert x[0] == 1                       # flipped
        assert thresholds[u][0] == pytest.approx(-0.9)
        assert thresholds[u][1] == pytest.approx(-0.891)

    def test_threshold_magnitudes_never_grow(self, bench_code):
        rng = np.random.default_rng(13)
        c = np.ones(bench_code.n, dtype=np.int8)
        y = saturate(transmit(c, 0.7, rng), 2.5)
        x, s, u = start(bench_code, y)
        thresholds = thresholds_by_count(-0.9, 0.98, 50)
        prev = np.abs(thresholds[u])
        for _ in range(50):
            s = step(bench_code, x, s, y, thresholds=thresholds, u=u)
            now = np.abs(thresholds[u])
            assert (now <= prev + 1e-15).all()
            prev = now.copy()

    @pytest.mark.parametrize("theta, lam", [(-0.9, 0.99), (-0.6, 0.97), (-1.3, 0.9),
                                            (-0.7, 0.999), (-2.1, 0.93), (-0.5, 1.0)])
    def test_threshold_after_u_non_flips_is_the_repeated_product(self, tiny_code, theta, lam):
        # Every check satisfied and E_k > 0: no symbol ever flips, so after u
        # steps each threshold is theta multiplied by lam u times in turn.
        y = np.ones(6)
        x, s, u = start(tiny_code, y)
        thresholds = thresholds_by_count(theta, lam, 400)
        expected = theta
        for count in range(1, 401):
            s = step(tiny_code, x, s, y, thresholds=thresholds, u=u)
            expected *= lam
            assert (u == count).all()
            assert (thresholds[u] == expected).all()

    def test_invalid_lambda(self, tiny_code):
        with pytest.raises(ValueError):
            thresholds_by_count(-0.9, 0.0, 10)

    @pytest.mark.parametrize("t_max", [0, -1])
    def test_iteration_limit_below_one(self, t_max):
        with pytest.raises(ValueError, match="iteration limit"):
            thresholds_by_count(-0.9, 0.99, t_max)
