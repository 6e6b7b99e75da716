import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from ngdbf.analysis import (MAX_DEGREE, LmlParams, bin_probability,
                            convergence_error, f_max, gdbf_flip_matrix, lml_flip_matrix,
                            pc_from_pe, pe_initial, syndrome_sum_likelihoods)
from ngdbf.channel import QuantizerSpec
from ngdbf.core import objective

from .support.lml_oracle import all_neighbour_pe, lml_flip_pattern

# Reference flip-decision patterns for the benchmark quantized channel
# (sigma = 0.668, Q = 4, y_max = 1.5, d_v = 3, d_c = 6), printed orientation:
# positive levels from strongest down, columns S = +3, +1, -1, -3.
LML_STAGE_1 = [[1, 1, 1, 1]] * 5 + [[1, 1, 1, -1]] * 2 + [[1, 1, -1, -1]]
LML_STAGE_2 = [[1, 1, 1, 1]] * 2 + [[1, 1, 1, -1]] * 4 + [[1, 1, -1, -1]] * 2
LML_STAGE_3 = [[1, 1, 1, -1]] * 4 + [[1, 1, -1, -1]] * 4

WGDBF_THETA_09 = [[1, 1, 1, 1]] * 5 + [[1, 1, 1, -1]] * 3
WGDBF_THETA_03 = [[1, 1, 1, 1]] * 2 + [[1, 1, 1, -1]] * 5 + [[1, 1, -1, -1]]
WGDBF_THETA_00 = [[1, 1, 1, -1]] * 5 + [[1, 1, -1, -1]] * 3

BENCH_Q = QuantizerSpec(4, 1.5)


def lml(p_e, sigma=0.668, q=BENCH_Q, d_v=3, d_c=6):
    return lml_flip_matrix(LmlParams(sigma=sigma, quantizer=q, d_v=d_v, d_c=d_c, p_e=p_e))


class TestObjectiveMaximum:
    def test_noiseless(self, tiny_code):
        ones = np.ones(6, dtype=np.int8)
        assert f_max(tiny_code, ones, np.ones(6)) == pytest.approx(6 + 3)

    def test_two_computations_agree_exactly(self, bench_code):
        rng = np.random.default_rng(40)
        ones = np.ones(bench_code.n, dtype=np.int8)
        for _ in range(5):
            y = rng.normal(1.0, 0.63, bench_code.n)
            assert f_max(bench_code, ones, y) == objective(bench_code, ones, y)

    def test_hand_sum(self, tiny_code):
        y = np.array([0.5, -0.25, 1.0, 2.0, 0.125, 0.75])
        ones = np.ones(6, dtype=np.int8)
        assert f_max(tiny_code, ones, y) == pytest.approx(y.sum() + 3)

    def test_rejects_non_codeword(self, tiny_code):
        x = np.array([-1, 1, 1, 1, 1, 1], dtype=np.int8)
        with pytest.raises(ValueError):
            f_max(tiny_code, x, np.ones(6))


class TestConvergenceError:
    def test_all_frames_converged(self):
        assert convergence_error([10.0, 12.0], [10.0, 12.0]) == 0.0

    def test_constructed_single_frame_deficit(self, tiny_code):
        # flip the degree-1 symbol 3 carrying y = 2.0: correlation loses 4,
        # its single check drops from +1 to -1 and costs another 2.
        y = np.array([1, 1, 1, 2.0, 1, 1])
        ones = np.ones(6, dtype=np.int8)
        x = ones.copy()
        x[3] = -1
        eps = convergence_error([objective(tiny_code, x, y)], [f_max(tiny_code, ones, y)])
        assert eps == pytest.approx(-6.0)

    def test_alignment_required(self):
        with pytest.raises(ValueError):
            convergence_error([1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            convergence_error([], [])


class TestErrorProbabilities:
    def test_pe_anchor(self):
        assert pe_initial(0.668) == pytest.approx(0.0672, abs=2e-4)

    def test_pe_small_sigma(self):
        assert pe_initial(0.1) < 1e-20

    def test_pe_unit_sigma(self):
        assert pe_initial(1.0) == pytest.approx(0.158655, abs=1e-6)

    @pytest.mark.parametrize("sigma", [0.0, -1.0, math.nan, math.inf])
    def test_pe_rejects_bad_sigma(self, sigma):
        with pytest.raises(ValueError, match="finite and positive"):
            pe_initial(sigma)

    def test_pc_endpoints(self):
        assert pc_from_pe(0.0, 6) == 0.0
        for dc in (2, 3, 6, 9):
            assert pc_from_pe(0.5, dc) == pytest.approx(0.5, abs=1e-12)

    @given(st.floats(0.0, 1.0), st.integers(2, 12))
    @settings(max_examples=300)
    def test_pc_matches_closed_form(self, p_e, d_c):
        closed = (1.0 - (1.0 - 2.0 * p_e) ** (d_c - 1)) / 2.0
        assert pc_from_pe(p_e, d_c) == pytest.approx(closed, abs=1e-12)

    def test_pc_anchor_value(self):
        closed = (1 - (1 - 2 * 0.0672) ** 5) / 2
        assert pc_from_pe(0.0672, 6) == pytest.approx(closed, abs=1e-12)


class TestSyndromeLikelihoods:
    def test_error_free_case(self):
        like = syndrome_sum_likelihoods(0.0, 3)
        assert like[3] == (1.0, 0.0)
        assert like[-3] == (0.0, 1.0)

    def test_mirror_identity(self):
        like = syndrome_sum_likelihoods(0.23, 4)
        for s in like:
            assert like[s][1] == pytest.approx(like[-s][0], abs=1e-15)

    def test_binomial_arithmetic(self):
        like = syndrome_sum_likelihoods(0.2, 3)
        assert like[1][0] == pytest.approx(3 * 0.2 * 0.64, abs=1e-15)

    def test_both_conditionals_normalize(self):
        for p_c in (0.01, 0.2570, 0.49):
            for d_v in (1, 3, 4, 7):
                like = syndrome_sum_likelihoods(p_c, d_v)
                assert sum(v[0] for v in like.values()) == pytest.approx(1.0, abs=1e-12)
                assert sum(v[1] for v in like.values()) == pytest.approx(1.0, abs=1e-12)

    def test_wrong_parity_has_no_mass(self):
        like = syndrome_sum_likelihoods(0.2, 3)
        assert 0 not in like and 2 not in like
        assert like.get(2, (0.0, 0.0)) == (0.0, 0.0)


class TestBinProbability:
    def test_total_mass(self):
        q = QuantizerSpec(4, 1.5)
        for mean in (+1.0, -1.0):
            total = sum(bin_probability(i, mean, 0.668, q) for i in range(16))
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_reflection_symmetry(self):
        q = QuantizerSpec(4, 1.5)
        for i in range(16):
            assert bin_probability(i, +1.0, 0.668, q) == \
                pytest.approx(bin_probability(15 - i, -1.0, 0.668, q), abs=1e-15)

    def test_against_quadrature(self):
        q = QuantizerSpec(4, 1.5)
        sigma = 0.668

        def pdf(u, mean):
            return math.exp(-((u - mean) ** 2) / (2 * sigma * sigma)) / (
                sigma * math.sqrt(2 * math.pi))

        for i in range(16):
            lo, hi = q.bin_bounds(i)
            lo = max(lo, -60.0)
            hi = min(hi, 60.0)
            for mean in (+1.0, -1.0):
                ref, err = integrate.quad(pdf, lo, hi, args=(mean,), epsabs=1e-13)
                assert bin_probability(i, mean, sigma, q) == pytest.approx(ref, abs=1e-9)

    def test_index_validation(self):
        with pytest.raises(ValueError):
            QuantizerSpec(3, 1.5).bin_bounds(8)

    @pytest.mark.parametrize("sigma", [0.0, -1.0, math.nan, math.inf])
    def test_sigma_validation(self, sigma):
        with pytest.raises(ValueError, match="finite and positive"):
            bin_probability(8, 1.0, sigma, QuantizerSpec(4, 1.5))


class TestLmlFlipMatrix:
    def test_middle_stage_matches_reference_pattern(self):
        # half the initial error rate: the one stage whose stated rate
        # reproduces the reference pattern under the extrinsic (d_c - 1)
        # parity convention with saturated outer bins.
        fm = lml(0.5 * 0.0672)
        assert fm.top_half_printed().tolist() == LML_STAGE_2

    def test_stage_patterns_match_under_all_neighbor_convention(self):
        # The first and third reference patterns correspond to a parity
        # error probability computed over all d_c neighbors (and a 0.1
        # scale for the third stage).  Map those p_c values back through
        # the extrinsic convention and the patterns reproduce exactly.
        assert lml(all_neighbour_pe(0.0672)).top_half_printed().tolist() == LML_STAGE_1
        assert lml(all_neighbour_pe(0.1 * 0.0672)).top_half_printed().tolist() == LML_STAGE_3

    def test_agrees_with_brute_force_oracle(self):
        for q_bits, sigma, d_v, d_c, p_e in itertools.product(
                (3, 4), (0.5, 0.668, 0.9), (2, 3, 4), (4, 6), (0.001, 0.01, 0.05, 0.2)):
            fm = lml(p_e, sigma=sigma, q=QuantizerSpec(q_bits, 1.5), d_v=d_v, d_c=d_c)
            assert fm.top_half_printed().tolist() == \
                lml_flip_pattern(sigma, q_bits, 1.5, d_v, d_c, p_e)

    def test_point_symmetry(self):
        for p_e in (0.0672, 0.01, 0.3):
            fm = lml(p_e)
            n_q, cols = fm.entries.shape
            for i in range(n_q):
                for j in range(cols):
                    assert fm.entries[i, j] == fm.entries[n_q - 1 - i, cols - 1 - j]

    def test_columns_flip_contiguously_from_weak_levels(self):
        for p_e in (0.0672, 0.0336, 0.00672):
            top = lml(p_e).top_half_printed()
            for col in top.T:
                flips = np.flatnonzero(col == -1)
                if flips.size:
                    assert flips[-1] == len(col) - 1
                    assert np.array_equal(flips, np.arange(flips[0], len(col)))

    def test_flip_region_grows_as_pe_decreases(self):
        sizes = []
        for p_e in (0.0672, 0.0336, 0.00672, 0.000672):
            top = lml(p_e).top_half_printed()
            sizes.append(int((top[:, 2:] == -1).sum()))
        assert sizes == sorted(sizes)

    def test_uninformative_syndromes_follow_channel_only(self):
        # p_e -> 0.5: partial syndromes carry no information, and every
        # positive level keeps a +1 decision on channel evidence alone.
        fm = lml(0.499999)
        assert (fm.top_half_printed() == 1).all()

    def test_params_validation(self):
        with pytest.raises(ValueError):
            LmlParams(sigma=0.668, quantizer=BENCH_Q, d_v=3, d_c=6, p_e=0.0)
        with pytest.raises(ValueError):
            LmlParams(sigma=-1.0, quantizer=BENCH_Q, d_v=3, d_c=6, p_e=0.1)
        for sigma in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite and positive"):
                LmlParams(sigma=sigma, quantizer=BENCH_Q, d_v=3, d_c=6, p_e=0.1)

    @pytest.mark.parametrize("d_v, d_c", [(MAX_DEGREE + 1, 6), (10**12, 6), (3, MAX_DEGREE + 1),
                                          (3, 10**12), (0, 6), (3, 1)])
    def test_degrees_bounded(self, d_v, d_c):
        # constructed only: the tables loop over every syndrome sum and subset size
        with pytest.raises(ValueError, match=f"need 2 <= d_c <= {MAX_DEGREE} and 1 <= d_v"):
            LmlParams(sigma=0.668, quantizer=BENCH_Q, d_v=d_v, d_c=d_c, p_e=0.1)

    def test_degrees_at_the_bound_accepted(self):
        LmlParams(sigma=0.668, quantizer=BENCH_Q, d_v=MAX_DEGREE, d_c=MAX_DEGREE, p_e=0.1)


class TestGdbfFlipMatrix:
    def test_reference_patterns_at_half_weight(self):
        # the printed weighted-rule patterns correspond to w = 0.5 exactly
        pairs = [(-0.9, WGDBF_THETA_09), (-0.3, WGDBF_THETA_03), (0.0, WGDBF_THETA_00)]
        for theta, ref in pairs:
            fm = gdbf_flip_matrix(theta, 0.5, BENCH_Q, 3)
            assert fm.top_half_printed().tolist() == ref

    def test_point_symmetry(self):
        for theta, w in ((-0.9, 0.75), (-0.3, 0.5), (0.0, 1.0)):
            fm = gdbf_flip_matrix(theta, w, BENCH_Q, 3)
            n_q, cols = fm.entries.shape
            for i in range(n_q):
                for j in range(cols):
                    assert fm.entries[i, j] == fm.entries[n_q - 1 - i, cols - 1 - j]

    def test_syndrome_dominated_limit(self):
        fm = gdbf_flip_matrix(-0.9, 1e6, BENCH_Q, 3)
        top = fm.top_half_printed()
        assert (top[:, :2] == 1).all()      # S = +3, +1 never flip
        assert (top[:, 2:] == -1).all()     # S = -1, -3 always flip

    def test_threshold_zero_edge(self):
        fm = gdbf_flip_matrix(0.0, 0.5, BENCH_Q, 3)
        # level 0.46875 with S=-1: metric exactly -0.03125 < 0 flips;
        # level 0.65625 gives +0.15625 and keeps
        top = fm.top_half_printed()
        assert top[5][2] == -1 and top[4][2] == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            gdbf_flip_matrix(0.5, 0.75, BENCH_Q, 3)
        with pytest.raises(ValueError):
            gdbf_flip_matrix(-0.5, 0.0, BENCH_Q, 3)
        for theta in (math.nan, -math.inf):
            with pytest.raises(ValueError, match="finite and non-positive"):
                gdbf_flip_matrix(theta, 0.75, BENCH_Q, 3)
        for w in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite and positive"):
                gdbf_flip_matrix(-0.5, w, BENCH_Q, 3)

    @pytest.mark.parametrize("d_v", [0, -2])
    def test_symbol_degree_below_one_rejected(self, d_v):
        with pytest.raises(ValueError, match="symbol degree"):
            gdbf_flip_matrix(-0.5, 0.75, BENCH_Q, d_v)

    @pytest.mark.parametrize("d_v", [MAX_DEGREE + 1, 10**12])
    def test_symbol_degree_bounded_before_allocating(self, d_v):
        with pytest.raises(ValueError, match=f"symbol degree d_v must lie in 1..{MAX_DEGREE}"):
            gdbf_flip_matrix(-0.5, 0.75, BENCH_Q, d_v)

    def test_symbol_degree_at_the_bound_accepted(self):
        fm = gdbf_flip_matrix(-0.5, 0.75, BENCH_Q, MAX_DEGREE)
        assert fm.entries.shape == (16, MAX_DEGREE + 1)
