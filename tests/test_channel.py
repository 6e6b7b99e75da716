import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ngdbf.channel import (QuantizerSpec, ebn0_to_sigma, saturate, sigma_to_ebn0,
                           transmit)


class TestSnrConversion:
    def test_half_rate_anchor(self):
        assert ebn0_to_sigma(3.5, 0.5) == pytest.approx(0.668, abs=1e-3)

    def test_zero_db_half_rate(self):
        assert ebn0_to_sigma(0.0, 0.5) == pytest.approx(1.0, abs=1e-12)

    def test_high_rate_point(self):
        assert ebn0_to_sigma(5.0, 0.9356) == pytest.approx(0.4112, abs=5e-4)

    @given(st.floats(-5, 12), st.floats(0.05, 0.98))
    def test_round_trip(self, db, rate):
        sigma = ebn0_to_sigma(db, rate)
        assert sigma_to_ebn0(sigma, rate) == pytest.approx(db, rel=1e-12, abs=1e-12)

    def test_bad_rate_rejected(self):
        with pytest.raises(ValueError):
            ebn0_to_sigma(3.0, 1.0)
        with pytest.raises(ValueError):
            ebn0_to_sigma(math.inf, 0.5)
        for rate in (0, 1.5, math.nan):     # the inverse checks the rate too
            with pytest.raises(ValueError, match="code rate"):
                sigma_to_ebn0(0.8, rate)

    @pytest.mark.parametrize("ebn0, rate", [(4000, 0.5), (-4000, 0.5), (3083.0, 0.5),
                                            (-3240.0, 0.5), (3082.5, 0.99)])
    def test_beyond_the_float_range_of_sigma_rejected(self, ebn0, rate):
        # 10**(ebn0/10) overflows or underflows, or sigma itself does
        with pytest.raises(ValueError, match="no finite positive noise sigma"):
            ebn0_to_sigma(ebn0, rate)

    @pytest.mark.parametrize("sigma", [0.0, -1.0, math.nan, math.inf])
    def test_sigma_to_ebn0_rejects_bad_sigma(self, sigma):
        with pytest.raises(ValueError, match="finite and positive"):
            sigma_to_ebn0(sigma, 0.5)

    def test_sigma_to_ebn0_over_the_float_range(self):
        # sigma**2 underflows to 0 or overflows to inf at these sigmas
        assert sigma_to_ebn0(1e-200, 0.5) == pytest.approx(4000.0)
        assert sigma_to_ebn0(1e200, 0.5) == pytest.approx(-4000.0)


class TestTransmit:
    def test_vanishing_noise_returns_codeword(self):
        c = np.array([1, -1, 1, -1], dtype=np.int8)
        y = transmit(c, 1e-12, np.random.default_rng(0))
        assert np.allclose(y, c, atol=1e-9)

    def test_deterministic_given_seed(self):
        c = np.ones(4, dtype=np.int8)
        a = transmit(c, 1.0, np.random.default_rng(99))
        b = transmit(c, 1.0, np.random.default_rng(99))
        assert np.array_equal(a, b)

    def test_moments(self):
        n = 1_000_000
        sigma = 0.8
        c = np.ones(n, dtype=np.int8)
        z = transmit(c, sigma, np.random.default_rng(1234)) - c
        assert abs(z.mean()) <= 0.004
        assert abs(z.var() - sigma * sigma) <= 0.01 * sigma * sigma

    @pytest.mark.parametrize("sigma", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_bad_sigma(self, sigma):
        with pytest.raises(ValueError, match="finite and positive"):
            transmit(np.ones(4, dtype=np.int8), sigma, np.random.default_rng(0))


def reference_index(q, y: float) -> int:
    """to_index for one float: floor(|y| / step) clamped to the top bin, as an
    odd level index, with sign(+-0.0) = +1."""
    top, ratio = q.n_levels // 2 - 1, abs(y) / q.step
    bins = top if math.isinf(ratio) else min(math.floor(ratio), top)
    return (-1 if y < 0 else 1) * (2 * bins + 1)


class TestQuantizer:
    def test_interior_example(self):
        q = QuantizerSpec(4, 2.5)
        assert q.quantize(0.4) == pytest.approx(0.46875, abs=0)

    def test_saturated_example(self):
        q = QuantizerSpec(4, 2.5)
        assert q.quantize(-3.0) == pytest.approx(-2.34375, abs=0)

    def test_three_bit_example(self):
        q = QuantizerSpec(3, 2.5)
        assert q.quantize(-0.9) == pytest.approx(-0.9375, abs=0)

    def test_zero_maps_to_smallest_positive_level(self):
        q = QuantizerSpec(4, 2.5)
        assert q.quantize(0.0) == pytest.approx(q.step / 2)

    def test_level_set(self):
        q = QuantizerSpec(3, 2.5)
        lv = q.levels()
        assert len(lv) == 8 == len(set(lv))
        assert 0.0 not in lv
        assert np.allclose(lv, -lv[::-1])
        assert lv.max() == q.y_max - q.step / 2

    @given(st.floats(-50, 50), st.integers(2, 6),
           st.sampled_from([1.5, 1.7, 1.75, 2.0, 2.5]))
    @settings(max_examples=400)
    def test_properties(self, y, q_bits, y_max):
        q = QuantizerSpec(q_bits, y_max)
        v = q.quantize(y)
        assert v in set(q.levels())
        assert abs(v) <= y_max - q.step / 2
        # idempotence
        assert q.quantize(v) == v
        # odd symmetry away from zero
        if y != 0:
            assert q.quantize(-y) == -v
        # monotone
        assert q.quantize(y + 0.37) >= v

    def test_index_round_trip(self):
        q = QuantizerSpec(4, 1.5)
        idx = q.to_index(q.levels())
        assert list(idx) == list(range(-15, 16, 2))
        assert np.allclose(q.from_index(idx), q.levels())

    @given(st.floats(allow_nan=False), st.integers(1, 8), st.floats(0.01, 100))
    @settings(max_examples=400)
    def test_to_index_matches_reference(self, y, q_bits, y_max):
        # the whole float range: |y| / step overflows above about 1e306
        q = QuantizerSpec(q_bits, y_max)
        expected = reference_index(q, y)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert int(q.to_index(y)) == expected
            assert q.to_index(np.array([y, -y])).tolist() == [expected, reference_index(q, -y)]

    @pytest.mark.parametrize("q_bits", range(1, 9))
    @pytest.mark.parametrize("y_max", [0.3, 1.75, 2.5, 7.0])
    def test_to_index_at_bin_edges(self, q_bits, y_max):
        # k * step and its two float neighbours, for every edge and two past the top
        q = QuantizerSpec(q_bits, y_max)
        edges = np.arange(-(q.n_levels // 2 + 2), q.n_levels // 2 + 3) * q.step
        y = np.concatenate((edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)))
        assert q.to_index(y).tolist() == [reference_index(q, v) for v in y.tolist()]

    def test_huge_and_infinite_inputs_land_on_the_outer_levels(self):
        q = QuantizerSpec(4, 1.75)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            idx = q.to_index([1e300, -1e300, math.inf, -math.inf, 0.0, -0.0])
            assert idx.tolist() == [15, -15, 15, -15, 1, 1]
            assert q.quantize(-math.inf) == -q.y_max + q.step / 2
            assert int(q.to_index(1e20)) == 15
            # |y| / step would overflow the float range
            assert int(QuantizerSpec(4, 0.01).to_index(1e308)) == 15
            assert int(QuantizerSpec(1, 0.5).to_index(-8.98e307)) == -1

    def test_saturate(self):
        y = np.array([-4.0, -1.0, 0.0, 3.1])
        assert list(saturate(y, 2.5)) == [-2.5, -1.0, 0.0, 2.5]

    @pytest.mark.parametrize("y_max", [0.0, -1.0, math.nan, math.inf])
    def test_saturate_rejects_bad_limit(self, y_max):
        with pytest.raises(ValueError, match="finite and positive"):
            saturate(np.zeros(3), y_max)

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            QuantizerSpec(0, 2.5)
        with pytest.raises(ValueError, match="q_bits"):
            QuantizerSpec(17, 2.5)
        with pytest.raises(ValueError):
            QuantizerSpec(3, -1.0)
        for y_max in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite and positive"):
                QuantizerSpec(3, y_max)
