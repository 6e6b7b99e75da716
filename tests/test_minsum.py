import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ngdbf.channel import ebn0_to_sigma, transmit
from ngdbf.harness import frame_rng
from ngdbf.minsum import decode_minsum

from .support.irregular import irregular_codes
from .support.oracles import PlainMinSum


class TestMinSum:
    def test_noiseless_frame_zero_iterations(self, tiny_code):
        res = decode_minsum(tiny_code, np.ones(6), 10)
        assert res.success and res.iterations == 0

    def test_single_error_corrected_quickly(self, tiny_code):
        # one weak wrong sample on a degree-2 symbol; two passes suffice
        y = np.array([1.0, 1.0, -0.3, 1.0, 1.0, 1.0])
        res = decode_minsum(tiny_code, y, 2)
        assert res.success
        assert list(res.decisions) == [1] * 6

    def test_success_output_is_codeword(self, bench_code):
        rng = np.random.default_rng(31)
        c = np.ones(bench_code.n, dtype=np.int8)
        for _ in range(10):
            y = transmit(c, 0.7, rng)
            res = decode_minsum(bench_code, y, 10)
            if res.success:
                assert bench_code.is_codeword(res.decisions)

    def test_scale_invariance(self, bench_code):
        rng = np.random.default_rng(32)
        c = np.ones(bench_code.n, dtype=np.int8)
        for alpha in (2.0, 0.25):
            for _ in range(5):
                y = transmit(c, 0.8, rng)
                a = decode_minsum(bench_code, y, 8)
                b = decode_minsum(bench_code, alpha * y, 8)
                assert a.success == b.success
                assert a.iterations == b.iterations
                assert np.array_equal(a.decisions, b.decisions)

    def test_corrects_heavy_noise_sometimes(self, bench_code):
        # smoke check that the decoder does real work at a realistic SNR
        rng = np.random.default_rng(33)
        c = np.ones(bench_code.n, dtype=np.int8)
        wins = 0
        for _ in range(20):
            y = transmit(c, 0.75, rng)   # about 2.5 dB, ~90 wrong signs per frame
            res = decode_minsum(bench_code, y, 30)
            wins += res.success and np.array_equal(res.decisions, c)
        assert wins >= 15

    def test_budget_validation(self, tiny_code):
        with pytest.raises(ValueError):
            decode_minsum(tiny_code, np.ones(6), 0)

    def test_length_validation(self, tiny_code):
        with pytest.raises(ValueError):
            decode_minsum(tiny_code, np.ones(5), 5)


def assert_matches_plain_min_sum(code, y, t_max):
    result = decode_minsum(code, y, t_max)
    success, iterations, decisions = PlainMinSum(code, y).decode(t_max)
    assert (result.success, result.iterations) == (success, iterations)
    assert np.array_equal(result.decisions, decisions)


class TestAgainstPlainMinSum:
    """Success, iterations and decisions equal the per-edge reference's."""

    @pytest.mark.parametrize("ebn0_db", [3.0, 4.0])
    def test_bundled_code(self, bench_code, ebn0_db):
        sigma = ebn0_to_sigma(ebn0_db, float(bench_code.rate))
        for frame in range(12):
            y = transmit(np.ones(bench_code.n), sigma, frame_rng(41, 0, frame, 0))
            assert_matches_plain_min_sum(bench_code, y, 10)

    def test_tiny_code(self, tiny_code):
        rng = np.random.default_rng(42)
        for _ in range(100):
            assert_matches_plain_min_sum(tiny_code, transmit(np.ones(6), 0.8, rng), 10)

    # 2000 frames at sigma up to 1.0: enough to catch a posterior summed in
    # another order.
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(code=irregular_codes(), sigma=st.floats(0.5, 1.0), seed=st.integers(0, 2**32 - 1))
    def test_irregular_codes(self, code, sigma, seed):
        rng = np.random.default_rng(seed)
        for _ in range(20):
            assert_matches_plain_min_sum(code, transmit(np.ones(code.n), sigma, rng), 20)
