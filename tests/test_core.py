import numpy as np
import pytest

from ngdbf.channel import saturate, transmit
from ngdbf.codes import bipolar_sign
from ngdbf.core import objective, smoothed_decision
from ngdbf.gdbf import decode_batch, thresholds_by_count

# Thresholds no metric falls below: the engine keeps its initial decisions.
NEVER = np.full(2, -np.inf)


class TestInitState:
    def test_sign_extraction(self, tiny_code):
        x, *_ = decode_batch(tiny_code, np.array([[0.3, -1.2, 0.5, 1.0, -0.1, 2.0]]), 1,
                             thresholds=NEVER)
        assert list(x[0]) == [1, -1, 1, 1, -1, 1]

    def test_zero_sample_decides_plus_one(self, tiny_code):
        x, *_ = decode_batch(tiny_code, np.array([[0.0, 1, 1, 1, 1, 1.0]]), 1, thresholds=NEVER)
        assert x[0, 0] == 1

    def test_noiseless_initialization(self, tiny_code):
        x, iterations, _ = decode_batch(tiny_code, np.ones((1, 6)), 1, thresholds=NEVER)
        assert tiny_code.is_codeword(x[0]) and iterations[0] == 0

    def test_length_check(self, tiny_code):
        with pytest.raises(ValueError, match="length 5, code needs 6"):
            decode_batch(tiny_code, np.ones((1, 5)), 1)


class TestObjective:
    def test_codeword_value(self, tiny_code):
        y = np.array([0.9, 1.1, 0.8, 1.0, 1.2, 0.7])
        x = np.ones(6, dtype=np.int8)
        assert objective(tiny_code, x, y) == pytest.approx(y.sum() + tiny_code.m)

    def test_matches_brute_force(self, tiny_code):
        rng = np.random.default_rng(8)
        for _ in range(20):
            x = rng.choice([-1, 1], size=6).astype(np.int8)
            y = rng.normal(1.0, 0.8, 6)
            brute = sum(float(x[k]) * y[k] for k in range(6))
            for row in tiny_code.row_neighbors:
                prod = 1
                for k in row:
                    prod *= int(x[k])
                brute += prod
            assert objective(tiny_code, x, y) == pytest.approx(brute, rel=1e-12)

    def test_single_flip_delta_is_minus_two_e(self, tiny_code):
        rng = np.random.default_rng(21)
        for _ in range(50):
            y = rng.normal(1.0, 0.9, 6)
            x = bipolar_sign(rng.normal(0, 1, 6))
            e = x * y + tiny_code.syndrome_sums(tiny_code.syndrome(x))
            f0 = objective(tiny_code, x, y)
            k = int(rng.integers(6))
            x2 = x.copy()
            x2[k] = -x2[k]
            assert objective(tiny_code, x2, y) - f0 == pytest.approx(-2 * e[k], rel=1e-12, abs=1e-12)


class TestDecodeLoop:
    def test_noiseless_frame_zero_iterations(self, tiny_code):
        x, iterations, _ = decode_batch(tiny_code, np.ones((1, 6)), 100)
        assert tiny_code.is_codeword(x[0]) and iterations[0] == 0

    def test_single_step_fix(self, tiny_code):
        y = np.array([[1, 1, 1, -0.1, 1, 1.0]])
        x, iterations, _ = decode_batch(tiny_code, y, 1)
        assert iterations[0] == 1 and tiny_code.is_codeword(x[0])

    def test_unfixable_frame_exhausts_budget(self, tiny_code):
        # three isolated weak errors against confident correct bits: every
        # trajectory needs three flips, so a budget of two must exhaust
        y = np.array([[2, 2, 2, -0.1, -0.1, -0.1]])
        x, iterations, _ = decode_batch(tiny_code, y, 2)
        assert not tiny_code.is_codeword(x[0]) and iterations[0] == 2
        x3, iterations3, _ = decode_batch(tiny_code, y, 3)
        assert tiny_code.is_codeword(x3[0]) and iterations3[0] == 3

    def test_stalled_multibit_frame_exhausts_budget(self, tiny_code):
        # confident single error: no inversion falls under the threshold
        y = np.array([-2.0, 1, 1, 1, 1, 1.0])
        thresholds = thresholds_by_count(-0.9, 1.0, 2)
        x, iterations, _ = decode_batch(tiny_code, y[None], 2, thresholds=thresholds)
        assert not tiny_code.is_codeword(x[0]) and iterations[0] == 2
        # nor does the objective drop, so mgdbf's mode switch leaves the frame stalled
        x, iterations, _ = decode_batch(tiny_code, y[None], 2, thresholds=thresholds,
                                        mode_switching=True)
        assert not tiny_code.is_codeword(x[0]) and iterations[0] == 2

    def test_success_implies_codeword(self, tiny_code, bench_code):
        rng = np.random.default_rng(17)
        for code in (tiny_code, bench_code):
            c = np.ones(code.n, dtype=np.int8)
            y = np.array([saturate(transmit(c, 0.5, rng), 2.5) for trial in range(10)])
            x, iterations, _ = decode_batch(code, y, 40, 0.75, thresholds_by_count(-0.9, 0.99, 40))
            assert np.count_nonzero(iterations < 40) > 0, code.n    # some frames to check
            for xj in x[iterations < 40]:      # a frame that stopped early satisfied every check
                assert code.is_codeword(xj)

    def test_deterministic_given_everything(self, bench_code):
        c = np.ones(bench_code.n, dtype=np.int8)
        y = saturate(transmit(c, 0.65, np.random.default_rng(4)), 2.5)
        runs = []
        for _ in range(2):
            x, iterations, engaged = decode_batch(bench_code, y[None], 60,
                                                  thresholds=thresholds_by_count(-0.9, 0.99, 60))
            runs.append((iterations.tobytes(), engaged.tobytes(), x.tobytes()))
        assert runs[0] == runs[1]

    def test_bad_budget(self, tiny_code):
        # a frame that is not a codeword, so that a budget of 0 or less would show
        y = np.array([[1, 1, 1, -0.1, 1, 1.0]])
        for t_max, window in [(0, 0), (-1, 0), (3, 10), (3, -1)]:
            with pytest.raises(ValueError, match="t_max >= 1"):
                decode_batch(tiny_code, y, t_max, smoothing_window=window)


class TestSmoothedDecision:
    def test_majority(self):
        x = np.array([1, -1], dtype=np.int8)
        assert list(smoothed_decision(np.array([16, -2]), x)) == [1, -1]

    def test_tie_falls_back_to_current_bit(self):
        x = np.array([1, -1], dtype=np.int8)
        assert list(smoothed_decision(np.array([0, 0]), x)) == [1, -1]
