import numpy as np
import pytest

from ngdbf.channel import saturate, transmit
from ngdbf.core import decode, init_state, objective, smoothed_decision
from ngdbf.gdbf import BitFlipStepper, decode_batch, inversions, thresholds_by_count


class TestInitState:
    def test_sign_extraction(self, tiny_code):
        st = init_state(tiny_code, np.array([0.3, -1.2, 0.5, 1.0, -0.1, 2.0]))
        assert list(st.x) == [1, -1, 1, 1, -1, 1]
        assert st.t == 0

    def test_zero_sample_decides_plus_one(self, tiny_code):
        st = init_state(tiny_code, np.array([0.0, 1, 1, 1, 1, 1.0]))
        assert st.x[0] == 1

    def test_noiseless_initialization(self, tiny_code):
        st = init_state(tiny_code, np.ones(6))
        assert tiny_code.is_codeword(st.x)

    def test_length_check(self, tiny_code):
        with pytest.raises(ValueError):
            init_state(tiny_code, np.ones(5))


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
            st = init_state(tiny_code, rng.normal(0, 1, 6))
            e = inversions(tiny_code, st, y, w=1.0)
            f0 = objective(tiny_code, st.x, y)
            k = int(rng.integers(6))
            x2 = st.x.copy()
            x2[k] = -x2[k]
            assert objective(tiny_code, x2, y) - f0 == pytest.approx(-2 * e[k], rel=1e-12, abs=1e-12)


class TestDecodeLoop:
    def test_noiseless_frame_zero_iterations(self, tiny_code):
        y = np.ones(6)
        res = decode(BitFlipStepper(tiny_code, y), init_state(tiny_code, y), 100)
        assert res.success and res.iterations == 0

    def test_single_step_fix(self, tiny_code):
        y = np.array([1, 1, 1, -0.1, 1, 1.0])
        res = decode(BitFlipStepper(tiny_code, y), init_state(tiny_code, y), 1)
        assert res.success and res.iterations == 1
        assert tiny_code.is_codeword(res.decisions)

    def test_unfixable_frame_exhausts_budget(self, tiny_code):
        # three isolated weak errors against confident correct bits: every
        # trajectory needs three flips, so a budget of two must exhaust
        y = np.array([2, 2, 2, -0.1, -0.1, -0.1])
        res = decode(BitFlipStepper(tiny_code, y), init_state(tiny_code, y), 2)
        assert not res.success and res.iterations == 2
        res3 = decode(BitFlipStepper(tiny_code, y), init_state(tiny_code, y), 3)
        assert res3.success and res3.iterations == 3

    def test_stalled_multibit_frame_exhausts_budget(self, tiny_code):
        # confident single error: no inversion falls under the threshold
        y = np.array([-2.0, 1, 1, 1, 1, 1.0])
        thresholds = thresholds_by_count(-0.9, 1.0, 2)
        res = decode(BitFlipStepper(tiny_code, y, thresholds=thresholds), init_state(tiny_code, y), 2)
        assert not res.success and res.iterations == 2
        # nor does the objective drop, so mgdbf's mode switch leaves the frame stalled
        x, iterations, _ = decode_batch(tiny_code, y[None], 2, thresholds=thresholds,
                                        mode_switching=True)
        assert not tiny_code.is_codeword(x[0]) and iterations[0] == 2

    def test_success_implies_codeword(self, tiny_code, bench_code):
        rng = np.random.default_rng(17)
        for code in (tiny_code, bench_code):
            c = np.ones(code.n, dtype=np.int8)
            for trial in range(10):
                y = saturate(transmit(c, 0.7, rng), 2.5)
                stepper = BitFlipStepper(code, y, w=0.75,
                                         thresholds=thresholds_by_count(-0.9, 0.99, 40))
                res = decode(stepper, init_state(code, y), 40)
                if res.success:
                    assert code.is_codeword(res.decisions)

    def test_deterministic_given_everything(self, bench_code):
        c = np.ones(bench_code.n, dtype=np.int8)
        y = saturate(transmit(c, 0.65, np.random.default_rng(4)), 2.5)
        runs = []
        for _ in range(2):
            stepper = BitFlipStepper(bench_code, y, thresholds=thresholds_by_count(-0.9, 0.99, 60))
            res = decode(stepper, init_state(bench_code, y), 60)
            runs.append((res.success, res.iterations, res.decisions.tobytes()))
        assert runs[0] == runs[1]

    def test_objective_trace(self, tiny_code):
        y = np.array([1, 1, 1, -0.1, -0.2, 1.0])
        stepper = BitFlipStepper(tiny_code, y)
        res = decode(stepper, init_state(tiny_code, y), 5, trace_objective=True)
        assert res.success
        assert len(res.objective_trace) == res.iterations + 1
        assert res.objective_trace[-1] == pytest.approx(
            objective(tiny_code, res.decisions, y))
        # success means all three checks are satisfied in the final value
        assert res.objective_trace[-1] == pytest.approx(res.decisions @ y + 3)

    def test_bad_budget(self, tiny_code):
        with pytest.raises(ValueError):
            decode(BitFlipStepper(tiny_code, np.ones(6)), init_state(tiny_code, np.ones(6)), 0)


class TestSmoothedDecision:
    def test_majority(self):
        x = np.array([1, -1], dtype=np.int8)
        assert list(smoothed_decision(np.array([16, -2]), x)) == [1, -1]

    def test_tie_falls_back_to_current_bit(self):
        x = np.array([1, -1], dtype=np.int8)
        assert list(smoothed_decision(np.array([0, 0]), x)) == [1, -1]
