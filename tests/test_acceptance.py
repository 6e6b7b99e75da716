"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest -s tests/test_acceptance.py`` to watch).

Criteria 2 and 3 compare flip matrices with the published reference
patterns (tests/test_analysis.py) on the Q=4, y_max=1.5 channel, whose
positive levels are the odd multiples of 0.09375 up to 1.40625.  Each
pattern is checked at the parameters it encodes, and each stated parameter
set is checked against an independent derivation:

* Criterion 2 (locally-ML matrices, sigma=0.668, d_v=3, d_c=6).  The stated
  rates are p_e = 0.0672, 0.0336 and 0.000672.  The third pattern appears
  only for p_e in about [0.0047, 0.0106] under the program's extrinsic
  (d_c - 1) parity convention and [0.0039, 0.0089] under an all-neighbour
  (d_c) convention, so 0.000672 cannot give it under either.  All three
  patterns reproduce exactly under the all-neighbour convention at
  p_e = 0.0672, 0.0336 and 0.00672.  At the stated rates the program is
  compared with a brute-force oracle (tests/support/lml_oracle.py).
* Criterion 3 (weighted rule, flip iff v + w S < theta).  The three
  patterns hold together only for w in (0.46875, 0.50625], so they encode
  w = 0.5.  At the stated w = 0.75 the S=-3 column flips every level below
  theta + 2.25 (7 of 8 at theta = -0.9, where the reference flips 3), so
  the program is compared there with patterns worked out from the rule.

Criterion 9 is a KNOWN red whose cause is open.  Over its 20 000 frames
at 3.0 dB the smoothed decoder enters its 64-iteration smoothing window on
3.23% of frames, 2.2x the 1.45% anchor and just outside the 2x window.
2.25% of the frames run the whole T=300 budget; those are the frames whose
output can come from the smoother, and that fraction is inside the window.
Which of the two the anchor counts is not settled without the paper body.
The bundled stand-in code (girth 6, not the published n=1008 matrix) may
also move the figure.  The check measures and reports the fraction exactly
as stated.
"""

import os

import numpy as np
import pytest

from ngdbf.analysis import (LmlParams, bin_probability, gdbf_flip_matrix,
                            lml_flip_matrix, pc_from_pe, pe_initial,
                            syndrome_sum_likelihoods)
from ngdbf.channel import QuantizerSpec, ebn0_to_sigma, saturate, transmit
from ngdbf.codes import bipolar_sign, parse_alist, serialize_alist
from ngdbf.core import objective
from ngdbf.harness import CampaignConfig, DecoderSetup, NgdbfParams, run_campaign, run_convergence
from ngdbf.noisy import adaptation_events

from .support.lml_oracle import all_neighbour_pe, lml_flip_pattern
from .support.oracles import PlainBitFlip, flip_decisions_direct, flip_decisions_prescaled, step
from .test_analysis import (LML_STAGE_1, LML_STAGE_2, LML_STAGE_3, WGDBF_THETA_00,
                            WGDBF_THETA_03, WGDBF_THETA_09)


def check(num, desc, ok, detail=""):
    line = f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} - {desc}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


def campaign(code, variant, ebn0, frames, seed, error_target=None, quantizer=None, **params):
    cfg = CampaignConfig(
        code=code,
        setup=DecoderSetup(variant, NgdbfParams(**params), quantizer),
        ebn0_db=(ebn0,), frames=frames, master_seed=seed, error_target=error_target)
    # Statistics do not depend on the worker count (criterion 12 and
    # tests/test_harness.py check this); two workers only shorten the run.
    return run_campaign(cfg, workers=min(2, len(os.sched_getaffinity(0)))).points[0]


def intervals_separated(better, worse):
    """True when the BER interval of `better` lies wholly below `worse`'s."""
    return better.ber_interval[1] < worse.ber_interval[0]


class TestCriterion01:
    def test_adaptation_table_exactness(self):
        expected = {
            3: [(-0.9375, 0), (-0.3125, 37)],
            4: [(-0.78125, 0), (-0.46875, 37), (-0.15625, 106)],
            5: [(-0.859375, 0), (-0.703125, 15), (-0.546875, 37),
                (-0.390625, 65), (-0.234375, 106), (-0.078125, 175)],
        }
        ok = True
        for q_bits, events in expected.items():
            rows = adaptation_events(-0.9, 0.99, QuantizerSpec(q_bits, 2.5), 300)
            ok = ok and [(lvl, tau) for _, lvl, tau in rows] == events
        check(1, "threshold adaptation events exact for Q=3/4/5", ok)


class TestCriterion02:
    def test_lml_flip_matrix_reproduction(self):
        quantizer = QuantizerSpec(4, 1.5)

        def printed(p_e):
            fm = lml_flip_matrix(LmlParams(sigma=0.668, quantizer=quantizer,
                                           d_v=3, d_c=6, p_e=p_e))
            return fm.top_half_printed().tolist()

        # The reference patterns encode the all-neighbour (d_c) parity
        # convention at p_e = 0.0672, 0.0336 and 0.00672; the oracle counts
        # all six neighbours directly, the program goes through the mapping.
        encoded = [(0.0672, LML_STAGE_1), (0.0336, LML_STAGE_2), (0.00672, LML_STAGE_3)]
        ref_ok = [printed(all_neighbour_pe(p_e)) == ref
                  == lml_flip_pattern(0.668, 4, 1.5, 3, 6, p_e, neighbours=6)
                  for p_e, ref in encoded]
        # The stated third rate 0.000672 lies outside the range that gives
        # LML_STAGE_3 under either convention (about [0.0047, 0.0106] for
        # d_c - 1 neighbours, [0.0039, 0.0089] for d_c), so at the stated
        # rates the program is checked against the brute-force oracle.
        stated = (0.0672, 0.0336, 0.000672)
        oracle_ok = [printed(p_e) == lml_flip_pattern(0.668, 4, 1.5, 3, 6, p_e)
                     for p_e in stated]
        detail = ("reference patterns at all-neighbour p_e 0.0672/0.0336/0.00672: "
                  + ",".join(str(r) for r in ref_ok)
                  + "; oracle at stated p_e 0.0672/0.0336/0.000672: "
                  + ",".join(str(r) for r in oracle_ok)
                  + "; 0.000672 cannot give stage 3, which needs p_e in about "
                    "[0.0047, 0.0106] (d_c-1) or [0.0039, 0.0089] (d_c)")
        check(2, "LML flip matrices reproduce reference patterns under the "
                 "all-neighbour convention and match the oracle at stated p_e",
              all(ref_ok) and all(oracle_ok), detail)


class TestCriterion03:
    def test_weighted_gdbf_flip_matrix_reproduction(self):
        quantizer = QuantizerSpec(4, 1.5)

        def printed(theta, w):
            return gdbf_flip_matrix(theta, w, quantizer, 3).top_half_printed().tolist()

        # The three reference patterns hold together only for
        # w in (0.46875, 0.50625], so they encode w = 0.5.
        encoded = [(-0.9, WGDBF_THETA_09), (-0.3, WGDBF_THETA_03), (0.0, WGDBF_THETA_00)]
        ref_ok = [printed(theta, 0.5) == ref for theta, ref in encoded]
        # At the stated w = 0.75 a +1 decision flips iff v + 0.75 S < theta,
        # over the positive levels 0.09375 .. 1.40625 (odd multiples of
        # 0.09375; rows strongest first, columns S = +3, +1, -1, -3):
        #   S = -3 flips iff v < theta + 2.25: below 1.35 at theta = -0.9
        #          (7 of 8 levels), every level at theta = -0.3 and 0.0;
        #   S = -1 flips iff v < theta + 0.75: no level at -0.9, the 2 below
        #          0.45 at -0.3, the 4 below 0.75 at 0.0;
        #   S >= +1 never flips, since v + 0.75 S > 0 >= theta.
        by_rule = [
            (-0.9, [[1, 1, 1, 1]] + [[1, 1, 1, -1]] * 7),
            (-0.3, [[1, 1, 1, -1]] * 6 + [[1, 1, -1, -1]] * 2),
            (0.0, [[1, 1, 1, -1]] * 4 + [[1, 1, -1, -1]] * 4),
        ]
        rule_ok = [printed(theta, 0.75) == ref for theta, ref in by_rule]
        detail = ("reference patterns at w=0.5: " + ",".join(str(r) for r in ref_ok)
                  + "; rule at stated w=0.75: " + ",".join(str(r) for r in rule_ok)
                  + "; the patterns need w in (0.46875, 0.50625], while w=0.75 "
                    "flips 7 of 8 levels at S=-3, theta=-0.9 against 3")
        check(3, "weighted flip matrices reproduce reference patterns at w=0.5 "
                 "and the hand-worked rule at w=0.75",
              all(ref_ok) and all(rule_ok), detail)


class TestCriterion04:
    def test_probability_and_sigma_anchors(self):
        ok_pe = abs(pe_initial(0.668) - 0.0672) <= 2e-4
        ok_sigma = abs(ebn0_to_sigma(3.5, 0.5) - 0.668) <= 1e-3
        check(4, "p_e(0.668)=0.0672 +/- 2e-4 and sigma(3.5dB,1/2)=0.668 +/- 1e-3",
              ok_pe and ok_sigma,
              f"pe={pe_initial(0.668):.6f}, sigma={ebn0_to_sigma(3.5, 0.5):.6f}")


class TestCriterion05:
    def test_objective_delta_identity(self, bench_code):
        rng = np.random.default_rng(2029)
        worst = 0.0
        for _ in range(10_000):
            y = rng.normal(1.0, 0.65, bench_code.n)
            x = bipolar_sign(rng.normal(0.0, 1.0, bench_code.n))
            e = x * y + bench_code.syndrome_sums(bench_code.syndrome(x))
            k = int(rng.integers(bench_code.n))
            f0 = objective(bench_code, x, y)
            x[k] = -x[k]
            delta = objective(bench_code, x, y) - f0
            err = abs(delta + 2.0 * e[k]) / max(1.0, abs(e[k]))
            worst = max(worst, err)
        check(5, "single flip changes objective by exactly -2*E_k (1e4 states)",
              worst <= 1e-9, f"worst rel err {worst:.2e}")


class TestCriterion06:
    def test_noiseless_degeneration_is_bit_identical(self, bench_code):
        sigma = ebn0_to_sigma(4.0, 0.5)
        c = np.ones(bench_code.n, dtype=np.int8)
        rng = np.random.default_rng(55)
        params = NgdbfParams(theta=-0.9, lam=1.0, eta=0.0, w=1.0, t_max=100)
        w, thresholds = DecoderSetup("mngdbf", params).weight_and_thresholds
        identical = True
        for _ in range(1000):
            y = saturate(transmit(c, sigma, rng), 2.5)
            x = bipolar_sign(y)
            s, u = bench_code.syndrome(x), np.zeros(bench_code.n, dtype=np.int64)
            plain = PlainBitFlip(bench_code, y, theta=-0.9, w=1.0)
            for _ in range(100):
                if s.min() == 1 and plain.s.min() == 1:
                    break
                s = step(bench_code, x, s, y, w, thresholds, u)
                plain.step()
                if not np.array_equal(x, plain.x):
                    identical = False
                    break
            identical = identical and np.array_equal(x, plain.x)
            if not identical:
                break
        check(6, "eta=0/w=1/lam=1 trajectories bit-identical to plain multi-bit "
                 "over 1e3 frames", identical)

    def test_prescaled_quantized_datapath_equivalence(self):
        q = QuantizerSpec(4, 1.75)
        rng = np.random.default_rng(56)
        odd = np.arange(-(q.n_levels - 1), q.n_levels, 2)
        n = 10_000
        sym = dict(
            x=rng.choice([-1, 1], size=n).astype(np.int64),
            y_idx=rng.choice(odd, size=n),
            q_idx=rng.choice(odd, size=n),
            theta_idx=rng.choice(odd[odd < 0], size=n),
            syndrome_sums=rng.integers(-3, 4, size=n),
        )
        w_idx = int(q.to_index(0.75))
        direct = flip_decisions_direct(w_idx=w_idx, **sym)
        scaled = flip_decisions_prescaled(w_idx=w_idx, **sym)
        same = np.array_equal(direct, scaled)
        boundary = int(((sym["x"] * sym["y_idx"] + w_idx * sym["syndrome_sums"]
                         + sym["q_idx"] - sym["theta_idx"]) == 0).sum())
        check(6, "pre-scaled quantized flip decisions identical to direct form "
                 "on 1e4 states", same, f"{boundary} exact-boundary states included")


class TestCriterion07:
    def test_a_single_bit_pair_at_4db(self, bench_code):
        sg = campaign(bench_code, "sgdbf", 4.0, 100_000, seed=701, error_target=400,
                      theta=-0.9, w=1.0, t_max=100)
        sn = campaign(bench_code, "sngdbf", 4.0, 100_000, seed=701, error_target=400,
                      theta=-0.9, eta=1.0, w=0.75, t_max=100)
        ok = sn.ber < sg.ber and intervals_separated(sn, sg)
        check(7, "(a) noisy single-bit beats plain single-bit at 4.0 dB",
              ok, f"BER {sn.ber:.3e} vs {sg.ber:.3e}")

    @pytest.mark.slow
    def test_b_multi_bit_pair_at_4db(self, bench_code):
        mg = campaign(bench_code, "mgdbf", 4.0, 100_000, seed=702, error_target=400,
                      theta=-0.5, w=1.0, t_max=100)
        mn = campaign(bench_code, "mngdbf", 4.0, 100_000, seed=702, error_target=100,
                      theta=-0.9, lam=0.94, eta=0.95, w=0.75, t_max=100)
        ok = mn.ber < mg.ber and intervals_separated(mn, mg)
        check(7, "(b) adaptive noisy multi-bit beats mode-switching multi-bit at 4.0 dB",
              ok, f"BER {mn.ber:.3e} vs {mg.ber:.3e}")

    @pytest.mark.slow
    def test_c_smoothing_gain_at_3_25db(self, bench_code):
        mn = campaign(bench_code, "mngdbf", 3.25, 100_000, seed=703, error_target=400,
                      theta=-0.9, lam=0.99, eta=0.95, w=0.75, t_max=100)
        sm = campaign(bench_code, "smngdbf", 3.25, 100_000, seed=703, error_target=100,
                      theta=-0.9, lam=0.99, eta=0.95, w=0.75, t_max=300,
                      smoothing_window=64)
        ok = sm.ber <= mn.ber and intervals_separated(sm, mn)
        check(7, "(c) smoothed variant at T=300 beats T=100 variant at 3.25 dB",
              ok, f"BER {sm.ber:.3e} vs {mn.ber:.3e}")


class TestCriterion08:
    def test_convergence_error_ordering(self, bench_code):
        setups = {
            "sgdbf": DecoderSetup("sgdbf", NgdbfParams(theta=-0.9, w=1.0, t_max=100)),
            "sngdbf": DecoderSetup("sngdbf", NgdbfParams(theta=-0.9, eta=1.0, w=0.75,
                                                         t_max=100)),
            "mgdbf": DecoderSetup("mgdbf", NgdbfParams(theta=-0.5, w=1.0, t_max=100)),
            "atgdbf": DecoderSetup("atgdbf", NgdbfParams(theta=-0.6, lam=0.99, w=1.0,
                                                         t_max=100)),
            "mngdbf": DecoderSetup("mngdbf", NgdbfParams(theta=-0.9, lam=0.99, eta=0.95,
                                                         w=0.75, t_max=100)),
        }
        eps = run_convergence(bench_code, setups, 5.0, 100, master_seed=1)
        ok = (abs(eps["sngdbf"]) < abs(eps["sgdbf"])
              and abs(eps["mngdbf"]) < abs(eps["mgdbf"])
              and abs(eps["mngdbf"]) < abs(eps["atgdbf"]))
        detail = " ".join(f"{k}={v:+.3f}" for k, v in eps.items())
        check(8, "terminal objective deficits order noisy < deterministic at 5 dB",
              ok, detail)


class TestCriterion09:
    @pytest.mark.slow
    def test_smoothing_engagement_fraction(self, bench_code):
        pt = campaign(bench_code, "smngdbf", 3.0, 20_000, seed=901,
                      theta=-0.9, lam=0.99, eta=0.95, w=0.75, t_max=300,
                      smoothing_window=64)
        frac = pt.smoothing_fraction
        ok = 0.0145 / 2 <= frac <= 0.0145 * 2
        check(9, "smoothing engages within 2x of 1.45% of frames at 3.0 dB",
              ok, f"engaged {100 * frac:.2f}% of {pt.frames} frames")


class TestCriterion10:
    def test_minsum_average_iterations(self, bench_code):
        pt = campaign(bench_code, "minsum", 3.5, 10_000, seed=1001, t_max=10)
        ok = abs(pt.avg_iterations - 4.1) <= 1.0
        check(10, "min-sum reference averages 4.1 +/- 1.0 iterations at 3.5 dB",
              ok, f"avg {pt.avg_iterations:.2f} over {pt.frames} frames")


class TestCriterion11:
    def test_q4_not_worse_than_q3(self, bench_code):
        common = dict(theta=-0.7, lam=0.99, eta=0.95, w=0.75, t_max=100,
                      noise_policy="shift_chain")
        q3 = campaign(bench_code, "mngdbf", 3.5, 20_000, seed=1101, error_target=150,
                      quantizer=QuantizerSpec(3, 1.75), **common)
        q4 = campaign(bench_code, "mngdbf", 3.5, 20_000, seed=1101, error_target=150,
                      quantizer=QuantizerSpec(4, 1.75), **common)
        # directional: Q=4 must not be significantly worse than Q=3
        significantly_worse = q4.ber_interval[0] > q3.ber_interval[1]
        check(11, "Q=4 quantization performs within/better than Q=3 at 3.5 dB",
              not significantly_worse,
              f"BER Q4 {q4.ber:.3e} vs Q3 {q3.ber:.3e}")


class TestCriterion12:
    def test_randomized_property_suites(self, bench_code, tiny_code):
        rng = np.random.default_rng(1201)
        ok = True

        # quantizer: odd symmetry, idempotence, monotonicity - 1e4 cases
        for _ in range(10_000):
            q = QuantizerSpec(int(rng.integers(2, 7)),
                              float(rng.choice([1.5, 1.75, 2.0, 2.5])))
            a, b = sorted(rng.normal(0.0, 2.0, 2))
            va, vb = q.quantize(a), q.quantize(b)
            ok = ok and va <= vb
            ok = ok and q.quantize(va) == va
            if a != 0:
                ok = ok and q.quantize(-a) == -va
        check(12, "quantizer odd-symmetry/idempotence/monotonicity (1e4 cases)", ok)

        # flip-matrix point symmetry across random parameter draws
        sym_ok = True
        for _ in range(100):
            q = QuantizerSpec(int(rng.integers(2, 6)), 1.5)
            d_v = int(rng.integers(1, 5))
            if rng.random() < 0.5:
                fm = lml_flip_matrix(LmlParams(
                    sigma=float(rng.uniform(0.3, 1.2)), quantizer=q, d_v=d_v,
                    d_c=int(rng.integers(2, 9)), p_e=float(rng.uniform(1e-4, 0.49))))
            else:
                fm = gdbf_flip_matrix(-float(rng.uniform(0, 1.4)),
                                      float(rng.uniform(0.1, 2.0)), q, d_v)
            sym_ok = sym_ok and np.array_equal(fm.entries, fm.entries[::-1, ::-1])
        check(12, "flip-matrix point symmetry (randomized)", sym_ok)

        # probability normalizations
        norm_ok = True
        for _ in range(200):
            p_c = float(rng.uniform(0, 1))
            d_v = int(rng.integers(1, 8))
            like = syndrome_sum_likelihoods(p_c, d_v)
            norm_ok = norm_ok and abs(sum(v[0] for v in like.values()) - 1) < 1e-12
            norm_ok = norm_ok and abs(sum(v[1] for v in like.values()) - 1) < 1e-12
            p_e = float(rng.uniform(0, 1))
            d_c = int(rng.integers(2, 10))
            closed = (1 - (1 - 2 * p_e) ** (d_c - 1)) / 2
            norm_ok = norm_ok and abs(pc_from_pe(p_e, d_c) - closed) < 1e-12
        for _ in range(50):
            q = QuantizerSpec(int(rng.integers(2, 6)), float(rng.uniform(1.0, 3.0)))
            sigma = float(rng.uniform(0.3, 1.5))
            total = sum(bin_probability(i, 1.0, sigma, q) for i in range(q.n_levels))
            norm_ok = norm_ok and abs(total - 1) < 1e-12
        check(12, "binomial and Gaussian-bin normalizations (randomized)", norm_ok)

        # alist round trip
        rt_ok = True
        for code in (tiny_code, bench_code):
            again = parse_alist(serialize_alist(code))
            rt_ok = rt_ok and all(
                list(a) == list(b)
                for a, b in zip(again.col_neighbors, code.col_neighbors))
        check(12, "alist round-trip preserves neighborhoods", rt_ok)

        # worker-count invariance
        cfg = CampaignConfig(
            code=bench_code,
            setup=DecoderSetup("mngdbf", NgdbfParams(theta=-0.9, lam=0.99, eta=0.95,
                                                     w=0.75, t_max=40)),
            ebn0_db=(3.5,), frames=96, master_seed=1202, error_target=None)
        same = (run_campaign(cfg, workers=1, chunk_size=16).to_csv()
                == run_campaign(cfg, workers=2, chunk_size=16).to_csv())
        check(12, "statistics invariant under worker count", same)
