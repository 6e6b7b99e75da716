import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ngdbf.codes import AlistError, ParityCheckCode, parse_alist, serialize_alist

from .conftest import TINY_ALIST, brute_syndrome, dense_h
from .support.irregular import irregular_codes


class TestParse:
    def test_tiny_structure(self, tiny_code):
        assert tiny_code.n == 6
        assert tiny_code.m == 3
        assert tiny_code.rate == pytest.approx(0.5)
        # 1-based symbol 2 sits in checks 1 and 2 -> 0-based {0, 1}
        assert list(tiny_code.col_neighbors[1]) == [0, 1]
        assert list(tiny_code.col_neighbors[2]) == [1, 2]
        assert tiny_code.max_dv == 2 and tiny_code.max_dc == 3

    def test_benchmark_code(self, bench_code):
        assert bench_code.n == 1008
        assert bench_code.m == 504
        assert all(len(c) == 3 for c in bench_code.col_neighbors)
        assert all(len(r) == 6 for r in bench_code.row_neighbors)
        assert float(bench_code.rate) == 0.5

    def test_benchmark_code_has_no_four_cycles(self, bench_code):
        seen = set()
        for row in bench_code.row_neighbors:
            row = sorted(int(k) for k in row)
            for a in range(len(row)):
                for b in range(a + 1, len(row)):
                    assert (row[a], row[b]) not in seen
                    seen.add((row[a], row[b]))

    def test_zero_padding_is_skipped(self, tiny_code):
        assert list(tiny_code.col_neighbors[3]) == [0]

    @pytest.mark.parametrize("mutate, lineno", [
        (("6 3", "six 3"), 1),                 # non-integer header
        (("6 3", "3 6"), 1),                   # n <= m
        (("2 2 2 1 1 1", "3 2 2 1 1 1"), 3),   # claimed max_dv no longer matches
        (("1 3", "1 3 2"), 5),                 # degree 2 but three indices
        (("1 0", "0 0"), 8),                   # degree 1 but no index
        (("1 0", "4 0"), 8),                   # check index out of range
        (("1 2", "1 1"), 6),                   # duplicate index
        (("1 2 4", "1 2 5"), 11),              # asymmetric membership
    ])
    def test_malformed_inputs_name_the_line(self, mutate, lineno):
        old, new = mutate
        assert TINY_ALIST.count(old + "\n") >= 1
        text = TINY_ALIST.replace(old + "\n", new + "\n", 1)
        with pytest.raises(AlistError) as err:
            parse_alist(text)
        assert err.value.line == lineno
        assert f"line {lineno}" in str(err.value)

    def test_degree_mismatch_message(self):
        text = TINY_ALIST.replace("1 3\n", "1 3 2\n", 1)
        with pytest.raises(AlistError, match="lists 3 indices, degree 2"):
            parse_alist(text)

    def test_trailing_garbage_rejected(self):
        with pytest.raises(AlistError, match="trailing"):
            parse_alist(TINY_ALIST + "7 7\n")

    def test_round_trip_preserves_neighborhoods(self, tiny_code, bench_code):
        for code in (tiny_code, bench_code):
            again = parse_alist(serialize_alist(code))
            assert again.n == code.n and again.m == code.m
            for a, b in zip(again.col_neighbors, code.col_neighbors):
                assert list(a) == list(b)
            for a, b in zip(again.row_neighbors, code.row_neighbors):
                assert list(a) == list(b)


class TestSyndrome:
    def test_all_plus_one(self, tiny_code):
        x = np.ones(6, dtype=np.int8)
        assert list(tiny_code.syndrome(x)) == [1, 1, 1]
        assert tiny_code.is_codeword(x)

    def test_hand_product(self, tiny_code):
        x = np.array([-1, 1, 1, 1, 1, 1], dtype=np.int8)
        assert list(tiny_code.syndrome(x)) == [-1, 1, -1]
        assert not tiny_code.is_codeword(x)

    def test_single_flip_negates_adjacent_checks(self, tiny_code, bench_code):
        rng = np.random.default_rng(5)
        for code in (tiny_code, bench_code):
            for _ in range(25):
                x = rng.choice([-1, 1], size=code.n).astype(np.int8)
                s0 = code.syndrome(x)
                k = int(rng.integers(code.n))
                x[k] = -x[k]
                s1 = code.syndrome(x)
                changed = np.flatnonzero(s0 != s1)
                assert sorted(changed) == sorted(int(i) for i in code.col_neighbors[k])

    def test_against_dense_oracle(self, tiny_code, bench_code):
        rng = np.random.default_rng(11)
        for code in (tiny_code, bench_code):
            for _ in range(10):
                x = rng.choice([-1, 1], size=code.n).astype(np.int8)
                assert np.array_equal(code.syndrome(x), brute_syndrome(code, x))

    def test_is_codeword_iff_no_negative_component(self, tiny_code):
        rng = np.random.default_rng(3)
        for _ in range(64):
            x = rng.choice([-1, 1], size=6).astype(np.int8)
            assert tiny_code.is_codeword(x) == (tiny_code.syndrome(x).min() == 1)

    def test_length_mismatch(self, tiny_code):
        with pytest.raises(ValueError, match="length"):
            tiny_code.syndrome(np.ones(5, dtype=np.int8))

    def test_benchmark_single_flip_breaks_checks(self, bench_code):
        x = np.ones(bench_code.n, dtype=np.int8)
        x[0] = -1
        s = bench_code.syndrome(x)
        assert int((s == -1).sum()) == len(bench_code.col_neighbors[0]) == 3
        assert not bench_code.is_codeword(x)


class TestConstruction:
    def test_rejects_degree_zero_column(self):
        with pytest.raises(ValueError, match="degree 0"):
            ParityCheckCode.from_rows(4, [[0, 1], [1, 2]])

    def test_rejects_degree_one_row(self):
        with pytest.raises(ValueError, match="degree 1"):
            ParityCheckCode.from_rows(4, [[0], [0, 1, 2, 3]])

    def test_degree_histograms(self, tiny_code):
        cols, rows = tiny_code.degree_histograms()
        assert cols == {2: 3, 1: 3}
        assert rows == {3: 3}


class TestSlotTables:
    """Codes with shuffled lists and both tables padded."""

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(code=irregular_codes())
    def test_tables_describe_the_graph(self, code):
        for i, row in enumerate(code.row_neighbors):
            pad = [code.n] * (code.max_dc - len(row))
            assert list(code.row_slots[:, i]) == list(row) + pad
        for k, col in enumerate(code.col_neighbors):
            pad = code.max_dv - len(col)
            assert list(code.col_slots[:, k]) == sorted(col) + [code.m] * pad
            edges = code.edge_slots[:len(col), k]
            assert list(edges % code.m) == sorted(col)
            assert list(code.row_slots.ravel()[edges]) == [k] * len(col)
            assert list(code.edge_slots[len(col):, k]) == [code.max_dc * code.m] * pad

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(code=irregular_codes(), seed=st.integers(0, 2**32 - 1))
    def test_syndrome_and_sums_against_dense_oracle(self, code, seed):
        x = np.random.default_rng(seed).choice([-1, 1], size=code.n).astype(np.int8)
        s = code.syndrome(x)
        assert s.dtype == np.int8 and np.array_equal(s, brute_syndrome(code, x))
        sums = code.syndrome_sums(s)
        assert sums.dtype == np.int64 and np.array_equal(sums, dense_h(code).T @ s)
