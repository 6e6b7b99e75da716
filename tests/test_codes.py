import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ngdbf.codes import AlistError, ParityCheckCode, bipolar_sign, parse_alist, serialize_alist

from .conftest import DATA_DIR, TINY_ALIST, brute_syndrome, dense_h
from .support.irregular import irregular_codes
from .support.oracles import sequential_parse_alist

MUTATIONS = ("non-integer", "zero", "out-of-range", "repeated", "dropped", "extra",
             "asymmetric", "truncated", "trailing")


@st.composite
def mutated_alists(draw):
    """An irregular code's alist text with one or two single-token faults."""
    code = draw(irregular_codes(max_n=24))
    lines = serialize_alist(code).splitlines()
    for _ in range(draw(st.integers(1, 2))):
        kind = draw(st.sampled_from(MUTATIONS))
        if kind == "trailing":
            lines.append(draw(st.sampled_from(["7", "0 0", "x"])))
            continue
        if len(lines) <= 4:
            continue
        j = draw(st.integers(4, len(lines) - 1))        # an index list line
        if kind == "truncated":
            lines = lines[:j]
            continue
        tokens = lines[j].split()
        t = draw(st.integers(0, max(len(tokens) - 1, 0)))
        bound = code.m if j < 4 + code.n else code.n
        indices = [i for i, tok in enumerate(tokens) if tok != "0"]
        if kind == "extra":
            tokens.insert(t, str(draw(st.integers(0, bound))))
        elif len(indices) < 1 + (kind == "repeated"):
            continue
        elif kind == "dropped":
            del tokens[t]
        elif kind == "non-integer":
            tokens[t] = draw(st.sampled_from(["x", "1.5", "--1", "0x3"]))
        else:                                           # change one listed index
            t = draw(st.sampled_from(indices))
            if kind == "zero":
                tokens[t] = "0"
            elif kind == "out-of-range":
                tokens[t] = str(draw(st.sampled_from([-1, bound + 1, 2**64, -2**70])))
            elif kind == "repeated":
                tokens[t] = tokens[draw(st.sampled_from([i for i in indices if i != t]))]
            else:                                       # asymmetric, unless it repeats or keeps it
                tokens[t] = str(draw(st.integers(1, bound)))
        lines[j] = " ".join(tokens)
    return "\n".join(lines) + "\n"


def assert_same_lists(code, expected):
    n, m, cols, rows = expected
    assert (code.n, code.m) == (n, m)
    for got, want in zip(code.col_neighbors + code.row_neighbors, cols + rows, strict=True):
        assert got.dtype == np.int64 and np.array_equal(got, want)


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

    def test_bundled_code_matches_the_sequential_parser(self, bench_code):
        text = (DATA_DIR / "reg3x6_504x1008.alist").read_text()
        assert_same_lists(bench_code, sequential_parse_alist(text))

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(code=irregular_codes())
    def test_irregular_codes_round_trip(self, code):
        text = serialize_alist(code)
        again = parse_alist(text)
        assert_same_lists(again, (code.n, code.m, list(code.col_neighbors),
                                  list(code.row_neighbors)))
        assert_same_lists(again, sequential_parse_alist(text))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(text=mutated_alists())
    def test_faults_match_the_sequential_parser(self, text):
        try:
            expected = sequential_parse_alist(text)
        except AlistError as err:
            with pytest.raises(AlistError) as got:
                parse_alist(text)
            assert (got.value.line, str(got.value)) == (err.line, str(err))
        else:
            assert_same_lists(parse_alist(text), expected)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(code=irregular_codes(), data=st.data())
    def test_asymmetry_names_the_first_disagreeing_row(self, code, data):
        # Symbol k moves from check i to check j in the column lists only.
        movable = [k for k, col in enumerate(code.col_neighbors) if len(col) < code.m]
        k = data.draw(st.sampled_from(movable))
        col = code.col_neighbors[k]
        i = data.draw(st.sampled_from(sorted(int(c) for c in col)))
        j = data.draw(st.sampled_from(sorted(set(range(code.m)) - {int(c) for c in col})))
        lines = serialize_alist(code).splitlines()
        lines[4 + k] = " ".join(str(j + 1) if tok == str(i + 1) else tok
                                for tok in lines[4 + k].split())
        text = "\n".join(lines) + "\n"
        with pytest.raises(AlistError) as err:
            parse_alist(text)
        row = min(i, j)
        assert err.value.line == 5 + code.n + row
        assert str(err.value) == (f"line {5 + code.n + row}: row {row + 1} disagrees with "
                                  "the column lists (asymmetric membership)")

    def test_round_trip_preserves_neighborhoods(self, tiny_code, bench_code):
        for code in (tiny_code, bench_code):
            again = parse_alist(serialize_alist(code))
            assert again.n == code.n and again.m == code.m
            for a, b in zip(again.col_neighbors, code.col_neighbors):
                assert list(a) == list(b)
            for a, b in zip(again.row_neighbors, code.row_neighbors):
                assert list(a) == list(b)


def test_bipolar_sign_maps_zero_and_nan_like_a_comparison():
    values = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 1e-300, -1e-300])
    assert bipolar_sign(values).tolist() == [1, 1, -1, 1, -1, 1, -1]
    block = np.array([[0, -1], [7, -8]], dtype=np.int8)
    x = bipolar_sign(block)
    assert x.dtype == np.int8 and x.tolist() == [[1, -1], [1, -1]]


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

    def test_rejects_a_repeated_index(self):
        # A repeat passes a set comparison, and syndrome would count x_0 twice.
        with pytest.raises(ValueError, match="check 0 lists an index twice"):
            ParityCheckCode.from_rows(3, [[0, 0, 1, 2]])
        rows = (np.array([0, 1]), np.array([1, 2]))
        cols = (np.array([0]), np.array([0, 1, 1]), np.array([1]))
        with pytest.raises(ValueError, match="symbol 1 lists an index twice"):
            ParityCheckCode(n=3, m=2, col_neighbors=cols, row_neighbors=rows)

    def test_rejects_asymmetric_lists(self):
        rows = (np.array([0, 1]), np.array([1, 2]))
        cols = (np.array([0]), np.array([0, 1]), np.array([0]))
        with pytest.raises(ValueError, match="different edge sets"):
            ParityCheckCode(n=3, m=2, col_neighbors=cols, row_neighbors=rows)

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
