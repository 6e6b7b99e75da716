"""Parity-check code model: alist parsing and Tanner-graph queries.

A code is held purely as adjacency lists (the Tanner graph), never as a
dense matrix; block lengths of a few thousand symbols are routine and the
decoders only ever walk neighborhoods.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from pathlib import Path

import numpy as np


class AlistError(ValueError):
    """Structural problem in an alist file; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


_PAD_SYMBOL, _PAD_CHECK = np.ones(1, dtype=np.int8), np.zeros(1, dtype=np.int8)


def bipolar_sign(values) -> np.ndarray:
    """Hard decisions sign(v) with the convention sign(0) = +1."""
    x = (np.asarray(values) >= 0).astype(np.int8)
    x *= 2
    x -= 1
    return x


def _sorted_edges(lists, rows: bool) -> np.ndarray:
    """(2, E): the (check, symbol) pair of each entry of a code's row lists
    (``rows``) or column lists, sorted by check, then symbol."""
    outer = np.repeat(np.arange(len(lists)), [len(x) for x in lists])
    pairs = np.stack((outer, np.concatenate(lists)) if rows else (np.concatenate(lists), outer))
    return pairs[:, np.lexsort(pairs[::-1])]


def _first_asymmetric_check(by_rows: np.ndarray, by_cols: np.ndarray) -> int | None:
    """The first check i whose N(i) differs from {k : i in M(k)}, given both
    lists' ``_sorted_edges``; None when the two describe one graph."""
    size = min(by_rows.shape[1], by_cols.shape[1])
    differ = np.flatnonzero((by_rows[:, :size] != by_cols[:, :size]).any(axis=0))
    at = differ[0] if differ.size else size
    firsts = [edges[0, at] for edges in (by_rows, by_cols) if at < edges.shape[1]]
    return int(min(firsts)) if firsts else None


@dataclass(frozen=True, eq=False)
class ParityCheckCode:
    """An LDPC code given by its Tanner graph.

    Attributes
    ----------
    n, m : int
        Symbol (column) and check (row) counts, with ``n > m >= 1``.
    col_neighbors : tuple of int arrays
        For each symbol k, the ordered check indices M(k).
    row_neighbors : tuple of int arrays
        For each check i, the ordered symbol indices N(i).

    Instances are immutable after construction and safe to share across
    concurrent frame workers.
    """

    n: int
    m: int
    col_neighbors: tuple
    row_neighbors: tuple

    def __post_init__(self):
        if not (self.n > self.m >= 1):
            raise ValueError(f"need n > m >= 1, got n={self.n}, m={self.m}")
        if len(self.col_neighbors) != self.n or len(self.row_neighbors) != self.m:
            raise ValueError("neighbor list counts do not match n, m")
        for i, row in enumerate(self.row_neighbors):
            if len(row) < 2:
                raise ValueError(f"check {i} has degree {len(row)} < 2")
        for k, col in enumerate(self.col_neighbors):
            if len(col) < 1:
                raise ValueError(f"symbol {k} has degree 0")
        by_rows = _sorted_edges(self.row_neighbors, rows=True)
        by_cols = _sorted_edges(self.col_neighbors, rows=False)
        for edges, side, what in ((by_rows, 0, "check"), (by_cols, 1, "symbol")):
            repeats = np.flatnonzero((edges[:, 1:] == edges[:, :-1]).all(axis=0))
            if repeats.size:
                raise ValueError(f"{what} {edges[side, repeats[0]]} lists an index twice")
        # Membership symmetry: k in N(i)  <=>  i in M(k).
        if _first_asymmetric_check(by_rows, by_cols) is not None:
            raise ValueError("row/column neighbor lists describe different edge sets")

    @classmethod
    def from_rows(cls, n: int, rows) -> "ParityCheckCode":
        """Build a code from per-check symbol index lists, deriving M(k)."""
        cols = [[] for _ in range(n)]
        for i, row in enumerate(rows):
            for k in row:
                cols[k].append(i)
        return cls(
            n=n,
            m=len(rows),
            col_neighbors=tuple(np.asarray(c, dtype=np.int64) for c in cols),
            row_neighbors=tuple(np.asarray(r, dtype=np.int64) for r in rows),
        )

    # -- basic descriptors -------------------------------------------------

    @cached_property
    def max_dv(self) -> int:
        return max(len(c) for c in self.col_neighbors)

    @cached_property
    def max_dc(self) -> int:
        return max(len(r) for r in self.row_neighbors)

    @property
    def rate(self) -> Fraction:
        return Fraction(self.n - self.m, self.n)

    @cached_property
    def n_edges(self) -> int:
        return sum(len(r) for r in self.row_neighbors)

    def degree_histograms(self):
        """Return ({col_degree: count}, {row_degree: count})."""
        return (dict(Counter(len(c) for c in self.col_neighbors)),
                dict(Counter(len(r) for r in self.row_neighbors)))

    @cached_property
    def zero_codeword(self) -> np.ndarray:
        """The all-zero codeword in bipolar form: n entries of +1, int8."""
        return np.ones(self.n, dtype=np.int8)

    # -- slot tables: one gather per degree slot --------------------------

    @cached_property
    def row_slots(self) -> np.ndarray:
        """(max_dc, m): column i lists N(i), padded with n, a symbol held at +1."""
        table = np.full((self.max_dc, self.m), self.n, dtype=np.int64)
        for i, row in enumerate(self.row_neighbors):
            table[:len(row), i] = row
        return table

    @cached_property
    def edge_slots(self) -> np.ndarray:
        """(max_dv, n): for each check of M(k) in ascending order, the flat position
        of symbol k's slot in a (max_dc, m) table, padded with max_dc * m."""
        flat = self.row_slots.ravel()
        pos = np.flatnonzero(flat < self.n)
        pos = pos[np.lexsort((pos % self.m, flat[pos]))]   # by symbol, then check
        sym = flat[pos]
        table = np.full((self.max_dv, self.n), flat.size, dtype=np.int64)
        table[np.arange(pos.size) - np.searchsorted(sym, sym), sym] = pos
        return table

    @cached_property
    def col_slots(self) -> np.ndarray:
        """(max_dv, n): column k lists M(k) ascending, padded with m, a check held at 0."""
        edges = self.edge_slots
        return np.where(edges < self.max_dc * self.m, edges % self.m, self.m)

    # -- syndrome operations ------------------------------------------------

    def syndrome(self, x: np.ndarray) -> np.ndarray:
        """Bipolar syndrome: entry i is the product of x over N(i).

        +1 means check i is satisfied.
        """
        if len(x) != self.n:
            raise ValueError(f"decision vector has length {len(x)}, code needs {self.n}")
        return np.concatenate((x, _PAD_SYMBOL))[self.row_slots].prod(axis=0, dtype=np.int8)

    def is_codeword(self, x: np.ndarray) -> bool:
        """True iff every bipolar syndrome component equals +1."""
        return bool(self.syndrome(x).min() == 1)

    def syndrome_sums(self, s: np.ndarray) -> np.ndarray:
        """Per-symbol sum of adjacent syndrome components, sum over M(k)."""
        if len(s) != self.m:
            raise ValueError(f"syndrome vector has length {len(s)}, code needs {self.m}")
        return np.concatenate((s, _PAD_CHECK))[self.col_slots].sum(axis=0, dtype=np.int64)


# ---------------------------------------------------------------------------
# alist format
# ---------------------------------------------------------------------------


def parse_alist(text: str) -> ParityCheckCode:
    """Parse the standard alist sparse-matrix interchange format.

    Layout: ``n m`` / ``max_dv max_dc`` / n column degrees / m row degrees /
    n column index lists / m row index lists.  File indices are 1-based and
    converted to 0-based here; zero entries inside the index lists are
    padding and are skipped.

    Raises
    ------
    AlistError
        On any malformed record, naming the offending line.
    """
    lines = text.splitlines()

    def ints(lineno: int, expect: int | None = None, what: str = "") -> list:
        if lineno > len(lines):
            raise AlistError(lineno, f"file ends early, expected {what}")
        raw = lines[lineno - 1].split()
        try:
            vals = [int(tok) for tok in raw]
        except ValueError:
            raise AlistError(lineno, f"non-integer token in {what}") from None
        if expect is not None and len(vals) != expect:
            raise AlistError(lineno, f"expected {expect} integers for {what}, got {len(vals)}")
        return vals

    n, m = ints(1, 2, "header 'n m'")
    if not (n > m >= 1):
        raise AlistError(1, f"header requires n > m >= 1, got n={n}, m={m}")
    max_dv, max_dc = ints(2, 2, "header 'max_dv max_dc'")
    col_degs = ints(3, n, "column degrees")
    row_degs = ints(4, m, "row degrees")
    if max(col_degs) != max_dv:
        raise AlistError(3, f"column degrees peak at {max(col_degs)}, header claims {max_dv}")
    if max(row_degs) != max_dc:
        raise AlistError(4, f"row degrees peak at {max(row_degs)}, header claims {max_dc}")
    for k, d in enumerate(col_degs):
        if d < 1:
            raise AlistError(3, f"column {k + 1} declares degree {d} < 1")
    for i, d in enumerate(row_degs):
        if d < 2:
            raise AlistError(4, f"row {i + 1} declares degree {d} < 2")

    def index_list(j: int) -> None:
        """Raise the fault of list line j (0-based, columns first), if it has one."""
        what, degree, bound = ((f"column {j + 1}", col_degs[j], m) if j < n
                               else (f"row {j - n + 1}", row_degs[j - n], n))
        nonzero = [v for v in ints(5 + j, None, what) if v != 0]
        if len(nonzero) != degree:
            raise AlistError(5 + j, f"{what} lists {len(nonzero)} indices, "
                                    f"degree {degree} declared")
        for v in nonzero:
            if not (1 <= v <= bound):
                raise AlistError(5 + j, f"{what} index {v} outside 1..{bound}")
        if len(set(nonzero)) != degree:
            raise AlistError(5 + j, f"{what} contains a duplicate index")

    # Every list line at once; index_list words the first fault.  Nonzero
    # token t of the file's lists is ``vals[t]``, on list line ``line_of[t]``.
    body = [line.split() for line in lines[4:4 + n + m]]
    width = [len(tokens) for tokens in body]
    try:
        degree = np.array(col_degs + row_degs, dtype=np.int64)
        vals = np.fromiter(map(int, chain.from_iterable(body)), np.int64, sum(width))
    except (ValueError, OverflowError):     # a token int() rejects, or one past int64
        for j in range(n + m):
            index_list(j)                   # raises at the first faulty line
    line_of = np.repeat(np.arange(len(body)), width)[vals != 0]
    vals = vals[vals != 0]
    pairs = np.stack((line_of, vals))[:, np.lexsort((vals, line_of))]
    faulty = np.bincount(line_of, minlength=len(body)) != degree[:len(body)]
    faulty[line_of[(vals < 1) | (vals > np.where(line_of < n, m, n))]] = True
    faulty[pairs[0, 1:][(pairs[:, 1:] == pairs[:, :-1]).all(axis=0)]] = True
    first = int(np.argmax(faulty)) if faulty.any() else len(body)
    if first < n + m:
        index_list(first)                   # the first faulty line, or the first missing one

    vals -= 1
    ends = np.cumsum(degree).tolist()
    lists = [vals[a:b] for a, b in zip([0] + ends[:-1], ends)]
    cols, rows = tuple(lists[:n]), tuple(lists[n:])
    try:
        code = ParityCheckCode(n=n, m=m, col_neighbors=cols, row_neighbors=rows)
    except ValueError:      # every list line passed, so only membership can disagree
        i = _first_asymmetric_check(_sorted_edges(rows, rows=True),
                                    _sorted_edges(cols, rows=False))
        raise AlistError(
            5 + n + i, f"row {i + 1} disagrees with the column lists (asymmetric membership)"
        ) from None

    for extra in range(5 + n + m, len(lines) + 1):
        if lines[extra - 1].strip():
            raise AlistError(extra, "unexpected trailing content")

    return code


def serialize_alist(code: ParityCheckCode) -> str:
    """Render a code back to alist text (irregular lists are zero-padded)."""
    out = [f"{code.n} {code.m}", f"{code.max_dv} {code.max_dc}"]
    out.append(" ".join(str(len(c)) for c in code.col_neighbors))
    out.append(" ".join(str(len(r)) for r in code.row_neighbors))

    def pad(indices, width):
        entries = [str(int(i) + 1) for i in indices]
        entries += ["0"] * (width - len(entries))
        return " ".join(entries)

    out.extend(pad(c, code.max_dv) for c in code.col_neighbors)
    out.extend(pad(r, code.max_dc) for r in code.row_neighbors)
    return "\n".join(out) + "\n"


def load_alist(path) -> ParityCheckCode:
    return parse_alist(Path(path).read_text())
