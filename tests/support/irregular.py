"""Random irregular codes, built the way an unsorted alist file builds them.

Test support only.  The row and column lists are shuffled independently and
passed straight to the ``ParityCheckCode`` constructor, so they come in no
particular order.
Check and symbol degrees both vary, so both slot tables of such a code
carry padding.
"""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from ngdbf.codes import ParityCheckCode


def random_irregular_code(n: int, m: int, max_dc: int, seed: int) -> ParityCheckCode:
    """An (n, m) code, n >= 2 m: each check takes its share of a random
    symbol permutation (at least two symbols) and random extra symbols up to
    ``max_dc``, so every symbol has degree one or more."""
    if not (n >= 2 * m >= 2 and max_dc >= 2):
        raise ValueError("need n >= 2 m >= 2 and max_dc >= 2")
    rng = np.random.default_rng(seed)
    rows = [set() for _ in range(m)]
    for j, k in enumerate(rng.permutation(n)):      # every symbol in one check,
        rows[j % m].add(int(k))                     # every check two symbols
    for row in rows:
        for k in rng.choice(n, size=rng.integers(0, max_dc - 1), replace=False):
            if len(row) < max_dc:
                row.add(int(k))
    rows = [[int(k) for k in rng.permutation(sorted(row))] for row in rows]
    cols = [[] for _ in range(n)]
    for i, row in enumerate(rows):
        for k in row:
            cols[k].append(i)
    return ParityCheckCode(
        n=n, m=m,
        col_neighbors=tuple(rng.permutation(col) for col in cols),
        row_neighbors=tuple(np.asarray(row, dtype=np.int64) for row in rows))


@st.composite
def irregular_codes(draw, max_n: int = 60):
    """A hypothesis strategy over ``random_irregular_code``."""
    n = draw(st.integers(8, max_n))
    return random_irregular_code(n, draw(st.integers(2, n // 2)), draw(st.integers(3, 8)),
                                 draw(st.integers(0, 2**32 - 1)))
