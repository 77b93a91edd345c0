"""Diagnostic fixtures: independently transcribed representation tables.

The authoritative matrices are generated from multiplication in
representations.py.  The tables below were transcribed from a reference
derivation and are kept purely as diagnostic fixtures; a structural comparator
reports every cell where a fixture disagrees with the generated matrix.  The
frozen KNOWN_MISMATCHES sets record the transcription's defects, so the
comparator doubles as a regression check on the generator: any mismatch
outside the known set is a real failure.

Cell tokens: optional 'a', optional 'b', optional 'w'/'w2', then 'c<k>' for
coefficient tables or an optional '1' for scalar block tables; '0' is an
empty cell.  Example: 'abw2c6' means a * b * w^2 * c6.
"""

from __future__ import annotations

import re

from .algebra import EXPONENTS, INDEX_OF, SymbolAlgebra, basis_product_exponents
from .cyclotomic import ONE
from .representations import _COMPLEMENT, _frame_weights

_CELL_RE = re.compile(r"^(a)?(b)?(w2|w)?(?:c([0-8])|(1))?$")


def _parse_cell(token: str, *, coefficient_table: bool):
    """Token -> None or (coeff_index, w_pow, a_pow, b_pow); index None for blocks."""
    if token == "0":
        return None
    m = _CELL_RE.match(token)
    if m is None:
        raise ValueError(f"bad fixture token {token!r}")
    a, b, w, idx, one = m.groups()
    if coefficient_table:
        if idx is None:
            raise ValueError(f"fixture token {token!r} lacks a coefficient")
        coeff = int(idx)
    else:
        if idx is not None:
            raise ValueError(f"scalar block token {token!r} carries a coefficient")
        coeff = None
    w_pow = 0 if w is None else (1 if w == "w" else 2)
    return (coeff, w_pow, 1 if a else 0, 1 if b else 0)


def _parse_table(rows, *, coefficient_table: bool):
    out = []
    for row in rows:
        tokens = row.split()
        if len(tokens) != 9:
            raise ValueError(f"fixture row needs 9 cells: {row!r}")
        out.append(tuple(_parse_cell(t, coefficient_table=coefficient_table) for t in tokens))
    if len(out) != 9:
        raise ValueError("fixture table needs 9 rows")
    return tuple(out)


# Left representation at general (a, b).
LAMBDA_GENERAL = _parse_table(
    [
        "c0   ac2   ac1   bc4  bc3   abw2c6  abw2c5  abwc8  abwc7",
        "c1   c0    ac2   bc8  bc5   bw2c4   abw2c7  abwc6  bwc3",
        "c2   c1    c0    bc6  bc7   bw2c8   aw2c3   bwc4   bwc5",
        "c3   awc7  aw2c5 c0   bc4   ac2     abwc8   ac1    abw2c6",
        "c4   aw2c6 awc8  c3   c0    awc7    ac1     aw2c5  ac2",
        "c5   wc3   aw2c7 c1   bc8   c0      abwc6   ac2    bw2c4",
        "c6   w2c8  wc4   c7   c2    wc5     c0      w2c3   c1",
        "c7   wc5   w2c3  c2   bc6   c1      bwc4    c0     bw2c8",
        "c8   w2c4  awc6  c5   c1    wc3     ac2     aw2c7  c0",
    ],
    coefficient_table=True,
)

# Right representation at general (a, b).
GAMMA_GENERAL = _parse_table(
    [
        "c0   ac2   ac1   bc4   bc3   abw2c6  abw2c5  abwc8  abwc7",
        "c1   c0    ac2   bwc8  bw2c5 bc4     abwc7   abw2c6 bc3",
        "c2   c1    c0    bw2c6 bwc7  bwc8    ac3     bc4    bw2c5",
        "c3   ac7   ac5   c0    bc4   aw2c2   abw2c8  awc1   abwc6",
        "c4   ac6   ac8   c3    c0    aw2c7   aw2c1   awc5   awc2",
        "c5   c3    ac7   wc1   bw2c8 c0      abwc6   aw2c2  bc4",
        "c6   c8    c4    w2c7  wc2   wc5     c0      c3     w2c1",
        "c7   c5    c3    w2c2  bwc6  wc1     bc4     c0     bw2c8",
        "c8   c4    ac6   wc5   w2c1  c3      awc2    aw2c7  c0",
    ],
    coefficient_table=True,
)

# Left representation specialized to a = b = 1 (compared modulo a/b powers).
LAMBDA_UNIT = _parse_table(
    [
        "c0  c2    c1    c4  c3    w2c6  w2c5  wc8   wc7",
        "c1  c0    c2    c8  c5    w2c4  w2c7  wc6   wc3",
        "c2  c1    c0    c6  c7    w2c8  w2c3  wc4   wc5",
        "c3  wc7   w2c5  c0  c4    ac2   wc8   c1    w2c6",
        "c4  w2c6  wc8   c3  c0    wc7   c1    w2c5  c2",
        "c5  wc3   w2c7  c1  c8    c0    wc6   c2    w2c4",
        "c6  w2c8  wc4   c7  c2    wc5   c0    w2c3  c1",
        "c7  wc5   w2c3  c2  c6    c1    wc4   c0    w2c8",
        "c8  w2c4  wc6   c5  c1    wc3   c2    w2c7  c0",
    ],
    coefficient_table=True,
)

# Left representation of the first twist z_w at a = b = 1.
LAMBDA_UNIT_TWIST = _parse_table(
    [
        "c0  c2    c1  w2c4  wc3   wc6   c5  c8  w2c7",
        "c1  c0    c2  w2c8  wc5   wc4   c7  c6  w2c3",
        "c2  c1    c0  w2c6  wc7   wc8   c3  c4  w2c5",
        "c3  w2c7  c5  c0    w2c4  c2    c8  c1  wc6",
        "c4  wc6   c8  wc3   c0    w2c7  c1  c5  c2",
        "c5  w2c3  c7  c1    w2c8  c0    c6  c2  wc4",
        "c6  wc8   c4  wc7   c2    w2c5  c0  c3  c1",
        "c7  w2c5  c3  c2    w2c6  c1    c4  c0  wc8",
        "c8  wc4   c6  wc5   c1    w2c3  c2  c7  c0",
    ],
    coefficient_table=True,
)

# Generator blocks: left representations of x and y ...
BLOCK_X = _parse_table(
    [
        "0 0 a  0 0 0  0 0 0",
        "1 0 0  0 0 0  0 0 0",
        "0 1 0  0 0 0  0 0 0",
        "0 0 0  0 0 0  0 a 0",
        "0 0 0  0 0 0  a 0 0",
        "0 0 0  1 0 0  0 0 0",
        "0 0 0  0 0 0  0 0 1",
        "0 0 0  0 0 1  0 0 0",
        "0 0 0  0 1 0  0 0 0",
    ],
    coefficient_table=False,
)

BLOCK_Y = _parse_table(
    [
        "0 0 0   0 b 0  0 0 0",
        "0 0 0   0 0 0  0 0 bw",
        "0 0 0   0 0 0  bw2 0 0",
        "1 0 0   0 0 0  0 0 0",
        "0 0 0   1 0 0  0 0 0",
        "0 w 0   0 0 0  0 0 0",
        "0 0 0   0 0 0  0 w2 0",
        "0 0 w2  0 0 0  0 0 0",
        "0 0 0   0 0 w  0 0 0",
    ],
    coefficient_table=False,
)

# ... and right representations of x and y.
BLOCK_U = _parse_table(
    [
        "0 0 a  0 0 0  0 0 0",
        "1 0 0  0 0 0  0 0 0",
        "0 1 0  0 0 0  0 0 0",
        "0 0 0  0 0 0  0 aw 0",
        "0 0 0  0 0 0  aw2 0 0",
        "0 0 0  w 0 0  0 0 0",
        "0 0 0  0 0 0  0 0 w2",
        "0 0 0  0 0 w  0 0 0",
        "0 0 0  0 w2 0  0 0 0",
    ],
    coefficient_table=False,
)

BLOCK_V = _parse_table(
    [
        "0 0 0  0 b 0  0 0 0",
        "0 0 0  0 0 0  0 0 bw",
        "0 0 0  0 0 0  bw 0 0",
        "1 0 0  0 0 0  0 0 0",
        "0 0 0  1 0 0  0 0 0",
        "0 1 0  0 0 0  0 0 0",
        "0 0 0  0 0 0  0 1 0",
        "0 0 1  0 0 0  0 0 0",
        "0 0 0  0 0 1  0 0 0",
    ],
    coefficient_table=False,
)


def structural_lambda():
    """Generated left-representation structure: cell (r, k) holds
    (coeff_index, w_pow, a_pow, b_pow) with b_i * b_k = w^e a^p b^q * b_r."""
    grid = [[None] * 9 for _ in range(9)]
    for k in range(9):
        for i in range(9):
            w, pa, pb, res = basis_product_exponents(EXPONENTS[i], EXPONENTS[k])
            grid[INDEX_OF[res]][k] = (i, w, pa, pb)
    return tuple(tuple(row) for row in grid)


def structural_gamma():
    grid = [[None] * 9 for _ in range(9)]
    for k in range(9):
        for i in range(9):
            w, pa, pb, res = basis_product_exponents(EXPONENTS[k], EXPONENTS[i])
            grid[INDEX_OF[res]][k] = (i, w, pa, pb)
    return tuple(tuple(row) for row in grid)


def structural_twist(grid, k: int):
    """Structure of Lambda(z_twisted): coefficient i picks up w^(j_i * k)."""
    out = []
    for row in grid:
        new_row = []
        for cell in row:
            if cell is None:
                new_row.append(None)
            else:
                i, w, pa, pb = cell
                new_row.append((i, (w + EXPONENTS[i][1] * k) % 3, pa, pb))
        out.append(tuple(new_row))
    return tuple(out)


def _restrict_to_coeff(grid, coeff_index: int):
    """Scalar block of a structural grid: keep only the cells fed by one coefficient."""
    return tuple(
        tuple(
            (None, cell[1], cell[2], cell[3]) if cell is not None and cell[0] == coeff_index else None
            for cell in row
        )
        for row in grid
    )


def _strip_powers(grid):
    """Erase a/b powers (used at a = b = 1, where they are numerically void)."""
    return tuple(
        tuple(None if cell is None else (cell[0], cell[1], 0, 0) for cell in row)
        for row in grid
    )


def compare_tables(fixture, generated) -> list:
    """All cells where the fixture structurally disagrees with the generated table."""
    out = []
    for r in range(9):
        for c in range(9):
            if fixture[r][c] != generated[r][c]:
                out.append((r, c, fixture[r][c], generated[r][c]))
    return out


# Known transcription defects, frozen from the comparator output (0-based
# (row, col)).  The generated entry is authoritative in every case.
KNOWN_MISMATCHES = {
    "lambda_general": {(2, 6)},   # fixture a*w2*c3, generated b*w2*c3
    "gamma_general": {(2, 6)},    # fixture a*c3,    generated b*c3
    "lambda_unit": set(),
    # The transcribed twisted table leaves its first column untwisted; the
    # generated column carries w^j on the y-degree-j coefficients.
    "lambda_unit_twist": {(3, 0), (4, 0), (5, 0), (6, 0), (7, 0), (8, 0)},
    "block_x": set(),
    "block_y": set(),
    "block_u": set(),
    "block_v": {(1, 8), (2, 6)},  # fixture b*w, generated b
}


def fixture_reports() -> dict:
    """name -> (mismatch list, known set, ok flag) for every stored fixture."""
    lam = structural_lambda()
    gam = structural_gamma()
    unit_lam = _strip_powers(lam)
    comparisons = {
        "lambda_general": compare_tables(LAMBDA_GENERAL, lam),
        "gamma_general": compare_tables(GAMMA_GENERAL, gam),
        "lambda_unit": compare_tables(_strip_powers(LAMBDA_UNIT), unit_lam),
        "lambda_unit_twist": compare_tables(
            _strip_powers(LAMBDA_UNIT_TWIST), _strip_powers(structural_twist(lam, 1))
        ),
        "block_x": compare_tables(BLOCK_X, _restrict_to_coeff(lam, 1)),
        "block_y": compare_tables(BLOCK_Y, _restrict_to_coeff(lam, 3)),
        "block_u": compare_tables(BLOCK_U, _restrict_to_coeff(gam, 1)),
        "block_v": compare_tables(BLOCK_V, _restrict_to_coeff(gam, 3)),
    }
    return {
        name: (mismatches, KNOWN_MISMATCHES[name], {(r, c) for r, c, _, _ in mismatches} == KNOWN_MISMATCHES[name])
        for name, mismatches in comparisons.items()
    }


def transcribed_reconstruction_frames(algebra: SymbolAlgebra):
    """Reconstruction frames exactly as transcribed: inverse-scalar weights on
    both row frames.  The Gamma^t route matches the corrected frames; the
    Lambda route reproduces 3z only at a = b = 1 (diagnostic, not used by
    reconstruct)."""
    weights = _frame_weights(algebra)
    m9 = tuple((k, weights[k]) for k in range(9))
    n9 = tuple((k, ONE) for k in _COMPLEMENT)
    m10 = tuple(m9[k] for k in _COMPLEMENT)
    n10 = tuple((k, ONE) for k in range(9))
    return (m9, n9), (m10, n10)
