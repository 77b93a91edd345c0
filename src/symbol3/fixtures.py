"""Diagnostic fixtures: independently transcribed representation tables.

The authoritative matrices are generated from multiplication in
representations.py.  The tables below were transcribed from a reference
derivation and are kept purely as diagnostic fixtures.  The audit evaluates
each table at one point and compares it cell by cell with the library's own
lambda_mat/gamma_mat there; the point is chosen so that equal cell values mean
equal structure (coefficient, w-power, a- and b-powers).  The frozen
KNOWN_MISMATCHES sets record the transcription's defects, so the audit doubles
as a regression check on the generator: any mismatch outside the known set is
a real failure.

Cell tokens: optional 'a', optional 'b', optional 'w'/'w2', then 'c<k>' or an
optional '1'; '0' is an empty cell.  Example: 'abw2c6' means a * b * w^2 * c6.
A stray or missing 'c<k>' changes the cell's value, so the audit reports it.
"""

from __future__ import annotations

import re

from .algebra import COMPLEMENT, SymbolAlgebra, SymbolElement
from .cyclotomic import CycQ, OMEGA_POW, ONE, ZERO
from .representations import MatK, _frame_weights, gamma_mat, lambda_mat

_CELL_RE = re.compile(r"^(a)?(b)?(w2|w)?(?:c([0-8])|1)?$")


def _parse_cell(token: str):
    """Token -> None or (coeff_index, w_pow, a_pow, b_pow); index None without 'c<k>'."""
    if token == "0":
        return None
    m = _CELL_RE.match(token)
    if m is None:
        raise ValueError(f"bad fixture token {token!r}")
    a, b, w, idx = m.groups()
    w_pow = 0 if w is None else (1 if w == "w" else 2)
    return (None if idx is None else int(idx), w_pow, 1 if a else 0, 1 if b else 0)


def _parse_table(rows):
    out = []
    for row in rows:
        tokens = row.split()
        if len(tokens) != 9:
            raise ValueError(f"fixture row needs 9 cells: {row!r}")
        out.append(tuple(_parse_cell(t) for t in tokens))
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
    ]
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
    ]
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
    ]
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
    ]
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
    ]
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
    ]
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
    ]
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
    ]
)


# The audit's evaluation point.  Every cell, transcribed or generated, is one
# term w^e a^p b^q c_i with p, q <= 1 (a block cell has no c_i).  At a = 2,
# b = 3 and c_i the nine primes from 5, the 108 possible coefficient-cell
# values are pairwise distinct, and so are the 12 block-cell values, so equal
# values mean equal (i, e, p, q).  The unit tables are read at a = b = 1,
# where the a/b powers are void.
AUDIT_POINT = SymbolAlgebra(2, 3).element((5, 7, 11, 13, 17, 19, 23, 29, 31))
AUDIT_UNIT = SymbolAlgebra(1, 1).element(AUDIT_POINT.coeffs)


def _cell_value(cell, z: SymbolElement) -> CycQ:
    """A parsed cell evaluated at z's (a, b) and coefficients."""
    if cell is None:
        return ZERO
    i, w, pa, pb = cell
    value = OMEGA_POW[w] * (z.algebra.a if pa else ONE) * (z.algebra.b if pb else ONE)
    return value if i is None else value * z.coeffs[i]


def compare_tables(fixture, z: SymbolElement, generated: MatK) -> list:
    """All cells where the fixture, evaluated at z, differs from the generated matrix."""
    out = []
    for r in range(9):
        for c in range(9):
            value = _cell_value(fixture[r][c], z)
            if value != generated[r, c]:
                out.append((r, c, value, generated[r, c]))
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
    z, u = AUDIT_POINT, AUDIT_UNIT
    x, y = z.algebra.x(), z.algebra.y()
    comparisons = {
        "lambda_general": compare_tables(LAMBDA_GENERAL, z, lambda_mat(z)),
        "gamma_general": compare_tables(GAMMA_GENERAL, z, gamma_mat(z)),
        "lambda_unit": compare_tables(LAMBDA_UNIT, u, lambda_mat(u)),
        "lambda_unit_twist": compare_tables(LAMBDA_UNIT_TWIST, u, lambda_mat(u.twist(1))),
        "block_x": compare_tables(BLOCK_X, z, lambda_mat(x)),
        "block_y": compare_tables(BLOCK_Y, z, lambda_mat(y)),
        "block_u": compare_tables(BLOCK_U, z, gamma_mat(x)),
        "block_v": compare_tables(BLOCK_V, z, gamma_mat(y)),
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
    n9 = tuple((k, ONE) for k in COMPLEMENT)
    m10 = tuple(m9[k] for k in COMPLEMENT)
    n10 = tuple((k, ONE) for k in range(9))
    return (m9, n9), (m10, n10)
