import itertools
import operator
import random

import pytest

from symbol3 import fixtures
from symbol3.cyclotomic import CycQ, ONE, ZERO
from symbol3.fixtures import fixture_reports, transcribed_reconstruction_frames
from symbol3.representations import (
    MatK,
    _mixed_product,
    _rref,
    det,
    gamma_mat,
    kernel_basis,
    lambda_mat,
    reconstruct,
    solve_affine,
    vec_rep,
)
from symbol3.verify import (
    ALGEBRAS,
    centralizer_identities,
    morphism_identities,
    norm_trace_identities,
    random_element,
    random_scalar,
    reconstruction_identities,
    tally,
    vector_rep_identities,
)

UNIT, GENERIC, TWISTED = ALGEBRAS


def test_lambda_of_one_is_identity():
    for algebra in ALGEBRAS:
        assert lambda_mat(algebra.one()) == MatK.identity()
        assert gamma_mat(algebra.one()) == MatK.identity()


def test_first_column_is_the_coefficient_vector():
    assert tally(vector_rep_identities(random.Random(20), 1)).passed


def test_morphism_properties():
    assert tally(morphism_identities(random.Random(21), 1)).passed


def test_vector_representation_round_trip_and_action():
    rng = random.Random(22)
    for algebra in ALGEBRAS:
        assert vec_rep(algebra.x()) == tuple(
            ONE if i == 1 else ZERO for i in range(9)
        )
        z, w = random_element(rng, algebra), random_element(rng, algebra)
        assert algebra.element(vec_rep(z)) == z
        assert lambda_mat(z).apply(vec_rep(w)) == vec_rep(z * w)
        assert gamma_mat(z).apply(vec_rep(w)) == vec_rep(w * z)


def test_matrix_arithmetic_rejects_other_operands():
    # each operator returns NotImplemented, so Python raises TypeError
    m = MatK.identity()
    for op in (operator.add, operator.sub, operator.mul):
        for left, right in ((m, 1), (1, m)):
            with pytest.raises(TypeError):
                op(left, right)


def test_det_examples():
    assert det(MatK.identity()) == ONE
    for algebra in ALGEBRAS:
        a = algebra.a
        assert det(lambda_mat(algebra.x())) == a * a * a
        rng = random.Random(23)
        z = random_element(rng, algebra)
        assert det(lambda_mat(z) - gamma_mat(z)) == ZERO


def test_det_matches_norm_cube():
    assert tally(norm_trace_identities(random.Random(24), 1)).passed


def test_kernel_basis_trivial_cases():
    assert kernel_basis(MatK.identity()) == []
    assert len(kernel_basis(MatK.zero())) == 9


def test_kernel_of_centralizer_system():
    # x commutes exactly with the span of 1, x, x^2
    assert tally(centralizer_identities()).passed


def test_solve_affine():
    rng = random.Random(25)
    v = tuple(CycQ(k) for k in range(9))
    particular, kern = solve_affine(MatK.identity(), v)
    assert particular == v and kern == []
    assert solve_affine(MatK.zero(), v) is None
    assert solve_affine(MatK.zero(), tuple([ZERO] * 9)) is not None
    for algebra in ALGEBRAS:
        z = random_element(rng, algebra)
        m = lambda_mat(z)
        rhs = m.apply(v)
        out = solve_affine(m, rhs)
        assert out is not None
        particular, kern = out
        assert m.apply(particular) == rhs
        # the kernel read from the augmented elimination is kernel_basis's
        singular = m - gamma_mat(z)
        assert solve_affine(singular, (ZERO,) * 9)[1] == kernel_basis(singular)
        assert solve_affine(singular, singular.apply(v))[1] == kernel_basis(singular)


@pytest.mark.parametrize("size", [8, 10])
def test_solve_affine_needs_nine_scalars(size):
    with pytest.raises(ValueError):
        solve_affine(MatK.identity(), (ONE,) * size)


@pytest.mark.parametrize("size", [8, 10])
def test_apply_needs_nine_scalars(size):
    with pytest.raises(ValueError):
        MatK.identity().apply((ONE,) * size)


# The determinant, Gauss-Jordan elimination and kernel reader that ran before
# det and _rref shared one forward elimination, kept verbatim as the reference
# that test_elimination_matches_gauss_jordan_reference compares against.
def reference_det(m: MatK) -> CycQ:
    """Exact determinant; pivot is the first nonzero entry in each column."""
    rows = [list(r) for r in m.rows]
    sign = 1
    out = ONE
    for col in range(9):
        pivot = None
        for i in range(col, 9):
            if rows[i][col]:
                pivot = i
                break
        if pivot is None:
            return ZERO
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            sign = -sign
        pval = rows[col][col]
        out = out * pval
        inv = pval.inverse()
        for i in range(col + 1, 9):
            factor = rows[i][col]
            if not factor:
                continue
            factor = factor * inv
            for j in range(col, 9):
                rows[i][j] = rows[i][j] - factor * rows[col][j]
    return out if sign == 1 else -out


def reference_rref(rows):
    """In-place reduced row echelon form; returns the list of pivot columns."""
    n_rows = len(rows)
    n_cols = len(rows[0])
    pivots = []
    r = 0
    for col in range(n_cols):
        pivot = None
        for i in range(r, n_rows):
            if rows[i][col]:
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][col].inverse()
        rows[r] = [v * inv for v in rows[r]]
        for i in range(n_rows):
            if i == r or not rows[i][col]:
                continue
            factor = rows[i][col]
            rows[i] = [u - factor * v for u, v in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == n_rows:
            break
    return pivots


def reference_null_space(rows, pivots) -> list:
    """Kernel basis read from a reduced row echelon form; only the first nine
    columns are read, so an augmented system yields the kernel of its matrix."""
    basis = []
    for fc in (c for c in range(9) if c not in pivots):
        vec = [ZERO] * 9
        vec[fc] = ONE
        for r, pc in enumerate(pivots):
            vec[pc] = -rows[r][fc]
        basis.append(tuple(vec))
    return basis


def reference_solve_affine(m: MatK, rhs):
    """Full solution set of m * v = rhs: (particular, kernel) or None if inconsistent."""
    rows = [list(r) + [b] for r, b in zip(m.rows, rhs)]
    pivots = reference_rref(rows)
    if 9 in pivots:
        return None
    particular = [ZERO] * 9
    for r, pc in enumerate(pivots):
        particular[pc] = rows[r][9]
    return tuple(particular), reference_null_space(rows, pivots)


def test_elimination_matches_gauss_jordan_reference():
    rng = random.Random(28)
    units = [tuple(ONE if i == k else ZERO for i in range(9)) for k in range(9)]
    matrices = [MatK.zero(), MatK.identity()]
    for algebra in ALGEBRAS:
        a, b, x = random_element(rng, algebra), random_element(rng, algebra), algebra.x()
        # equal constant terms put a zero at the first pivot, so that the
        # elimination of the invertible Lambda(A) - Gamma(A + x) swaps rows
        matrices += [lambda_mat(a) - gamma_mat(b), lambda_mat(a) - gamma_mat(a + x),
                     lambda_mat(a) - gamma_mat(a), lambda_mat(x) - gamma_mat(x)]
    for m in matrices:
        assert det(m) == reference_det(m)
        rows = [list(r) for r in m.rows]
        expected = [list(r) for r in m.rows]
        pivots = reference_rref(expected)
        assert _rref(rows) == pivots and rows == expected
        assert kernel_basis(m) == reference_null_space(expected, pivots)
        # a consistent right side, and for a singular m an inconsistent one:
        # a unit vector outside the column space
        sides = [m.apply(tuple(random_scalar(rng) for _ in range(9)))]
        if not det(m):
            sides.append(next(u for u in units if reference_solve_affine(m, u) is None))
        for rhs in sides:
            rows = [list(r) + [c] for r, c in zip(m.rows, rhs)]
            expected = [row[:] for row in rows]
            assert _rref(rows) == reference_rref(expected) and rows == expected
            assert solve_affine(m, rhs) == reference_solve_affine(m, rhs)


def test_reconstruct():
    rng = random.Random(26)
    for algebra in ALGEBRAS:
        one = algebra.one()
        assert reconstruct(one) == one.scale(3)
        assert reconstruct(algebra.x()) == algebra.x().scale(3)
        z = random_element(rng, algebra)
        assert reconstruct(z) == z.scale(3)


def test_rejected_reconstruction_is_counted(monkeypatch):
    # the row-weighted frame variant makes reconstruct raise away from a = b = 1
    monkeypatch.setattr("symbol3.representations.reconstruction_frames",
                        transcribed_reconstruction_frames)
    assert tally(reconstruction_identities(random.Random(105), 1)).failures > 0


def test_reconstruction_frame_variant_only_works_at_unit_parameters():
    rng = random.Random(27)
    z = random_element(rng, UNIT)
    (m9, n9), (m10, n10) = transcribed_reconstruction_frames(UNIT)
    assert _mixed_product(m9, lambda_mat(z), n9, UNIT) == z.scale(3)
    assert _mixed_product(m10, gamma_mat(z).transpose(), n10, UNIT) == z.scale(3)
    w = random_element(rng, GENERIC)
    (m9, n9), (m10, n10) = transcribed_reconstruction_frames(GENERIC)
    # the transposed-right route is correct at any parameters ...
    assert _mixed_product(m10, gamma_mat(w).transpose(), n10, GENERIC) == w.scale(3)
    # ... the row-weighted left route is not (e.g. it returns (3/a) x for x)
    x = GENERIC.x()
    got = _mixed_product(m9, lambda_mat(x), n9, GENERIC)
    assert got == x.scale(CycQ(3) * GENERIC.a.inverse())
    assert got != x.scale(3)


def test_fixture_tables_match_outside_known_cells():
    for name, (mismatches, known, ok) in fixture_reports().items():
        assert ok, f"{name}: unexpected mismatch set {mismatches}"


def test_fixture_audit_reads_the_generated_matrices(monkeypatch):
    # one gamma_mat cell outside the known set is altered
    def damaged_gamma(z):
        rows = [list(row) for row in gamma_mat(z).rows]
        rows[0][0] = rows[0][0] + ONE
        return MatK(rows)

    monkeypatch.setattr(fixtures, "gamma_mat", damaged_gamma)
    mismatches, known, ok = fixture_reports()["gamma_general"]
    assert not ok and (0, 0) in {(r, c) for r, c, _, _ in mismatches}


def test_fixture_audit_reports_a_stray_or_missing_coefficient(monkeypatch):
    # one grammar parses every table, so a coefficient token that lost its
    # 'c<k>', or a block token that gained one, must show up by value
    missing = [list(row) for row in fixtures.LAMBDA_GENERAL]
    missing[0][0] = fixtures._parse_cell("1")  # transcribed as c0
    stray = [list(row) for row in fixtures.BLOCK_X]
    stray[1][0] = fixtures._parse_cell("c1")  # transcribed as 1
    monkeypatch.setattr(fixtures, "LAMBDA_GENERAL", missing)
    monkeypatch.setattr(fixtures, "BLOCK_X", stray)
    reports = fixture_reports()
    for name, cell in (("lambda_general", (0, 0)), ("block_x", (1, 0))):
        mismatches, known, ok = reports[name]
        assert not ok and cell in {(r, c) for r, c, _, _ in mismatches} - known, name


def test_audit_point_separates_cell_values():
    # a cell is (coefficient index or None, w-power, a-power, b-power)
    shapes = list(itertools.product(range(3), (0, 1), (0, 1)))
    coefficient_values = {
        fixtures._cell_value((i, *shape), fixtures.AUDIT_POINT) for i in range(9) for shape in shapes
    }
    block_values = {fixtures._cell_value((None, *shape), fixtures.AUDIT_POINT) for shape in shapes}
    assert len(coefficient_values) == 108 and ZERO not in coefficient_values
    assert len(block_values) == 12 and ZERO not in block_values
    # at a = b = 1 the a/b powers are void, and the 27 remaining values are distinct
    unit_values = {fixtures._cell_value((i, e, 0, 0), fixtures.AUDIT_UNIT) for i in range(9) for e in range(3)}
    assert len(unit_values) == 27
