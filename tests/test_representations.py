import random

from symbol3.cyclotomic import CycQ, ONE, ZERO
from symbol3.fixtures import fixture_reports, transcribed_reconstruction_frames
from symbol3.representations import (
    MatK,
    _mixed_product,
    det,
    element_from_vec,
    gamma_mat,
    kernel_basis,
    lambda_mat,
    reconstruct,
    solve_affine,
    vec_rep,
)
from symbol3.verify import (
    ALGEBRAS,
    morphism_failures,
    norm_trace_failures,
    random_element,
    reconstruction_failures,
    vector_rep_failures,
)

UNIT, GENERIC, TWISTED = ALGEBRAS


def test_lambda_of_one_is_identity():
    for algebra in ALGEBRAS:
        assert lambda_mat(algebra.one()) == MatK.identity()
        assert gamma_mat(algebra.one()) == MatK.identity()


def test_first_column_is_the_coefficient_vector():
    assert vector_rep_failures(random.Random(20), 1) == 0


def test_morphism_properties():
    assert morphism_failures(random.Random(21), 1) == 0


def test_vector_representation_round_trip_and_action():
    rng = random.Random(22)
    for algebra in ALGEBRAS:
        assert vec_rep(algebra.x()) == tuple(
            ONE if i == 1 else ZERO for i in range(9)
        )
        z, w = random_element(rng, algebra), random_element(rng, algebra)
        assert element_from_vec(vec_rep(z), algebra) == z
        assert lambda_mat(z).apply(vec_rep(w)) == vec_rep(z * w)
        assert gamma_mat(z).apply(vec_rep(w)) == vec_rep(w * z)


def test_det_examples():
    assert det(MatK.identity()) == ONE
    for algebra in ALGEBRAS:
        a = algebra.a
        assert det(lambda_mat(algebra.x())) == a * a * a
        rng = random.Random(23)
        z = random_element(rng, algebra)
        assert det(lambda_mat(z) - gamma_mat(z)) == ZERO


def test_det_matches_norm_cube():
    assert norm_trace_failures(random.Random(24), 1) == 0


def test_kernel_basis_trivial_cases():
    assert kernel_basis(MatK.identity()) == []
    assert len(kernel_basis(MatK.zero())) == 9


def test_kernel_of_centralizer_system():
    # brute-force oracle: x commutes exactly with the span of 1, x, x^2
    for algebra in ALGEBRAS:
        x = algebra.x()
        basis = kernel_basis(lambda_mat(x) - gamma_mat(x))
        assert len(basis) == 3
        for vec in basis:
            z = element_from_vec(vec, algebra)
            assert x * z == z * x
            assert all(not z.coeffs[i] for i in range(3, 9))


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
    assert reconstruction_failures(random.Random(105), 1) > 0


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
