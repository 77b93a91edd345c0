import itertools
import random

import pytest

from symbol3.algebra import ParamsMismatch, SymbolAlgebra
from symbol3.cyclotomic import CycQ, ZERO
from symbol3.representations import det, gamma_mat, lambda_mat, vec_rep
from symbol3.solvers import (
    HypothesisViolated,
    VerificationFailed,
    Verdict,
    solve_commute,
    solve_commutator,
    solve_intertwine,
    solve_sylvester,
    structured_instance_search,
    structured_solutions,
)
from symbol3.verify import (
    ALGEBRAS,
    commutator_identities,
    commute_identities,
    intertwine_identities,
    random_element,
    sylvester_identities,
    tally,
)

UNIT, GENERIC, _ = ALGEBRAS


def test_commute_with_central_element():
    sol = solve_commute(UNIT.one())
    assert sol.verdict == Verdict.ALL_OF_SPACE
    assert len(sol.kernel) == 9


def test_commute_solver_certificate():
    # M_k = Lambda(b_k) - Gamma(b_k) maps vec(Z) to vec(b_k Z - Z b_k), and
    # M(A) = Lambda(A) - Gamma(A) is sum_k c_k M_k for A = sum_k c_k b_k.  So
    # M_k vec(1) = 0 for the 9 basis monomials puts vec(1) in ker M(A), and
    # det M(A) = 0, for every A of the algebra.  M(A) vec(A) is
    # sum_{j <= k} c_j c_k (M_j vec(b_k) + M_k vec(b_j)) up to the factor 2 at
    # j = k, so the 45 pairs below put vec(A) in the kernel too: the
    # commute_solver row holds for every A of these algebras, not only on its
    # samples.
    zero = (ZERO,) * 9
    for algebra in ALGEBRAS + (SymbolAlgebra(CycQ(2), CycQ(5)),):
        basis = [algebra.monomial(k) for k in range(9)]
        ms = [lambda_mat(b) - gamma_mat(b) for b in basis]
        one = vec_rep(algebra.one())
        assert all(m.apply(one) == zero for m in ms)
        pairs = list(itertools.combinations_with_replacement(range(9), 2))
        assert len(pairs) == 45
        for j, k in pairs:
            left, right = ms[j].apply(vec_rep(basis[k])), ms[k].apply(vec_rep(basis[j]))
            assert tuple(u + v for u, v in zip(left, right)) == zero


def test_commute_with_x():
    for algebra in ALGEBRAS:
        sol = solve_commute(algebra.x())
        assert sol.verdict == Verdict.AFFINE_FAMILY
        assert len(sol.kernel) == 3
        for k in sol.kernel:
            assert algebra.x() * k == k * algebra.x()
        assert sol.contains(algebra.one())
        assert sol.contains(algebra.x())
        assert not sol.contains(algebra.y())


def test_commute_kernel_contains_one_and_a():
    assert tally(commute_identities(random.Random(30), 1)).passed


def test_intertwine_reduces_to_commute():
    a = random_element(random.Random(31), GENERIC)
    assert solve_intertwine(a, a).kernel == solve_commute(a).kernel


def test_intertwine_distinct_norms_has_no_invertible_solution():
    # eta(x) = a != b = eta(y), so no kernel element may be invertible
    sol = solve_intertwine(GENERIC.x(), GENERIC.y())
    for k in sol.kernel:
        assert not k.reduced_norm()
    assert not any("VIOLATED" in note for note in sol.notes)


def test_intertwine_conjugate_contains_w():
    assert tally(intertwine_identities(random.Random(32), 1)).passed


def test_intertwine_params_mismatch():
    with pytest.raises(ParamsMismatch):
        solve_intertwine(UNIT.one(), GENERIC.one())


def test_commutator_zero_rhs_reduces_to_commute():
    x = UNIT.x()
    sol = solve_commutator(x, UNIT.zero())
    assert sol.verdict == Verdict.AFFINE_FAMILY
    assert not sol.particular
    assert len(sol.kernel) == 3


def test_commutator_no_solution_for_identity_rhs():
    for algebra in ALGEBRAS:
        sol = solve_commutator(algebra.x(), algebra.one())
        assert sol.verdict == Verdict.NO_SOLUTION
        assert sol.particular is None
        assert not sol.contains(algebra.zero())
        assert not sol.contains(algebra.x())


def test_commutator_constructed_rhs():
    assert tally(commutator_identities(random.Random(33), 1)).passed


def test_sylvester_trivial_unique():
    one = UNIT.one()
    sol = solve_sylvester(one.scale(CycQ(2)), one, one)
    assert sol.verdict == Verdict.UNIQUE
    assert sol.particular == one


def test_sylvester_degenerates_to_commutator():
    rng = random.Random(34)
    a = random_element(rng, UNIT)
    c = random_element(rng, UNIT)
    assert solve_sylvester(a, a, c).verdict == solve_commutator(a, c).verdict


def test_sylvester_round_trip():
    assert tally(sylvester_identities(random.Random(35), 1)).passed


def test_sylvester_unique_iff_det_nonzero():
    rng = random.Random(36)
    for algebra in ALGEBRAS:
        a, b = random_element(rng, algebra), random_element(rng, algebra)
        c = random_element(rng, algebra)
        sol = solve_sylvester(a, b, c)
        if det(lambda_mat(a) - gamma_mat(b)):
            assert sol.verdict == Verdict.UNIQUE
        else:
            assert sol.verdict != Verdict.UNIQUE


def test_structured_hypothesis_violations_are_named():
    x, y = UNIT.x(), UNIT.y()
    with pytest.raises(HypothesisViolated) as err:
        structured_solutions(UNIT.one(), y)
    assert err.value.hypothesis == "A - a0 is nonzero"
    with pytest.raises(HypothesisViolated) as err:
        structured_solutions(x + UNIT.one(), y)
    assert err.value.hypothesis == "equal scalar parts a0 = b0"
    with pytest.raises(HypothesisViolated) as err:
        structured_solutions(x, -x)
    assert err.value.hypothesis == "A0 != -B0"
    with pytest.raises(HypothesisViolated) as err:
        structured_solutions(x, y)
    assert err.value.hypothesis == "eta(A0) = 0"


def test_structured_solutions_on_committed_instance():
    # frozen from the deterministic bounded search (first verified pair)
    a0 = UNIT.element([0, -2, 2, 0, 0, 0, 0, 0, 0])
    x1, x2 = structured_solutions(a0, a0)
    assert x1 == a0.scale(CycQ(2))
    assert x2 == UNIT.scalar(CycQ(12)) - a0 * a0
    rng = random.Random(37)
    for _ in range(5):
        lam1, lam2 = CycQ(rng.randint(-4, 4)), CycQ(rng.randint(-4, 4))
        z = x1.scale(lam1) + x2.scale(lam2)
        assert a0 * z == z * a0


def test_structured_solutions_detects_insufficient_hypotheses():
    # hypothesis-satisfying pair on which the construction provably fails
    a0 = UNIT.element([0, 1, -1, 0, 0, 0, 0, 0, 0])
    b0 = UNIT.element([0, 0, 0, 1, -1, 0, 0, 0, 0])
    assert not a0.reduced_norm() and not b0.reduced_norm()
    assert a0.pi_form() == b0.pi_form() == CycQ(3)
    with pytest.raises(VerificationFailed):
        structured_solutions(a0, b0)


def test_structured_search_results():
    res = structured_instance_search(UNIT, bound=2)
    assert len(res["verified"]) == 16
    assert len(res["defective"]) == 16
    for a, b, x1, x2 in res["verified"][:4]:
        assert a * x1 == x1 * b and a * x2 == x2 * b
        # the solution space is larger than the two-dimensional span claimed
        # by the structured form; report, never hide
        assert len(solve_intertwine(a, b).kernel) >= 3


def test_solution_set_unique_invariant():
    one = UNIT.one()
    sol = solve_sylvester(one.scale(CycQ(2)), one, one)
    assert sol.verdict == Verdict.UNIQUE and sol.kernel == () and sol.particular is not None


def test_commutator_trace_obstruction():
    # independent route to the unsolvable case: every commutator AZ - ZA has
    # reduced trace zero, so any C with tau(C) != 0 is out of reach
    rng = random.Random(38)
    for algebra in ALGEBRAS:
        a, z = random_element(rng, algebra), random_element(rng, algebra)
        assert (a * z - z * a).reduced_trace() == CycQ(0)
        c = random_element(rng, algebra)
        if c.reduced_trace():
            assert solve_commutator(a, c).verdict == Verdict.NO_SOLUTION


def test_sylvester_scales_linearly_with_rhs():
    rng = random.Random(39)
    for algebra in ALGEBRAS:
        while True:
            a, b = random_element(rng, algebra), random_element(rng, algebra)
            if det(lambda_mat(a) - gamma_mat(b)):
                break
        c = random_element(rng, algebra)
        z1 = solve_sylvester(a, b, c).particular
        z2 = solve_sylvester(a, b, c.scale(CycQ(5))).particular
        assert z2 == z1.scale(CycQ(5))


def test_intertwine_kernel_elements_satisfy_equation():
    rng = random.Random(43)
    for algebra in ALGEBRAS:
        a, b = random_element(rng, algebra), random_element(rng, algebra)
        sol = solve_intertwine(a, b)
        for k in sol.kernel:
            assert a * k == k * b
