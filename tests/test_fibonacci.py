import random
import tracemalloc

import pytest

from symbol3 import fibonacci
from symbol3.algebra import SymbolAlgebra
from symbol3.cyclotomic import CycQ, OMEGA
from symbol3.fibonacci import (
    BLOCKS,
    LEMMAS,
    MID_TEN,
    UNIT_ALGEBRA,
    UnsupportedParams,
    _omega_pair,
    block_sum,
    closed_form_norm,
    closed_form_norm_candidate,
    fib,
    fib_element,
    fib_identity_suite,
    general_a_norm_candidate,
    generalized_element,
    horadam,
    invertibility_scan,
    omega_free_block_candidate,
    run_lemma_suite,
)
from symbol3.representations import det, lambda_mat
from symbol3.verify import (
    Tally,
    cube_sum_identities,
    fib_element_identities,
    general_a_identities,
    sequence_identities,
    tally,
)


def test_fib_values():
    assert [fib(n) for n in range(9)] == [0, 1, 1, 2, 3, 5, 8, 13, 21]
    assert fib(10) == 55
    for n in range(100):
        assert fib(n + 2) == fib(n + 1) + fib(n)
    with pytest.raises(ValueError):
        fib(-1)


def test_fib_memory_is_not_quadratic():
    fib.cache_clear()
    tracemalloc.start()
    try:
        value = fib(30000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20
    assert value == horadam(30000, 0, 1)


def test_fib_cache_is_bounded():
    fib.cache_clear()
    fib_identity_suite(200)
    run_lemma_suite(200)
    misses = fib.cache_info().misses
    fib_identity_suite(200)
    run_lemma_suite(200)
    assert fib.cache_info().misses == misses  # the second pass always hits

    fib.cache_clear()
    tracemalloc.start()
    try:
        for n in range(20001):
            fib(n)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained < 2 * 2**20


def test_horadam():
    for n in range(100):
        assert horadam(n, 0, 1) == fib(n)
    rng = random.Random(40)
    for _ in range(25):
        p, q = rng.randint(-20, 20), rng.randint(-20, 20)
        n = rng.randint(0, 50)
        assert horadam(n + 1, p, q) == p * fib(n) + q * fib(n + 1)
        p2, q2 = rng.randint(-20, 20), rng.randint(-20, 20)
        assert horadam(n, p, q) + horadam(n, p2, q2) == horadam(n, p + p2, q + q2)


def test_fib_element_layout():
    f0 = fib_element(0)
    expected = {
        (0, 0): 0, (1, 0): 1, (2, 0): 1,
        (0, 1): 2, (1, 1): 3, (2, 1): 5,
        (0, 2): 8, (1, 2): 13, (2, 2): 21,
    }
    for exponents, value in expected.items():
        assert f0.coeff(exponents) == CycQ(value)


def test_fib_element_recurrence():
    for n in range(0, 40, 7):
        assert fib_element(n) + fib_element(n + 1) == fib_element(n + 2)


def test_generalized_element():
    assert tally(fib_element_identities(random.Random(41), 10, 30)).passed
    lucas_like = generalized_element(0, 1, 1)
    by_exponent = [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1), (0, 2), (1, 2), (2, 2)]
    values = [lucas_like.coeff(e) for e in by_exponent]
    assert values == [CycQ(v) for v in (1, 1, 2, 3, 5, 8, 13, 21, 34)]


def test_identity_suite():
    rows = fib_identity_suite(100)
    assert len(rows) == 7 * 100 and all(ok for _, _, ok in rows)
    assert len({name for name, _, _ in rows}) == 7


def test_sequence_identities_count_each_identity_and_n():
    # seven classical identities per n, plus 20 draws of three Horadam relations
    for nmax in (1, 30, 100):
        assert tally(sequence_identities(random.Random(1), nmax)) == Tally(7 * nmax + 60, 0)
    # spot instances
    assert fib(1) ** 2 - fib(0) * fib(2) == 1
    assert fib(6) == fib(3) ** 2 + 2 * fib(3) * fib(2)


def test_closed_form_norm_frozen_values():
    # n = 0 evaluated independently by hand through the explicit norm form:
    # 9072 + 2108 - 6642 + 520 + 198 = 5256, with vanishing w-part
    assert closed_form_norm(0) == CycQ(5256)
    assert fib_element(0).reduced_norm() == CycQ(5256)
    d = det(lambda_mat(fib_element(0)))
    assert d == CycQ(5256) ** 3


def test_closed_form_norm_matches_oracle():
    for n in range(31):
        assert closed_form_norm(n) == fib_element(n).reduced_norm()


def test_closed_form_norm_rejects_other_params():
    with pytest.raises(UnsupportedParams):
        closed_form_norm(1, SymbolAlgebra(CycQ(2), CycQ(3)))
    with pytest.raises(UnsupportedParams):
        invertibility_scan(3, SymbolAlgebra(CycQ(2), CycQ(1)))


def test_candidate_closed_form_disagrees():
    # frozen evaluation of the candidate constants at n = 0
    assert closed_form_norm_candidate(0) == CycQ(3804, -14866)
    assert closed_form_norm_candidate(0) != closed_form_norm(0)


def reference_closed_form_norm_candidate(n: int) -> CycQ:
    """Candidate constant set for eta(F_n); retained for the audit suite only.

    Disagrees with the oracle (already at n = 0) and carries a spurious
    w-block; see the norm-audit table in the README.
    """
    return (
        fib(n + 2) * _omega_pair(2 * n, 30766, 27923, 26822, 27753)
        + fib(n + 3) * _omega_pair(2 * n, 4368, 1453, 19120, 20203)
        - fib(n) ** 2 * _omega_pair(n + 3, 45013, 22563, 33835, 27659)
        + (-1) ** (n + 1) * _omega_pair(n + 3, 1472, 26448, 12982, 24138)
    )


def test_candidate_closed_form_is_the_sum_of_its_lemma_sides():
    # the earlier 16-constant form, kept word for word above
    for n in range(201):
        assert closed_form_norm_candidate(n) == reference_closed_form_norm_candidate(n)


def test_general_a_norm():
    assert tally(general_a_identities((CycQ(2), CycQ(5), OMEGA, CycQ(1) + OMEGA), 11)).passed
    # the candidate variant does not survive the same comparison
    algebra = SymbolAlgebra(CycQ(1), CycQ(1))
    assert any(
        general_a_norm_candidate(n, CycQ(1)) != fib_element(n, algebra).reduced_norm()
        for n in range(5)
    )


def test_ten_block_decomposition_is_the_norm():
    # eta(F_n) over (a, 1) = a^2 E_x2 + a (E_mid ten - 3 sum f^3) + E_step3
    assert set(MID_TEN) == set(BLOCKS) - {"x2", "step3"}
    for a in (CycQ(1), CycQ(2), CycQ(3), OMEGA, CycQ(1) + OMEGA):
        algebra = SymbolAlgebra(a, CycQ(1))
        for n in range(12):
            cubes = sum(fib(n + k) ** 3 for k in range(9))
            value = (
                a * a * block_sum(n, ["x2"])
                + a * (block_sum(n, MID_TEN) - 3 * cubes)
                + block_sum(n, ["step3"])
            )
            assert value == fib_element(n, algebra).reduced_norm(), (a, n)


def test_lemma_suite_statuses_are_frozen():
    rows = run_lemma_suite(30)
    passing_candidates = {r["name"] for r in rows if r["candidate_ok"]}
    assert passing_candidates == {"run_block_0", "run_block_3", "omega2_block_237"}
    for r in rows:
        assert r["candidate_ok"] or r["verified_ok"], r


@pytest.mark.parametrize("nmax", [0, -1])
def test_lemma_suite_rejects_an_empty_range(nmax):
    with pytest.raises(ValueError):
        run_lemma_suite(nmax)


def test_every_failing_lemma_has_a_corrected_form():
    rows = run_lemma_suite(10)
    assert [r["name"] for r in rows] == [lemma.name for lemma in LEMMAS]
    for lemma, row in zip(LEMMAS, rows):
        if not row["candidate_ok"]:
            assert lemma.verified is not None
            assert row["verified_ok"]


def reference_lemma_suite(nmax: int = 30) -> list:
    """run_lemma_suite as it was before the block table: every lemma evaluates
    its own blocks at every n."""
    rows = []
    for lemma in LEMMAS:
        candidate_ok = True
        verified_ok = None if lemma.verified is None else True
        for n in range(1, nmax + 1):
            lhs = block_sum(n, lemma.blocks)
            if candidate_ok and lhs != lemma.candidate(n):
                candidate_ok = False
            if lemma.verified is not None and verified_ok and lhs != lemma.verified(n):
                verified_ok = False
            if not candidate_ok and (verified_ok is None or not verified_ok):
                break
        rows.append(
            {"name": lemma.name, "candidate_ok": candidate_ok, "verified_ok": verified_ok}
        )
    return rows


def test_lemma_suite_matches_the_reference():
    for nmax in (1, 2, 30):
        assert run_lemma_suite(nmax) == reference_lemma_suite(nmax)


def _off_at(side, bad_n):
    return lambda n: side(n) + (1 if n == bad_n else 0)


def test_lemma_suite_matches_the_reference_on_damaged_sides(monkeypatch):
    # cube_block_x2_product: the candidate fails at once, the verified side
    # only at n = 17; run_block_0: the candidate fails only at n = 30
    damaged = {
        "cube_block_x2_product": lambda lemma: lemma._replace(
            verified=_off_at(lemma.verified, 17)),
        "run_block_0": lambda lemma: lemma._replace(candidate=_off_at(lemma.candidate, 30)),
    }
    lemmas = tuple(damaged.get(lemma.name, lambda x: x)(lemma) for lemma in LEMMAS)
    monkeypatch.setattr(fibonacci, "LEMMAS", lemmas)
    monkeypatch.setitem(globals(), "LEMMAS", lemmas)
    for nmax in (1, 2, 16, 17, 29, 30):
        rows = run_lemma_suite(nmax)
        assert rows == reference_lemma_suite(nmax)
        by_name = {row["name"]: row for row in rows}
        assert by_name["cube_block_x2_product"]["verified_ok"] == (nmax < 17)
        assert by_name["run_block_0"]["candidate_ok"] == (nmax < 30)


@pytest.mark.parametrize("nmax", [-1, -5])
def test_invertibility_scan_rejects_an_empty_range(nmax):
    with pytest.raises(ValueError):
        invertibility_scan(nmax)


def test_invertibility_scan():
    report = invertibility_scan(100)
    assert report["all_invertible"]
    assert report["omega_free_block_positive"]
    assert len(report["rows"]) == 101
    assert report["rows"][0]["eta"] == "5256"
    for row in report["rows"]:
        assert row["invertible"]
        assert CycQ.parse(row["eta"])


def test_omega_free_block_positivity_values():
    assert omega_free_block_candidate(0) == 3804
    for n in range(101):
        assert omega_free_block_candidate(n) > 0


def test_cube_sum_factorization():
    assert tally(cube_sum_identities(random.Random(42), 50)).passed


def test_fib_inverse_round_trip():
    one = UNIT_ALGEBRA.one()
    for n in (0, 1, 7, 25):
        fe = fib_element(n)
        assert fe * fe.inverse() == one


def test_generalized_elements_form_an_integer_module():
    # integer combinations stay inside the family:
    # alpha * H^(p,q) + beta * H^(p',q') = H^(alpha p, alpha q) + H^(beta p', beta q')
    rng = random.Random(44)
    for _ in range(10):
        n = rng.randint(0, 20)
        p, q, alpha = rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(-5, 5)
        assert generalized_element(n, p, q).scale(CycQ(alpha)) == generalized_element(
            n, alpha * p, alpha * q
        )
