"""Acceptance battery: every criterion is exact (tolerance zero) and runs at
desk scale.  One pass/fail line is printed per criterion."""

import json
import random
import subprocess
import sys

from symbol3.cyclotomic import CycQ
from symbol3.fibonacci import (
    closed_form_norm,
    fib_element,
    fib_identity_suite,
    invertibility_scan,
    run_lemma_suite,
)
from symbol3.representations import det, gamma_mat, lambda_mat
from symbol3.solvers import (
    Verdict,
    solve_commute,
    solve_sylvester,
    structured_instance_search,
)
from symbol3.verify import (
    ALGEBRAS,
    char_poly_failures,
    morphism_failures,
    norm_trace_failures,
    random_element,
    reconstruction_failures,
    twist_unit_failures,
)

UNIT = ALGEBRAS[0]


def report(number: int, title: str, passed: bool):
    print(f"criterion {number:2d} [{'PASS' if passed else 'FAIL'}] {title}")
    assert passed, f"criterion {number} failed: {title}"


def test_criterion_1_morphism_battery():
    ok = morphism_failures(random.Random(101), 100) == 0
    report(1, "morphism battery (100 pairs x 3 parameter choices)", ok)


def test_criterion_2_norm_trace_coherence():
    ok = norm_trace_failures(random.Random(101), 100) == 0
    report(2, "norm/trace coherence on the same samples", ok)


def test_criterion_3_adjoint_battery():
    ok = char_poly_failures(random.Random(103), 100) == 0
    report(3, "adjoint / characteristic-polynomial battery (100 samples)", ok)


def test_criterion_4_twist_invariance():
    ok = twist_unit_failures(random.Random(104), 100) == 0
    report(4, "twist invariance of both determinants at a=b=1 (100 samples)", ok)


def test_criterion_5_reconstruction():
    ok = reconstruction_failures(random.Random(105), 50) == 0
    report(5, "reconstruction recovers 3z on both routes (50 x 3 samples)", ok)


def test_criterion_6_solvers():
    rng = random.Random(106)
    ok = True
    # (i) the centralizer system is always singular
    for _ in range(100):
        a = random_element(rng, UNIT)
        ok = ok and det(lambda_mat(a) - gamma_mat(a)) == CycQ(0)
    # (ii) construct-then-solve round trips whenever the system is regular
    trips = 0
    while trips < 12:
        algebra = ALGEBRAS[trips % 3]
        a, b = random_element(rng, algebra), random_element(rng, algebra)
        if not det(lambda_mat(a) - gamma_mat(b)):
            continue
        w = random_element(rng, algebra)
        sol = solve_sylvester(a, b, a * w - w * b)
        ok = ok and sol.verdict == Verdict.UNIQUE and sol.particular == w
        trips += 1
    # (iii) the centralizer of x is exactly span(1, x, x^2)
    for algebra in ALGEBRAS:
        sol = solve_commute(algebra.x())
        ok = ok and len(sol.kernel) == 3
        ok = ok and all(not k.coeffs[i] for k in sol.kernel for i in range(3, 9))
    # (iv) structured instances found by the bounded search verify
    res = structured_instance_search(UNIT, bound=2)
    ok = ok and bool(res["verified"])
    for a, b, x1, x2 in res["verified"]:
        z = x1.scale(CycQ(rng.randint(-3, 3))) + x2.scale(CycQ(rng.randint(-3, 3)))
        ok = ok and a * z == z * b
        pivot = next(i for i, c in enumerate(x1.coeffs) if c)
        ratio = x2.coeffs[pivot] / x1.coeffs[pivot]
        ok = ok and x2 != x1.scale(ratio)
    report(6, "equation solvers (singularity, round trip, centralizer, structured)", ok)


def test_criterion_7_sequence_identities():
    rows = fib_identity_suite(100)
    ok = len(rows) == 7 and all(passed for _, passed in rows)
    report(7, "the seven sequence identities hold for 1 <= n <= 100", ok)


def test_criterion_8_norm_closed_form_and_lemmas():
    ok = all(closed_form_norm(n) == fib_element(n).reduced_norm() for n in range(31))
    rows = run_lemma_suite(30)
    repaired = all(r["candidate_ok"] or r["verified_ok"] for r in rows)
    failing = sorted(r["name"] for r in rows if not r["candidate_ok"])
    ok = ok and repaired
    report(8, f"closed-form norm (n<=30) + derivation audit ({len(failing)} candidates corrected)", ok)


def test_criterion_9_invertibility():
    rep = invertibility_scan(100)
    ok = rep["all_invertible"] and rep["omega_free_block_positive"]
    one = UNIT.one()
    for n in (0, 1, 50, 100):
        fe = fib_element(n)
        ok = ok and bool(fe.reduced_norm()) and fe * fe.inverse() == one
    report(9, "all Fibonacci elements invertible for n <= 100; positivity holds", ok)


def test_criterion_10_cli_determinism():
    args = [
        sys.executable, "-m", "symbol3.cli", "verify",
        "--suite", "all", "--nmax", "30", "--samples", "50", "--seed", "7",
    ]
    first = subprocess.run(args, capture_output=True)
    second = subprocess.run(args, capture_output=True)
    ok = first.returncode == 0 and second.returncode == 0
    ok = ok and first.stdout == second.stdout and len(first.stdout) > 0
    payload = json.loads(first.stdout)
    ok = ok and all(c["pass"] for c in payload["checks"])
    report(10, "verify --suite all --nmax 30 --samples 50 --seed 7: byte-identical, exit 0", ok)
