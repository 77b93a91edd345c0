"""One-shot verification battery: every identity the library relies on, run
over seeded random samples at three parameter choices, with a machine-readable
pass/fail report.  Identical (suite, nmax, samples, seed) inputs produce
byte-identical reports."""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import islice
from fractions import Fraction

from .algebra import SymbolAlgebra, SymbolElement
from .cyclotomic import CycQ, OMEGA, ONE, ZERO
from .fibonacci import (
    closed_form_norm,
    closed_form_norm_candidate,
    cube_sum,
    fib,
    fib_element,
    fib_identity_suite,
    general_a_norm,
    generalized_element,
    horadam,
    invertibility_scan,
    run_lemma_suite,
)
from .fixtures import fixture_reports, transcribed_reconstruction_frames
from .representations import (
    IdentityViolation,
    det,
    gamma_mat,
    lambda_mat,
    reconstruct,
    _mixed_product,
    vec_rep,
)
from .solvers import (
    VerificationFailed,
    Verdict,
    solve_commute,
    solve_commutator,
    solve_intertwine,
    solve_sylvester,
    structured_instance_search,
    structured_solutions,
)

PARAM_CHOICES = (
    (CycQ(1), CycQ(1)),
    (CycQ(2), CycQ(3)),
    (OMEGA, ONE + OMEGA),
)
ALGEBRAS = tuple(SymbolAlgebra(a, b) for a, b in PARAM_CHOICES)


def random_scalar(rng: random.Random) -> CycQ:
    """Small rational box: numerators in [-3, 3], denominators in {1, 2, 3}."""
    return CycQ(
        Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3))),
        Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3))),
    )


def random_element(rng: random.Random, algebra: SymbolAlgebra) -> SymbolElement:
    return algebra.element([random_scalar(rng) for _ in range(9)])


def sample_pairs(rng: random.Random, count: int):
    """count pairs (z, w) of random elements per algebra in ALGEBRAS."""
    for algebra in ALGEBRAS:
        for _ in range(count):
            yield random_element(rng, algebra), random_element(rng, algebra)


# Sampled identity checks shared by the battery and the acceptance tests; each
# draws from rng and returns its number of failed identities.
def morphism_failures(rng: random.Random, count: int) -> int:
    bad = 0
    for z, w in sample_pairs(rng, count):
        lam_z, lam_w = lambda_mat(z), lambda_mat(w)
        gam_z, gam_w = gamma_mat(z), gamma_mat(w)
        prod = z * w
        bad += lambda_mat(prod) != lam_z * lam_w
        bad += gamma_mat(prod) != gam_w * gam_z
        bad += lam_z * gam_w != gam_w * lam_z
    return bad


def norm_trace_failures(rng: random.Random, count: int) -> int:
    bad = 0
    for z, w in sample_pairs(rng, count):
        eta = z.reduced_norm()
        lam = lambda_mat(z)
        d = det(lam)
        bad += d != eta * eta * eta
        bad += det(gamma_mat(z)) != d
        bad += lam.trace() != 9 * z.coeffs[0]
        bad += z.reduced_trace() * 3 != lam.trace()
        bad += (z * w).reduced_norm() != eta * w.reduced_norm()
    return bad


def char_poly_failures(rng: random.Random, count: int) -> int:
    bad = 0
    for z, w in sample_pairs(rng, count):
        tau, pi, eta = z.char_poly()
        zs = z.adjoint()
        algebra = z.algebra
        bad += z * zs != algebra.scalar(eta) or zs * z != algebra.scalar(eta)
        bad += zs.adjoint() != z.scale(eta)
        bad += (z * w).adjoint() != w.adjoint() * z.adjoint()
        bad += pi != zs.reduced_trace()
        bad += pi + pi != tau * tau - (z * z).reduced_trace()
        bad += (z * w).pi_form() != (w * z).pi_form()
        bad += (z * w).reduced_trace() != (w * z).reduced_trace()
        bad += bool(z * z * z - (z * z).scale(tau) + z.scale(pi) - algebra.scalar(eta))
    return bad


def twist_unit_failures(rng: random.Random, count: int) -> int:
    """Twist invariance of both determinants at a = b = 1 (ALGEBRAS[0])."""
    bad = 0
    for _ in range(count):
        z = random_element(rng, ALGEBRAS[0])
        d = det(lambda_mat(z))
        for k in (1, 2):
            zt = z.twist(k)
            bad += det(lambda_mat(zt)) != d or det(gamma_mat(zt)) != d
    return bad


def reconstruction_failures(rng: random.Random, count: int) -> int:
    """Both frame routes recover 3z; a route reconstruct rejects is a failure."""
    bad = 0
    for algebra in ALGEBRAS:
        for _ in range(count):
            z = random_element(rng, algebra)
            try:
                bad += reconstruct(z) != z.scale(3)
            except IdentityViolation:
                bad += 1
    return bad


def vector_rep_failures(rng: random.Random, count: int) -> int:
    bad = 0
    e1 = (ONE,) + (ZERO,) * 8
    for z, w in sample_pairs(rng, count):
        lam, gam = lambda_mat(z), gamma_mat(z)
        bad += lam.apply(e1) != vec_rep(z) or gam.apply(e1) != vec_rep(z)
        bad += lam.apply(vec_rep(w)) != vec_rep(z * w)
        bad += gam.apply(vec_rep(w)) != vec_rep(w * z)
    return bad


def commute_failures(rng: random.Random, count: int) -> int:
    bad = 0
    for algebra in ALGEBRAS:
        for _ in range(count):
            a = random_element(rng, algebra)
            bad += bool(det(lambda_mat(a) - gamma_mat(a)))
            sol = solve_commute(a)
            bad += sum(not sol.contains(target) for target in {algebra.one(), a})
            bad += sum(a * k != k * a for k in sol.kernel[:2])
    return bad


def centralizer_failures() -> int:
    bad = 0
    for algebra in ALGEBRAS:
        x = algebra.x()
        sol = solve_commute(x)
        bad += len(sol.kernel) != 3
        bad += sum(any(k.coeffs[3:]) or x * k != k * x for k in sol.kernel)
    return bad


def _draw_rounds(per_algebra: int, draw) -> tuple:
    """Up to per_algebra draws per algebra that draw(algebra) does not reject
    with None, in 8 tries a round; returns (draws, rounds left unfilled)."""
    found = []
    for algebra in ALGEBRAS:
        tries = (draw(algebra) for _ in range(8 * per_algebra))
        found += islice(filter(None, tries), per_algebra)
    return found, per_algebra * len(ALGEBRAS) - len(found)


def sylvester_failures(rng: random.Random, per_algebra: int) -> int:
    """Round trips on invertible Lambda(A) - Gamma(B); an unfilled round fails."""
    def draw(algebra):
        a, b = random_element(rng, algebra), random_element(rng, algebra)
        if det(lambda_mat(a) - gamma_mat(b)):
            return a, b, random_element(rng, algebra)
        return None

    trips, bad = _draw_rounds(per_algebra, draw)
    for a, b, w in trips:
        sol = solve_sylvester(a, b, a * w - w * b)
        bad += sol.verdict != Verdict.UNIQUE or sol.particular != w
    return bad


def commutator_failures(rng: random.Random, count: int) -> int:
    """AZ - ZA = 1 has no solution at A = x; AZ - ZA = Ax - xA is solvable,
    never uniquely, and its solution set contains x."""
    bad = 0
    for algebra in ALGEBRAS:
        x = algebra.x()
        bad += solve_commutator(x, algebra.one()).verdict != Verdict.NO_SOLUTION
        for _ in range(count):
            a = random_element(rng, algebra)
            c = a * x - x * a
            sol = solve_commutator(a, c)
            if sol.verdict in (Verdict.NO_SOLUTION, Verdict.UNIQUE):
                bad += 1
                continue
            z = sol.particular
            bad += a * z - z * a != c or not sol.contains(x)
    return bad


def intertwine_failures(rng: random.Random, per_algebra: int) -> int:
    """AZ = ZB with B = W^-1 A W contains W, and a reported necessary
    condition holds; an unfilled round fails."""
    def draw(algebra):
        a, w = random_element(rng, algebra), random_element(rng, algebra)
        return (a, w) if w.reduced_norm() else None

    pairs, bad = _draw_rounds(per_algebra, draw)
    for a, w in pairs:
        b = w.inverse() * a * w
        sol = solve_intertwine(a, b)
        bad += not sol.contains(w)
        bad += a * w != w * b
        bad += any("VIOLATED" in note for note in sol.notes)
    return bad


def structured_failures(rng: random.Random, search: dict) -> int:
    """Checks a structured_instance_search result at random integer weights."""
    bad = int(not search["verified"])
    for a, b, x1, x2 in search["verified"]:
        z = x1.scale(rng.randint(-3, 3)) + x2.scale(rng.randint(-3, 3))
        bad += a * z != z * b
    if not search["defective"]:
        return bad + 1
    try:
        structured_solutions(*search["defective"][0])
        bad += 1
    except VerificationFailed:
        pass
    return bad


def sequence_failures(rng: random.Random, nmax: int) -> int:
    bad = sum(not ok for _, ok in fib_identity_suite(nmax))
    for _ in range(20):
        p, q = rng.randint(-9, 9), rng.randint(-9, 9)
        n = rng.randint(0, 50)
        bad += horadam(n + 1, p, q) != p * fib(n) + q * fib(n + 1)
        p2, q2 = rng.randint(-9, 9), rng.randint(-9, 9)
        bad += horadam(n, p, q) + horadam(n, p2, q2) != horadam(n, p + p2, q + q2)
        bad += horadam(n, 0, 1) != fib(n)
    return bad


def closed_form_failures(nmax: int) -> int:
    bad = sum(closed_form_norm(n) != fib_element(n).reduced_norm() for n in range(nmax + 1))
    for n in range(min(nmax, 8) + 1):
        fe = fib_element(n)
        eta = fe.reduced_norm()
        bad += det(lambda_mat(fe)) != eta * eta * eta
    return bad


def fib_element_failures(rng: random.Random, count: int, nmax: int) -> int:
    """F_n + F_(n+1) = F_(n+2), Horadam additivity and H^(0,1) = F at random n <= nmax."""
    bad = 0
    for algebra in ALGEBRAS:
        for _ in range(count):
            n = rng.randint(0, nmax)
            f0, f1, f2 = (fib_element(n + k, algebra) for k in range(3))
            bad += f0 + f1 != f2
            p, q = rng.randint(-9, 9), rng.randint(-9, 9)
            p2, q2 = rng.randint(-9, 9), rng.randint(-9, 9)
            total = generalized_element(n, p, q, algebra) + generalized_element(n, p2, q2, algebra)
            bad += total != generalized_element(n, p + p2, q + q2, algebra)
            bad += generalized_element(n, 0, 1, algebra) != f0
    return bad


def general_a_failures(a_values, nmax: int) -> int:
    """general_a_norm(n, a) equals eta(F_n) over (a, 1) for n = 0..nmax."""
    bad = 0
    for a in a_values:
        algebra = SymbolAlgebra(a, ONE)
        bad += sum(
            general_a_norm(n, a) != fib_element(n, algebra).reduced_norm() for n in range(nmax + 1)
        )
    return bad


def cube_sum_failures(rng: random.Random, count: int) -> int:
    """2(x^3 + y^3 + z^3 - 3xyz) = (x+y+z)((x-y)^2 + (y-z)^2 + (z-x)^2)."""
    bad = 0
    for _ in range(count):
        x, y, z = (rng.randint(-50, 50) for _ in range(3))
        squares = (x - y) ** 2 + (y - z) ** 2 + (z - x) ** 2
        bad += 2 * cube_sum(x, y, z) != (x + y + z) * squares
    return bad


@dataclass
class Check:
    name: str
    statement: str
    suites: tuple
    run: callable


@dataclass
class CheckResult:
    name: str
    statement: str
    passed: bool
    detail: str


class Context:
    def __init__(self, nmax: int, samples: int, seed: int, corrupt_fixture: bool):
        self.nmax = nmax
        self.samples = samples
        self.seed = seed
        self.corrupt_fixture = corrupt_fixture

    def rng(self, name: str) -> random.Random:
        # Per-check stream so adding checks never reshuffles existing ones.
        return random.Random(f"{self.seed}:{name}")


def _check_morphisms(ctx: Context):
    bad = morphism_failures(ctx.rng("morphisms"), ctx.samples)
    return bad == 0, f"{3 * ctx.samples * len(ALGEBRAS)} identities, {bad} failures"


def _check_vector_rep(ctx: Context):
    bad = vector_rep_failures(ctx.rng("vector_rep"), ctx.samples)
    return bad == 0, f"first-column and action identities, {bad} failures"


def _check_norm_trace(ctx: Context):
    bad = norm_trace_failures(ctx.rng("norm_trace"), ctx.samples)
    return bad == 0, f"det/trace/multiplicativity, {bad} failures"


def _check_char_poly(ctx: Context):
    bad = char_poly_failures(ctx.rng("char_poly"), ctx.samples)
    return bad == 0, f"adjoint/char-poly batteries, {bad} failures"


def _check_twist_unit(ctx: Context):
    bad = twist_unit_failures(ctx.rng("twist_unit"), ctx.samples)
    return bad == 0, f"unit-parameter twist invariance, {bad} failures"


def _check_twist_probe(ctx: Context):
    rng = ctx.rng("twist_probe")
    held = 0
    total = 0
    for algebra in ALGEBRAS[1:]:
        for _ in range(min(ctx.samples, 10)):
            z = random_element(rng, algebra)
            total += 1
            if det(lambda_mat(z.twist(1))) == det(lambda_mat(z)):
                held += 1
    return True, f"informational probe at non-unit parameters: held on {held}/{total} samples (not asserted)"


def _check_reconstruction(ctx: Context):
    bad = reconstruction_failures(ctx.rng("reconstruction"), ctx.samples)
    return bad == 0, f"both frame routes recover 3z, {bad} failures"


def _check_reconstruction_variant(ctx: Context):
    rng = ctx.rng("reconstruction_variant")
    ok = True
    details = []
    for algebra, expect_match in ((ALGEBRAS[0], True), (ALGEBRAS[1], False)):
        z = random_element(rng, algebra)
        (m9, n9), _ = transcribed_reconstruction_frames(algebra)
        got = _mixed_product(m9, lambda_mat(z), n9, algebra)
        matched = got == z.scale(3)
        if matched != expect_match:
            ok = False
        details.append(f"unit={matched}" if expect_match else f"general={matched}")
    return ok, "row-weighted frame variant reproduces 3z only at a=b=1: " + ", ".join(details)


def _check_fixtures(ctx: Context):
    reports = fixture_reports()
    if ctx.corrupt_fixture:
        # Negative control: drop one known mismatch so the comparator must fail.
        name = "lambda_general"
        mismatches, _, _ = reports[name]
        reports[name] = (mismatches, set(), False)
    bad = [name for name, (_, _, ok) in reports.items() if not ok]
    total_mismatches = {name: sorted((r + 1, c + 1) for r, c, _, _ in mm)
                        for name, (mm, _, _) in reports.items() if mm}
    detail = f"known transcription mismatches (1-based cells): {total_mismatches}"
    if bad:
        detail = f"unexpected fixture deviation in {bad}; " + detail
    return not bad, detail


def _check_commute(ctx: Context):
    bad = commute_failures(ctx.rng("commute"), ctx.samples)
    return bad == 0, f"singular commutator matrix + kernel membership, {bad} failures"


def _check_centralizer_x(ctx: Context):
    bad = centralizer_failures()
    return bad == 0, f"centralizer of x is span(1, x, x^2), {bad} failures"


def _check_sylvester(ctx: Context):
    bad = sylvester_failures(ctx.rng("sylvester"), 5)
    return bad == 0, f"{5 * len(ALGEBRAS)} construct-then-solve round trips, {bad} failures"


def _check_commutator(ctx: Context):
    bad = commutator_failures(ctx.rng("commutator"), min(ctx.samples, 10))
    return bad == 0, f"solvable and unsolvable commutator equations, {bad} failures"


def _check_intertwine(ctx: Context):
    bad = intertwine_failures(ctx.rng("intertwine"), 3)
    return bad == 0, f"{3 * len(ALGEBRAS)} conjugate intertwine solves, {bad} failures"


def _check_structured(ctx: Context):
    res = structured_instance_search(ALGEBRAS[0], bound=1)
    if not res["verified"]:
        return False, "bounded search found no verified instance"
    bad = structured_failures(ctx.rng("structured"), res)
    kernel_dims = sorted({len(solve_intertwine(a, b).kernel) for a, b, _, _ in res["verified"]})
    detail = (
        f"{len(res['verified'])} verified instances (kernel dims {kernel_dims}, "
        f"exceeding the stated span dimension 2), {len(res['defective'])} hypothesis-satisfying "
        "pairs where the construction fails (reported, not suppressed)"
    )
    return bad == 0, detail


def _check_sequences(ctx: Context):
    bad = sequence_failures(ctx.rng("sequences"), ctx.nmax)
    return bad == 0, f"sequence identities to n={ctx.nmax}: {f'{bad} failures' if bad else 'all hold'}"


def _check_fib_elements(ctx: Context):
    bad = fib_element_failures(ctx.rng("fib_elements"), 10, 25)
    return bad == 0, f"element recurrence and Horadam additivity, {bad} failures"


def _check_closed_form(ctx: Context):
    bad = closed_form_failures(ctx.nmax)
    return bad == 0, (
        f"closed form vs explicit norm for n=0..{ctx.nmax} (+det cross-check): "
        f"{f'{bad} failures' if bad else 'exact'}"
    )


def _check_general_a(ctx: Context):
    bad = general_a_failures((CycQ(2), CycQ(3), OMEGA), 8)
    return bad == 0, f"verified general-a closed form at b=1, {bad} failures"


def _check_norm_audit(ctx: Context):
    diffs = [n for n in range(11) if closed_form_norm_candidate(n) != closed_form_norm(n)]
    return (
        bool(diffs),
        f"candidate constants disagree with the oracle at n={diffs} (documented; verified set shipped)",
    )


def _check_lemmas(ctx: Context):
    rows = run_lemma_suite(min(ctx.nmax, 30))
    failing = [r["name"] for r in rows if not r["candidate_ok"]]
    unrepaired = [
        r["name"] for r in rows if not r["candidate_ok"] and not r["verified_ok"]
    ]
    ok = not unrepaired
    return ok, (
        f"{len(rows)} audited identities; candidates failing: {len(failing)}; "
        f"all repaired: {not unrepaired}"
    )


def _check_scan(ctx: Context):
    rep = invertibility_scan(ctx.nmax)
    ok = rep["all_invertible"] and rep["omega_free_block_positive"]
    return ok, (
        f"n=0..{ctx.nmax}: all invertible={rep['all_invertible']}, "
        f"omega-free block positive={rep['omega_free_block_positive']}"
    )


def _check_cube_sum_factorization(ctx: Context):
    bad = cube_sum_failures(ctx.rng("cube_sum"), 50)
    return bad == 0, f"50 random integer triples, {bad} failures"


CHECKS = (
    Check("lambda_gamma_morphisms",
          "Lambda(zw)=Lambda(z)Lambda(w); Gamma(zw)=Gamma(w)Gamma(z); Lambda(A)Gamma(B)=Gamma(B)Lambda(A)",
          ("representations",), _check_morphisms),
    Check("vector_representation",
          "vec(Z)=Lambda(Z)e1=Gamma(Z)e1; vec(AZ)=Lambda(A)vec(Z); vec(ZA)=Gamma(A)vec(Z)",
          ("representations",), _check_vector_rep),
    Check("norm_trace_coherence",
          "det Lambda(z)=eta(z)^3; det Gamma(z)=det Lambda(z); tr Lambda(z)=9c0=3tau(z); eta multiplicative",
          ("representations",), _check_norm_trace),
    Check("adjoint_char_poly",
          "z z*=z* z=eta; z**=eta z; (zw)*=w* z*; pi(z)=tau(z*); 2pi=tau^2-tau(z^2); pi(zw)=pi(wz); tau(zw)=tau(wz); Cayley-Hamilton",
          ("representations",), _check_char_poly),
    Check("twist_invariance_unit",
          "at a=b=1: det Lambda(z)=det Lambda(z_w)=det Lambda(z_w2), same for Gamma",
          ("representations",), _check_twist_unit),
    Check("twist_invariance_probe",
          "twist invariance probed at non-unit parameters (informational)",
          ("representations",), _check_twist_probe),
    Check("reconstruction",
          "M9 Lambda(z) N9 = M10 Gamma^t(z) N10 = 3z",
          ("representations",), _check_reconstruction),
    Check("reconstruction_frame_variant",
          "row-weighted frame variant recovers 3z only at unit parameters (diagnostic)",
          ("representations",), _check_reconstruction_variant),
    Check("fixture_tables",
          "generated representation tables match the transcribed fixtures outside the known defect cells",
          ("representations",), _check_fixtures),
    Check("commute_solver",
          "det(Lambda(A)-Gamma(A))=0; kernel of the centralizer system contains 1 and A",
          ("equations",), _check_commute),
    Check("centralizer_of_x",
          "the centralizer of x is span(1, x, x^2) (dimension 3)",
          ("equations",), _check_centralizer_x),
    Check("sylvester_roundtrip",
          "AZ-ZB=C with invertible Lambda(A)-Gamma(B) has the unique solution it was built from",
          ("equations",), _check_sylvester),
    Check("commutator_solver",
          "AZ-ZA=C is never uniquely solvable; residuals vanish on solvable instances",
          ("equations",), _check_commutator),
    Check("intertwine_conjugate",
          "for B=W^-1 A W the solution set of AZ=ZB contains W",
          ("equations",), _check_intertwine),
    Check("structured_solutions",
          "X1=A0+B0 and X2=pi(A0)-A0B0 solve AZ=ZB on verified instances; insufficient-hypothesis pairs reported",
          ("equations",), _check_structured),
    Check("sequence_identities",
          "the seven classical Fibonacci identities plus Horadam relations",
          ("fibonacci",), _check_sequences),
    Check("fibonacci_elements",
          "F_n+F_(n+1)=F_(n+2); H additivity; H^(0,1)=F",
          ("fibonacci",), _check_fib_elements),
    Check("norm_closed_form",
          "shipped closed form equals the explicit norm for all n in range (det cross-checked)",
          ("fibonacci",), _check_closed_form),
    Check("norm_closed_form_general_a",
          "verified general-a closed form at b=1 equals the explicit norm",
          ("fibonacci",), _check_general_a),
    Check("norm_candidate_audit",
          "the retained candidate constant set disagrees with the oracle (documented defect)",
          ("fibonacci",), _check_norm_audit),
    Check("norm_lemma_audit",
          "derivation-chain identities: every failing candidate has a verified corrected form",
          ("fibonacci",), _check_lemmas),
    Check("invertibility_scan",
          "eta(F_n) != 0 and F_n F_n^-1 = 1 for all n in range; omega-free block positive",
          ("fibonacci",), _check_scan),
    Check("cube_sum_factorization",
          "x^3+y^3+z^3-3xyz = (x+y+z)((x-y)^2+(y-z)^2+(z-x)^2)/2",
          ("fibonacci",), _check_cube_sum_factorization),
)

SUITES = ("all", "representations", "equations", "fibonacci")


def run_suite(
    suite: str = "all",
    nmax: int = 30,
    samples: int = 50,
    seed: int = 7,
    corrupt_fixture: bool = False,
) -> tuple:
    """Run the battery; returns (results, report_dict)."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    ctx = Context(nmax=nmax, samples=samples, seed=seed, corrupt_fixture=corrupt_fixture)
    results = []
    for check in CHECKS:
        if suite != "all" and suite not in check.suites:
            continue
        passed, detail = check.run(ctx)
        results.append(CheckResult(check.name, check.statement, passed, detail))
    report = {
        "suite": suite,
        "seed": seed,
        "nmax": nmax,
        "samples": samples,
        "checks": [
            {"name": r.name, "paper_ref": r.statement, "pass": r.passed, "detail": r.detail}
            for r in results
        ],
    }
    return results, report
