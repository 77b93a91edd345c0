"""One-shot verification battery: every identity the library relies on, run
over seeded random samples at three parameter choices, with a machine-readable
pass/fail report.  Identical (suite, nmax, samples, seed) inputs produce
byte-identical reports.

Each sampled identity has one implementation, a generator (`morphism_identities`
... `cube_sum_identities`) yielding one truth value per identity instance, and
`tally` counts them for the battery and the tests alike.  Most rows of CHECKS
run `counted`: a function of the Context that calls one generator on its own
rng stream, and a detail template for the tally."""

from __future__ import annotations

import random
import time
from itertools import islice
from fractions import Fraction
from typing import Callable, NamedTuple

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


class Tally(NamedTuple):
    checked: int
    failures: int

    @property
    def passed(self) -> bool:
        """No check passes on zero cases."""
        return self.checked > 0 and self.failures == 0


def tally(outcomes) -> Tally:
    """Count the truth values a shared body yields, one per identity instance."""
    held = [bool(holds) for holds in outcomes]
    return Tally(len(held), held.count(False))


# Identity checks shared by the battery and the tests; each yields one truth
# value per identity instance and draws its samples, if any, from rng.
def morphism_identities(rng: random.Random, count: int):
    for z, w in sample_pairs(rng, count):
        lam_z, lam_w = lambda_mat(z), lambda_mat(w)
        gam_z, gam_w = gamma_mat(z), gamma_mat(w)
        prod = z * w
        yield lambda_mat(prod) == lam_z * lam_w
        yield gamma_mat(prod) == gam_w * gam_z
        yield lam_z * gam_w == gam_w * lam_z


def norm_trace_identities(rng: random.Random, count: int):
    for z, w in sample_pairs(rng, count):
        eta = z.reduced_norm()
        lam = lambda_mat(z)
        d = det(lam)
        yield d == eta * eta * eta
        yield det(gamma_mat(z)) == d
        yield lam.trace() == 9 * z.coeffs[0]
        yield z.reduced_trace() * 3 == lam.trace()
        yield (z * w).reduced_norm() == eta * w.reduced_norm()


def char_poly_identities(rng: random.Random, count: int):
    for z, w in sample_pairs(rng, count):
        tau, pi, eta = z.char_poly()
        zs = z.adjoint()
        algebra = z.algebra
        yield z * zs == algebra.scalar(eta) and zs * z == algebra.scalar(eta)
        yield zs.adjoint() == z.scale(eta)
        yield (z * w).adjoint() == w.adjoint() * z.adjoint()
        yield pi == zs.reduced_trace()
        yield pi + pi == tau * tau - (z * z).reduced_trace()
        yield (z * w).pi_form() == (w * z).pi_form()
        yield (z * w).reduced_trace() == (w * z).reduced_trace()
        yield not (z * z * z - (z * z).scale(tau) + z.scale(pi) - algebra.scalar(eta))


def twist_unit_identities(rng: random.Random, count: int):
    """Twist invariance of both determinants at a = b = 1 (ALGEBRAS[0])."""
    for _ in range(count):
        z = random_element(rng, ALGEBRAS[0])
        d = det(lambda_mat(z))
        for k in (1, 2):
            zt = z.twist(k)
            yield det(lambda_mat(zt)) == d and det(gamma_mat(zt)) == d


def reconstruction_identities(rng: random.Random, count: int):
    """Both frame routes recover 3z; a route reconstruct rejects is a failure."""
    for algebra in ALGEBRAS:
        for _ in range(count):
            z = random_element(rng, algebra)
            try:
                yield reconstruct(z) == z.scale(3)
            except IdentityViolation:
                yield False


def vector_rep_identities(rng: random.Random, count: int):
    e1 = (ONE,) + (ZERO,) * 8
    for z, w in sample_pairs(rng, count):
        lam, gam = lambda_mat(z), gamma_mat(z)
        yield lam.apply(e1) == vec_rep(z) and gam.apply(e1) == vec_rep(z)
        yield lam.apply(vec_rep(w)) == vec_rep(z * w)
        yield gam.apply(vec_rep(w)) == vec_rep(w * z)


def commute_identities(rng: random.Random, count: int):
    for algebra in ALGEBRAS:
        for _ in range(count):
            a = random_element(rng, algebra)
            yield not det(lambda_mat(a) - gamma_mat(a))
            sol = solve_commute(a)
            yield from (sol.contains(target) for target in {algebra.one(), a})
            yield from (a * k == k * a for k in sol.kernel[:2])


def centralizer_identities():
    for algebra in ALGEBRAS:
        x = algebra.x()
        sol = solve_commute(x)
        yield len(sol.kernel) == 3
        yield from (not any(k.coeffs[3:]) and x * k == k * x for k in sol.kernel)


def _draw_rounds(per_algebra: int, draw) -> tuple:
    """Up to per_algebra draws per algebra that draw(algebra) does not reject
    with None, in 8 tries a round; returns (draws, rounds left unfilled)."""
    found = []
    for algebra in ALGEBRAS:
        tries = (draw(algebra) for _ in range(8 * per_algebra))
        found += islice(filter(None, tries), per_algebra)
    return found, per_algebra * len(ALGEBRAS) - len(found)


def sylvester_identities(rng: random.Random, per_algebra: int):
    """Round trips on invertible Lambda(A) - Gamma(B); an unfilled round fails."""
    def draw(algebra):
        a, b = random_element(rng, algebra), random_element(rng, algebra)
        if det(lambda_mat(a) - gamma_mat(b)):
            return a, b, random_element(rng, algebra)
        return None

    trips, unfilled = _draw_rounds(per_algebra, draw)
    yield from [False] * unfilled
    for a, b, w in trips:
        sol = solve_sylvester(a, b, a * w - w * b)
        yield sol.verdict == Verdict.UNIQUE and sol.particular == w


def commutator_identities(rng: random.Random, count: int):
    """AZ - ZA = 1 has no solution at A = x; AZ - ZA = Ax - xA is solvable,
    never uniquely, and its solution set contains x."""
    for algebra in ALGEBRAS:
        x = algebra.x()
        yield solve_commutator(x, algebra.one()).verdict == Verdict.NO_SOLUTION
        for _ in range(count):
            a = random_element(rng, algebra)
            c = a * x - x * a
            sol = solve_commutator(a, c)
            z = sol.particular
            yield (sol.verdict not in (Verdict.NO_SOLUTION, Verdict.UNIQUE)
                   and a * z - z * a == c and sol.contains(x))


def intertwine_identities(rng: random.Random, per_algebra: int):
    """AZ = ZB with B = W^-1 A W contains W, and a reported necessary
    condition holds; an unfilled round fails."""
    def draw(algebra):
        a, w = random_element(rng, algebra), random_element(rng, algebra)
        return (a, w) if w.reduced_norm() else None

    pairs, unfilled = _draw_rounds(per_algebra, draw)
    yield from [False] * unfilled
    for a, w in pairs:
        b = w.inverse() * a * w
        sol = solve_intertwine(a, b)
        yield sol.contains(w)
        yield a * w == w * b
        yield not any("VIOLATED" in note for note in sol.notes)


def structured_identities(rng: random.Random, search: dict):
    """Checks a structured_instance_search result at random integer weights."""
    yield bool(search["verified"])
    for a, b, x1, x2 in search["verified"]:
        z = x1.scale(rng.randint(-3, 3)) + x2.scale(rng.randint(-3, 3))
        yield a * z == z * b
    if not search["defective"]:
        yield False
        return
    try:
        structured_solutions(*search["defective"][0])
        yield False
    except VerificationFailed:
        yield True


def sequence_identities(rng: random.Random, nmax: int):
    yield from (ok for _, _, ok in fib_identity_suite(nmax))
    for _ in range(20):
        p, q = rng.randint(-9, 9), rng.randint(-9, 9)
        n = rng.randint(0, 50)
        yield horadam(n + 1, p, q) == p * fib(n) + q * fib(n + 1)
        p2, q2 = rng.randint(-9, 9), rng.randint(-9, 9)
        yield horadam(n, p, q) + horadam(n, p2, q2) == horadam(n, p + p2, q + q2)
        yield horadam(n, 0, 1) == fib(n)


def closed_form_identities(nmax: int):
    yield from (closed_form_norm(n) == fib_element(n).reduced_norm() for n in range(nmax + 1))
    for n in range(min(nmax, 8) + 1):
        fe = fib_element(n)
        eta = fe.reduced_norm()
        yield det(lambda_mat(fe)) == eta * eta * eta


def fib_element_identities(rng: random.Random, count: int, nmax: int):
    """F_n + F_(n+1) = F_(n+2), Horadam additivity and H^(0,1) = F at random n <= nmax."""
    for algebra in ALGEBRAS:
        for _ in range(count):
            n = rng.randint(0, nmax)
            f0, f1, f2 = (fib_element(n + k, algebra) for k in range(3))
            yield f0 + f1 == f2
            p, q = rng.randint(-9, 9), rng.randint(-9, 9)
            p2, q2 = rng.randint(-9, 9), rng.randint(-9, 9)
            total = generalized_element(n, p, q, algebra) + generalized_element(n, p2, q2, algebra)
            yield total == generalized_element(n, p + p2, q + q2, algebra)
            yield generalized_element(n, 0, 1, algebra) == f0


def general_a_identities(a_values, nmax: int):
    """general_a_norm(n, a) equals eta(F_n) over (a, 1) for n = 0..nmax."""
    for a in a_values:
        algebra = SymbolAlgebra(a, ONE)
        for n in range(nmax + 1):
            yield general_a_norm(n, a) == fib_element(n, algebra).reduced_norm()


def cube_sum_identities(rng: random.Random, count: int):
    """2(x^3 + y^3 + z^3 - 3xyz) = (x+y+z)((x-y)^2 + (y-z)^2 + (z-x)^2)."""
    for _ in range(count):
        x, y, z = (rng.randint(-50, 50) for _ in range(3))
        squares = (x - y) ** 2 + (y - z) ** 2 + (z - x) ** 2
        yield 2 * cube_sum(x, y, z) == (x + y + z) * squares


class Context:
    def __init__(self, nmax: int, samples: int, seed: int, corrupt_fixture: bool):
        self.nmax = nmax
        self.samples = samples
        self.capped_samples = min(samples, 10)  # for the costlier sampled checks
        self.seed = seed
        self.corrupt_fixture = corrupt_fixture

    def rng(self, name: str) -> random.Random:
        # Per-check stream so adding checks never reshuffles existing ones.
        return random.Random(f"{self.seed}:{name}")


class Check:
    """One battery row; run(ctx) returns (passed, detail).  run is an instance
    attribute, so a tracer can wrap one row's run."""

    def __init__(self, name: str, statement: str, suite: str, run: Callable):
        self.name = name
        self.statement = statement
        self.suite = suite
        self.run = run


def counted(cases: Callable, detail: str, detail_passed: str = None) -> Callable:
    """A row's run that tallies cases(ctx); its detail formats `detail`, or
    `detail_passed` if set and the row passed, with the fields checked,
    failures and nmax."""
    def run(ctx: Context) -> tuple:
        t = tally(cases(ctx))
        template = detail_passed if t.passed and detail_passed else detail
        return t.passed, template.format(checked=t.checked, failures=t.failures, nmax=ctx.nmax)
    return run


def _check_twist_probe(ctx: Context):
    rng = ctx.rng("twist_probe")
    probe = tally(
        det(lambda_mat(z.twist(1))) == det(lambda_mat(z))
        for algebra in ALGEBRAS[1:]
        for z in (random_element(rng, algebra) for _ in range(ctx.capped_samples))
    )
    held = probe.checked - probe.failures
    return True, f"informational probe at non-unit parameters: held on {held}/{probe.checked} samples (not asserted)"


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


def _check_structured(ctx: Context):
    res = structured_instance_search(ALGEBRAS[0], bound=1)
    if not res["verified"]:
        return False, "bounded search found no verified instance"
    passed = tally(structured_identities(ctx.rng("structured"), res)).passed
    kernel_dims = sorted({len(solve_intertwine(a, b).kernel) for a, b, _, _ in res["verified"]})
    detail = (
        f"{len(res['verified'])} verified instances (kernel dims {kernel_dims}, "
        f"exceeding the stated span dimension 2), {len(res['defective'])} hypothesis-satisfying "
        "pairs where the construction fails (reported, not suppressed)"
    )
    return passed, detail


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


CHECKS = (
    Check("lambda_gamma_morphisms",
          "Lambda(zw)=Lambda(z)Lambda(w); Gamma(zw)=Gamma(w)Gamma(z); Lambda(A)Gamma(B)=Gamma(B)Lambda(A)",
          "representations", counted(lambda ctx: morphism_identities(ctx.rng("morphisms"), ctx.samples),
                                     "{checked} identities, {failures} failures")),
    Check("vector_representation",
          "vec(Z)=Lambda(Z)e1=Gamma(Z)e1; vec(AZ)=Lambda(A)vec(Z); vec(ZA)=Gamma(A)vec(Z)",
          "representations", counted(lambda ctx: vector_rep_identities(ctx.rng("vector_rep"), ctx.samples),
                                     "first-column and action identities, {failures} failures")),
    Check("norm_trace_coherence",
          "det Lambda(z)=eta(z)^3; det Gamma(z)=det Lambda(z); tr Lambda(z)=9c0=3tau(z); eta multiplicative",
          "representations", counted(lambda ctx: norm_trace_identities(ctx.rng("norm_trace"), ctx.samples),
                                     "det/trace/multiplicativity, {failures} failures")),
    Check("adjoint_char_poly",
          "z z*=z* z=eta; z**=eta z; (zw)*=w* z*; pi(z)=tau(z*); 2pi=tau^2-tau(z^2); pi(zw)=pi(wz); tau(zw)=tau(wz); Cayley-Hamilton",
          "representations", counted(lambda ctx: char_poly_identities(ctx.rng("char_poly"), ctx.samples),
                                     "adjoint/char-poly batteries, {failures} failures")),
    Check("twist_invariance_unit",
          "at a=b=1: det Lambda(z)=det Lambda(z_w)=det Lambda(z_w2), same for Gamma",
          "representations", counted(lambda ctx: twist_unit_identities(ctx.rng("twist_unit"), ctx.samples),
                                     "unit-parameter twist invariance, {failures} failures")),
    Check("twist_invariance_probe",
          "twist invariance probed at non-unit parameters (informational)",
          "representations", _check_twist_probe),
    Check("reconstruction",
          "M9 Lambda(z) N9 = M10 Gamma^t(z) N10 = 3z",
          "representations", counted(lambda ctx: reconstruction_identities(ctx.rng("reconstruction"), ctx.samples),
                                     "both frame routes recover 3z, {failures} failures")),
    Check("reconstruction_frame_variant",
          "row-weighted frame variant recovers 3z only at unit parameters (diagnostic)",
          "representations", _check_reconstruction_variant),
    Check("fixture_tables",
          "generated representation tables match the transcribed fixtures outside the known defect cells",
          "representations", _check_fixtures),
    Check("commute_solver",
          "det(Lambda(A)-Gamma(A))=0; kernel of the centralizer system contains 1 and A",
          "equations", counted(lambda ctx: commute_identities(ctx.rng("commute"), ctx.samples),
                               "singular commutator matrix + kernel membership, {failures} failures")),
    Check("centralizer_of_x",
          "the centralizer of x is span(1, x, x^2) (dimension 3)",
          "equations", counted(lambda ctx: centralizer_identities(),
                               "centralizer of x is span(1, x, x^2), {failures} failures")),
    Check("sylvester_roundtrip",
          "AZ-ZB=C with invertible Lambda(A)-Gamma(B) has the unique solution it was built from",
          "equations", counted(lambda ctx: sylvester_identities(ctx.rng("sylvester"), 5),
                               "{checked} construct-then-solve round trips, {failures} failures")),
    Check("commutator_solver",
          "AZ-ZA=C is never uniquely solvable; residuals vanish on solvable instances",
          "equations", counted(lambda ctx: commutator_identities(ctx.rng("commutator"), ctx.capped_samples),
                               "solvable and unsolvable commutator equations, {failures} failures")),
    Check("intertwine_conjugate",
          "for B=W^-1 A W the solution set of AZ=ZB contains W",
          "equations", counted(lambda ctx: intertwine_identities(ctx.rng("intertwine"), 3),
                               f"{3 * len(ALGEBRAS)} conjugate intertwine solves, {{failures}} failures")),
    Check("structured_solutions",
          "X1=A0+B0 and X2=pi(A0)-A0B0 solve AZ=ZB on verified instances; insufficient-hypothesis pairs reported",
          "equations", _check_structured),
    Check("sequence_identities",
          "the seven classical Fibonacci identities plus Horadam relations",
          "fibonacci", counted(lambda ctx: sequence_identities(ctx.rng("sequences"), ctx.nmax),
                               "sequence identities to n={nmax}: {failures} failures",
                               "sequence identities to n={nmax}: all hold")),
    Check("fibonacci_elements",
          "F_n+F_(n+1)=F_(n+2); H additivity; H^(0,1)=F",
          "fibonacci", counted(lambda ctx: fib_element_identities(ctx.rng("fib_elements"), 10, 25),
                               "element recurrence and Horadam additivity, {failures} failures")),
    Check("norm_closed_form",
          "shipped closed form equals the explicit norm for all n in range (det cross-checked)",
          "fibonacci", counted(lambda ctx: closed_form_identities(ctx.nmax),
                               "closed form vs explicit norm for n=0..{nmax} (+det cross-check): {failures} failures",
                               "closed form vs explicit norm for n=0..{nmax} (+det cross-check): exact")),
    Check("norm_closed_form_general_a",
          "verified general-a closed form at b=1 equals the explicit norm",
          "fibonacci", counted(lambda ctx: general_a_identities((CycQ(2), CycQ(3), OMEGA), 8),
                               "verified general-a closed form at b=1, {failures} failures")),
    Check("norm_candidate_audit",
          "the retained candidate constant set disagrees with the oracle (documented defect)",
          "fibonacci", _check_norm_audit),
    Check("norm_lemma_audit",
          "derivation-chain identities: every failing candidate has a verified corrected form",
          "fibonacci", _check_lemmas),
    Check("invertibility_scan",
          "eta(F_n) != 0 and F_n F_n^-1 = 1 for all n in range; omega-free block positive",
          "fibonacci", _check_scan),
    Check("cube_sum_factorization",
          "x^3+y^3+z^3-3xyz = (x+y+z)((x-y)^2+(y-z)^2+(z-x)^2)/2",
          "fibonacci", counted(lambda ctx: cube_sum_identities(ctx.rng("cube_sum"), 50),
                               "{checked} random integer triples, {failures} failures")),
)

SUITES = ("all", "representations", "equations", "fibonacci")


def run_suite(
    suite: str = "all",
    nmax: int = 30,
    samples: int = 50,
    seed: int = 7,
    corrupt_fixture: bool = False,
    timings: dict = None,
) -> dict:
    """Run the battery; returns the report dict, one row per check in suite.
    If timings is a dict, each row's wall seconds go into it by check name,
    never into the report."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    ctx = Context(nmax=nmax, samples=samples, seed=seed, corrupt_fixture=corrupt_fixture)
    rows = []
    for check in CHECKS:
        if suite in ("all", check.suite):
            start = time.perf_counter()
            passed, detail = check.run(ctx)
            if timings is not None:
                timings[check.name] = time.perf_counter() - start
            rows.append(
                {"name": check.name, "paper_ref": check.statement, "pass": passed, "detail": detail})
    return {"suite": suite, "seed": seed, "nmax": nmax, "samples": samples, "checks": rows}
