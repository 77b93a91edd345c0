"""Exact solvers for the four linear equations with coefficients in S:

    A Z = Z A          (centralizer)
    A Z = Z B          (intertwining)
    A Z - Z A = C      (commutator)
    A Z - Z B = C      (Sylvester form)

All four reduce to 9x9 linear systems over Q(w) through the left and right
representations: vec(A Z) = Lambda(A) vec(Z) and vec(Z B) = Gamma(B) vec(Z).
Solution sets are returned as algebra elements, never raw vectors.
"""

from __future__ import annotations

import enum
import itertools
from typing import NamedTuple

from .algebra import SymbolAlgebra, SymbolElement
from .cyclotomic import ZERO
from .representations import MatK, gamma_mat, lambda_mat, solve_affine, vec_rep
from .representations import kernel_basis  # noqa: F401  (bench/test_bench.py traces it here)


class HypothesisViolated(ValueError):
    """An input pair fails one of the structured-solution hypotheses."""

    def __init__(self, hypothesis: str):
        super().__init__(f"hypothesis violated: {hypothesis}")
        self.hypothesis = hypothesis


class VerificationFailed(RuntimeError):
    """A constructed solution does not satisfy its equation; the stated
    hypotheses are known to be insufficient (see structured_instance_search)."""


class Verdict(enum.Enum):
    ALL_OF_SPACE = "AllOfSpace"
    AFFINE_FAMILY = "AffineFamily"
    UNIQUE = "Unique"
    NO_SOLUTION = "NoSolution"


class SolutionSet(NamedTuple):
    particular: SymbolElement | None
    kernel: tuple
    verdict: Verdict
    notes: tuple = ()

    def contains(self, z: SymbolElement) -> bool:
        """True iff z solves the equation: z - particular lies in the kernel span."""
        if self.particular is None:
            return False
        cols = [k.coeffs for k in self.kernel] + [(ZERO,) * 9] * (9 - len(self.kernel))
        return solve_affine(MatK(zip(*cols)), (z - self.particular).coeffs) is not None


def solve_commute(a: SymbolElement) -> SolutionSet:
    """All Z with A Z = Z A; the kernel always contains 1 and A."""
    return _solve_linear(a, a, a.algebra.zero())


def solve_intertwine(a: SymbolElement, b: SymbolElement) -> SolutionSet:
    """All Z with A Z = Z B.

    The classical necessary condition for an invertible solution is
    tau(A) = tau(B) and eta(A) = eta(B); it is reported in the notes, never
    enforced, since non-invertible kernel vectors may exist regardless.
    """
    a._check_same(b)
    sol = _solve_linear(a, b, a.algebra.zero())
    if not any(k.reduced_norm() for k in sol.kernel):
        return sol
    cond = a.reduced_trace() == b.reduced_trace() and a.reduced_norm() == b.reduced_norm()
    note = (
        "invertible kernel element found; necessary condition "
        f"tau(A)=tau(B), eta(A)=eta(B): {'holds' if cond else 'VIOLATED'}"
    )
    return sol._replace(notes=(note,))


def _solve_linear(a: SymbolElement, b: SymbolElement, c: SymbolElement) -> SolutionSet:
    """All Z with A Z - Z B = C, from one elimination of the augmented system."""
    out = solve_affine(lambda_mat(a) - gamma_mat(b), vec_rep(c))
    if out is None:
        return SolutionSet(None, (), Verdict.NO_SOLUTION)
    kernel = tuple(a.algebra.element(v) for v in out[1])
    verdict = {0: Verdict.UNIQUE, 9: Verdict.ALL_OF_SPACE}.get(len(kernel), Verdict.AFFINE_FAMILY)
    return SolutionSet(a.algebra.element(out[0]), kernel, verdict)


def solve_commutator(a: SymbolElement, c: SymbolElement) -> SolutionSet:
    """All Z with A Z - Z A = C; never unique (the kernel contains 1 and A)."""
    a._check_same(c)
    return _solve_linear(a, a, c)


def solve_sylvester(a: SymbolElement, b: SymbolElement, c: SymbolElement) -> SolutionSet:
    """All Z with A Z - Z B = C; unique iff Lambda(A) - Gamma(B) is invertible."""
    a._check_same(b)
    a._check_same(c)
    return _solve_linear(a, b, c)


_STRUCTURED_HYPOTHESES = (
    "A - a0 is nonzero",
    "B - b0 is nonzero",
    "equal scalar parts a0 = b0",
    "A0 != -B0",
    "eta(A0) = 0",
    "eta(B0) = 0",
    "pi(A0) = pi(B0)",
    "pi(A0) != 0",
)


def structured_solutions(a: SymbolElement, b: SymbolElement):
    """The pair X1 = A0 + B0, X2 = pi(A0) - A0 B0 for A Z = Z B, under the
    hypotheses: equal scalar parts, A0 != -B0, eta(A0) = eta(B0) = 0 and
    pi(A0) = pi(B0) != 0 (A0, B0 the scalar-free parts, both nonzero).

    Both candidates are verified against the equation by multiplication and
    checked for linear independence.  The hypotheses do not actually force
    A0^2 = B0^2, which the verification needs, so hypothesis-satisfying pairs
    exist where this raises VerificationFailed; see
    structured_instance_search, which separates the two situations.
    """
    a._check_same(b)
    algebra = a.algebra
    a0 = a - algebra.scalar(a.scalar_part())
    b0 = b - algebra.scalar(b.scalar_part())
    _, pi_a, eta_a = a0.char_poly()
    _, pi_b, eta_b = b0.char_poly()
    checks = (
        bool(a0),
        bool(b0),
        a.scalar_part() == b.scalar_part(),
        a0 != -b0,
        not eta_a,
        not eta_b,
        pi_a == pi_b,
        bool(pi_a),
    )
    for name, ok in zip(_STRUCTURED_HYPOTHESES, checks):
        if not ok:
            raise HypothesisViolated(name)
    x1 = a0 + b0
    x2 = algebra.scalar(pi_a) - a0 * b0
    for label, x in (("X1", x1), ("X2", x2)):
        if a * x != x * b:
            raise VerificationFailed(f"{label} does not satisfy A Z = Z B")
    if _dependent(x1, x2):
        raise VerificationFailed("X1 and X2 are linearly dependent")
    return x1, x2


def _dependent(x1: SymbolElement, x2: SymbolElement) -> bool:
    if not x1 or not x2:
        return True
    pivot = next(i for i, c in enumerate(x1.coeffs) if c)
    ratio = x2.coeffs[pivot] / x1.coeffs[pivot]
    return x2 == x1.scale(ratio)


# Two-monomial supports used by the bounded search: the x-, y-, xy- and
# mixed-degree planes of the basis.
_SEARCH_SUPPORTS = ((1, 2), (3, 4), (5, 6), (7, 8))


def structured_instance_search(algebra: SymbolAlgebra, bound: int = 2) -> dict:
    """Deterministic lexicographic search for structured-solution instances.

    Enumerates pairs (A, B) supported on two-monomial planes with integer
    coefficients in [-bound, bound] and zero scalar part, keeps those passing
    the hypotheses, and sorts them into instances whose X1, X2 verify and
    hypothesis-satisfying defects where verification fails.
    """
    coeff_range = range(-bound, bound + 1)
    candidates = []
    for support in _SEARCH_SUPPORTS:
        for c1 in coeff_range:
            for c2 in coeff_range:
                if c1 == 0 and c2 == 0:
                    continue
                coeffs = [0] * 9
                coeffs[support[0]] = c1
                coeffs[support[1]] = c2
                z = algebra.element(coeffs)
                _, pi, eta = z.char_poly()
                if not eta and pi:
                    candidates.append(z)
    verified = []
    defective = []
    for a, b in itertools.product(candidates, repeat=2):
        try:
            x1, x2 = structured_solutions(a, b)
        except HypothesisViolated:
            continue
        except VerificationFailed:
            defective.append((a, b))
            continue
        verified.append((a, b, x1, x2))
    return {"verified": verified, "defective": defective}
