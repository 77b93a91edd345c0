"""Exact arithmetic, matrix representations, equation solvers and Fibonacci
elements for degree-3 symbol algebras over the cyclotomic field Q(w)."""

from .cyclotomic import CycQ, OMEGA, ONE, ScalarFormatError, ZERO
from .algebra import (
    CharData,
    NotInvertible,
    ParamsMismatch,
    SymbolAlgebra,
    SymbolElement,
    element_from_dict,
    element_to_dict,
)
from .representations import (
    IdentityViolation,
    MatK,
    det,
    gamma_mat,
    kernel_basis,
    lambda_mat,
    reconstruct,
    solve_affine,
    vec_rep,
)
from .solvers import (
    HypothesisViolated,
    SolutionSet,
    Verdict,
    VerificationFailed,
    solve_commute,
    solve_commutator,
    solve_intertwine,
    solve_sylvester,
    structured_instance_search,
    structured_solutions,
)
from .fibonacci import (
    UNIT_ALGEBRA,
    UnsupportedParams,
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
from .verify import run_suite

__version__ = "0.1.0"
