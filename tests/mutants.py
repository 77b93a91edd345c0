"""Mutation certificates: deliberate faults in src/symbol3 that named tests
must catch.

Each entry of MUTANTS names a file under src/symbol3/, a text that occurs
exactly once in it, the replacement for that text, and the test node ids that
must all fail once the replacement is made.  Run them from the repository
root with

    python3 -m tests.mutants

The runner first runs every listed test on an unmodified copy of src/, where
all must pass.  Then, one mutant at a time, it copies src/ to a temporary
directory, applies the mutant there and runs that mutant's tests in one pytest
process with the copy first on PYTHONPATH.  It prints "killed" when every
listed test fails and "survived" otherwise, and exits non-zero if any mutant
survives.  The repository's own src/ is never modified.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "symbol3"

MATRIX_TESTS = (
    "tests/test_mul_kernel.py::test_matrix_products_match_cycq_loops",
    "tests/test_mul_kernel.py::test_sparse_matrix_products_match_cycq_loops",
    "tests/test_mul_kernel.py::test_matrix_products_match_cycq_loops_on_large_denominators",
)
MIXED_TESTS = (
    "tests/test_mul_kernel.py::test_mixed_products_match_cycq_loop",
    "tests/test_mul_kernel.py::test_sparse_mixed_products_match_cycq_loop",
)
DET_TESTS = (
    "tests/test_mul_kernel.py::test_det_matches_gaussian_elimination",
    "tests/test_mul_kernel.py::test_det_matches_gaussian_elimination_on_dense_matrices",
    "tests/test_mul_kernel.py::test_det_matches_gaussian_elimination_on_fixed_inputs",
)
TABLE_TESTS = (
    "tests/test_mul_kernel.py::test_product_matches_per_term_loop",
    "tests/test_mul_kernel.py::test_reduced_norm_matches_cubic_form",
    "tests/test_mul_kernel.py::test_mixed_products_match_cycq_loop",
)
RREF_TESTS = (
    "tests/test_mul_kernel.py::test_rref_matches_separate_forward_pass",
    "tests/test_mul_kernel.py::test_rref_matches_separate_forward_pass_on_dense_matrices",
    "tests/test_mul_kernel.py::test_rref_matches_separate_forward_pass_on_fixed_inputs",
    "tests/test_representations.py::test_elimination_matches_gauss_jordan_reference",
)


class Mutant(NamedTuple):
    name: str
    path: str  # relative to src/symbol3
    old: str  # occurs exactly once in the file
    new: str
    tests: tuple  # node ids that must all fail


MUTANTS = (
    # _products, the matrix product kernel
    Mutant("products_drop_cross_term", "representations.py",
           "cross += p1 * q2 + q1 * p2", "cross += p1 * q2", MATRIX_TESTS),
    Mutant("products_drop_qq_from_real_part", "representations.py",
           "out_r.append(pp - qq)", "out_r.append(pp)", MATRIX_TESTS),
    Mutant("products_row_denominator_only", "representations.py",
           "return from_numerators(d1 * d2, out_r, out_s)",
           "return from_numerators(d1, out_r, out_s)", MATRIX_TESTS),
    Mutant("products_skip_zero_rational_part", "representations.py",
           "enumerate(left[k:k + 9]) if p or q]", "enumerate(left[k:k + 9]) if p]",
           MATRIX_TESTS),
    # _mixed_product, the reconstruction product
    Mutant("mixed_one_weight_denominator", "representations.py",
           "d_cells * d_weights * d_weights * den", "d_cells * d_weights * den",
           MIXED_TESTS),
    Mutant("mixed_drop_cell_cross_term", "representations.py",
           "cross = q2 * q3", "cross = 0", MIXED_TESTS),
    Mutant("mixed_left_weights_on_right_frame", "representations.py",
           "zip(right, weights[9:])", "zip(right, weights[:9])", MIXED_TESTS),
    Mutant("mixed_skip_zero_rational_part", "representations.py",
           "if p3 or q3:", "if p3:", MIXED_TESTS),
    # det, fraction-free elimination over Z[w]
    Mutant("det_prev_not_conjugated", "representations.py",
           "cr, cs, norm = p - q, -q, p * p - p * q + q * q",
           "cr, cs, norm = p, q, p * p - p * q + q * q", DET_TESTS),
    Mutant("det_divide_by_norm_only", "representations.py",
           "new.append(((xr * cr - xsc) // norm, (xr * cs + xs * cr - xsc) // norm))",
           "new.append((xr // norm, xs // norm))", DET_TESTS),
    Mutant("det_lose_swap_sign", "representations.py",
           "sign = -sign", "sign = sign", DET_TESTS[:2]),
    Mutant("det_one_row_denominator", "representations.py",
           "den *= d", "den = d", DET_TESTS[:2]),
    # _rref, Gauss-Jordan elimination over Q(w)
    Mutant("rref_wrong_pivot_inverse", "representations.py",
           "inv = inverses[r]", "inv = inverses[-1]", RREF_TESTS),
    Mutant("rref_skip_clearing_the_top_row", "representations.py",
           "        for i in range(r):\n", "        for i in range(1, r):\n", RREF_TESTS),
    # the Fibonacci derivation audit
    Mutant("lemma_suite_table_at_n_plus_one", "fibonacci.py",
           "enumerate(tables, 1)", "enumerate(tables, 0)",
           ("tests/test_fibonacci.py::test_lemma_suite_matches_the_reference",
            "tests/test_fibonacci.py::test_lemma_suite_matches_the_reference_on_damaged_sides",
            "tests/test_fibonacci.py::test_lemma_suite_statuses_are_frozen",
            "tests/test_acceptance.py::test_criterion_8_norm_closed_form_and_lemmas")),
    # the verified side is not audited once the candidate has failed
    Mutant("lemma_suite_stop_at_first_candidate_failure", "fibonacci.py",
           "lhs == lemma.verified(n) for n, lhs in sides)",
           "lhs == lemma.verified(n) for n, lhs in sides if candidate_ok)",
           ("tests/test_fibonacci.py::test_lemma_suite_matches_the_reference_on_damaged_sides",)),
    Mutant("candidate_form_with_verified_outer_side", "fibonacci.py",
           '_LEMMA["outer_blocks_sum"].candidate(n)', '_LEMMA["outer_blocks_sum"].verified(n)',
           ("tests/test_fibonacci.py::test_candidate_closed_form_disagrees",
            "tests/test_fibonacci.py::test_candidate_closed_form_is_the_sum_of_its_lemma_sides")),
    # table_products, the one structure-table loop: the element product, eta
    # and the reconstruction product
    Mutant("table_products_drop_cross_term", "algebra.py",
           "cross = q1 * q2", "cross = 0", TABLE_TESTS),
    Mutant("table_products_wrong_result_index", "algebra.py",
           "tr, ts, idx = row[k]", "tr, ts, idx = *row[k][:2], (row[k][2] + 1) % 9", TABLE_TESTS),
    # eta, the reduced norm
    Mutant("eta_from_the_wrong_coefficient", "algebra.py",
           "return CharData(tau, pi, eta), adj",
           "return CharData(tau, pi, (self * adj).coeffs[1]), adj",
           ("tests/test_mul_kernel.py::test_reduced_norm_matches_cubic_form",
            "tests/test_mul_kernel.py::test_reduced_norm_matches_cubic_form_on_fixed_inputs",
            "tests/test_mul_kernel.py::test_large_fibonacci_element_times_its_inverse",
            "tests/test_mul_kernel.py::test_eta_is_the_scalar_coefficient_of_z_times_its_adjoint")),
)


# pytest under a hypothesis profile that does not shrink a failing example,
# which can take minutes, or store it in the example database
_PYTEST = """
import sys, pytest
from hypothesis import Phase, settings
settings.register_profile("mutants", phases=(Phase.explicit, Phase.generate), database=None)
sys.exit(pytest.main(sys.argv[1:]))
"""


def _failed_tests(src: Path, tests) -> set | None:
    """Run tests against the package in src; the set of failed node ids, or
    None if pytest could not run them (a collection or usage error)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(src), env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", _PYTEST, "-q", "-p", "no:cacheprovider", "-rf", "--tb=no",
         "--hypothesis-seed=0", "--hypothesis-profile=mutants", *tests],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    if proc.returncode not in (0, 1):
        return None
    return {line.split()[1] for line in proc.stdout.splitlines() if line.startswith("FAILED ")}


def _copy_src(tmp: str, mutant: Mutant | None = None) -> Path:
    target = Path(tmp) / "src"
    shutil.copytree(ROOT / "src", target, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    if mutant is not None:
        path = target / "symbol3" / mutant.path
        text = path.read_text()
        if text.count(mutant.old) != 1:
            raise SystemExit(f"{mutant.name}: the text to replace must occur exactly once")
        path.write_text(text.replace(mutant.old, mutant.new))
    return target


def main() -> int:
    tests = sorted({test for mutant in MUTANTS for test in mutant.tests})
    with tempfile.TemporaryDirectory() as tmp:
        if _failed_tests(_copy_src(tmp), tests) != set():
            print("the listed tests do not all pass on the unmodified source")
            return 2
    survived = 0
    for mutant in MUTANTS:
        with tempfile.TemporaryDirectory() as tmp:
            failed = _failed_tests(_copy_src(tmp, mutant), mutant.tests)
        killed = failed is not None and failed >= set(mutant.tests)
        survived += not killed
        print(f"{'killed' if killed else 'survived':9}{mutant.name}", flush=True)
    print(f"{len(MUTANTS) - survived} of {len(MUTANTS)} mutants killed")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
