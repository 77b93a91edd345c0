from symbol3.verify import run_suite

# the rows whose shared body runs no case when samples is 0
ZERO_CASE_ROWS = {
    "lambda_gamma_morphisms", "vector_representation", "norm_trace_coherence",
    "adjoint_char_poly", "twist_invariance_unit", "reconstruction", "commute_solver",
}


def test_no_row_passes_on_zero_cases():
    report = run_suite("all", nmax=6, samples=0)
    assert {row["name"] for row in report["checks"] if not row["pass"]} == ZERO_CASE_ROWS
