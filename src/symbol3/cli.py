"""Command-line surface with bit-exact JSON input and output.

Scalars use the text grammar R, R+S*w or R-S*w with rational R, S (w denotes
the cube root of unity).  Elements are nine such scalars in the fixed basis
order 1, x, x^2, y, y^2, xy, x^2y^2, x^2y, xy^2, either as a JSON object
{"a": ..., "b": ..., "coeffs": [...]} or inline via --coeffs with --a/--b.

Exit codes: 0 success, 1 domain error (not invertible, parameter mismatch,
violated hypothesis, failed verification), 2 malformed input or usage.
"""

from __future__ import annotations

import argparse
import json
import operator
import sys

from .algebra import (
    NotInvertible,
    ParamsMismatch,
    SymbolAlgebra,
    SymbolElement,
    element_from_dict,
    element_to_dict,
)
from .cyclotomic import CycQ
from .fibonacci import (
    UnsupportedParams,
    fib_element,
    generalized_element,
    invertibility_row,
    invertibility_scan,
    run_lemma_suite,
)
from .representations import IdentityViolation, MatK, gamma_mat, lambda_mat
from .solvers import (
    HypothesisViolated,
    SolutionSet,
    VerificationFailed,
    solve_commute,
    solve_commutator,
    solve_intertwine,
    solve_sylvester,
)
from .verify import SUITES, run_suite


class InputError(ValueError):
    """Malformed scalar, coefficient list or element JSON (exit code 2)."""


def _algebra_from_args(args) -> SymbolAlgebra:
    return SymbolAlgebra(CycQ.parse(args.a), CycQ.parse(args.b))


def _element_from_file(path: str) -> SymbolElement:
    try:
        with open(path) as fh:
            data = json.load(fh)
        return element_from_dict(data)
    except OSError as exc:
        raise InputError(f"cannot read element file: {exc}") from None
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        raise InputError(f"bad element JSON in {path}: {exc}") from None


def _read_element(path, coeffs, args, missing: str, algebra=None) -> SymbolElement:
    """The element in the JSON file at path, else the inline list coeffs over
    algebra, by default --a/--b; those are parsed only here, so a malformed
    --a beside --in is never read."""
    if path:
        return _element_from_file(path)
    if not coeffs:
        raise InputError(missing)
    if algebra is None:
        algebra = _algebra_from_args(args)
    parts = coeffs.split(",")
    if len(parts) != 9:
        raise InputError("--coeffs needs exactly 9 comma-separated scalars")
    return algebra.element([CycQ.parse(p) for p in parts])


def _primary_element(args) -> SymbolElement:
    return _read_element(args.in_file, args.coeffs, args,
                         "element required: use --in FILE or --coeffs LIST")


def _matrix_json(m: MatK) -> list:
    return [str(m.rows[i][j]) for i in range(9) for j in range(9)]


def _solution_json(sol: SolutionSet) -> dict:
    return {
        "verdict": sol.verdict.value,
        "particular": None if sol.particular is None else element_to_dict(sol.particular),
        "kernel": [element_to_dict(k) for k in sol.kernel],
        "notes": list(sol.notes),
    }


def _write_out(path: str, text: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write output file: {exc}") from None


def _emit(payload, args) -> None:
    text = json.dumps(payload, separators=(",", ":")) + "\n"
    if getattr(args, "out", None):
        _write_out(args.out, text)
    else:
        sys.stdout.write(text)


def _int_at_least(low: int):
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    parse.__name__ = "int"  # keeps argparse's "invalid int value" message
    return parse


def _add_element_options(sub, second: bool = False):
    source = sub.add_mutually_exclusive_group()
    source.add_argument("--in", dest="in_file", metavar="FILE", help="element JSON file")
    source.add_argument("--coeffs", metavar="LIST", help="9 comma-separated scalars")
    sub.add_argument("--a", default="1", help="algebra parameter a (with --coeffs)")
    sub.add_argument("--b", default="1", help="algebra parameter b (with --coeffs)")
    if second:
        source = sub.add_mutually_exclusive_group()
        source.add_argument("--in2", dest="in_file2", metavar="FILE", help="second element JSON file")
        source.add_argument("--coeffs2", metavar="LIST", help="second element coefficients")
    sub.add_argument("--out", metavar="FILE", help="write the JSON result to FILE")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symbol3",
        description="exact arithmetic in degree-3 symbol algebras over Q(w)",
        epilog=(
            "coefficient lists are ordered by the basis "
            "1, x, x^2, y, y^2, xy, x^2y^2, x^2y, xy^2; "
            "scalars use the grammar R, R+S*w or R-S*w with rational R, S"
        ),
    )
    subs = parser.add_subparsers(dest="command", required=True)

    for name, help_text, op in (
        ("mul", "product of two elements", operator.mul),
        ("add", "sum of two elements", operator.add),
    ):
        sub = subs.add_parser(name, help=help_text)
        sub.set_defaults(handler=_cmd_binary, op=op)
        _add_element_options(sub, second=True)

    # each unary command emits payload(z, args) for its element z
    for name, help_text, payload in (
        ("norm", "reduced norm eta(z)", lambda z, args: {"eta": str(z.reduced_norm())}),
        ("trace", "reduced trace tau(z)", lambda z, args: {"tau": str(z.reduced_trace())}),
        ("charpoly", "characteristic polynomial coefficients (tau, pi, eta)",
         lambda z, args: dict(zip(("tau", "pi", "eta"), map(str, z.char_poly())))),
        ("adjoint", "adjoint z* with z z* = eta(z)", lambda z, args: element_to_dict(z.adjoint())),
        ("inverse", "inverse z*/eta(z)", lambda z, args: element_to_dict(z.inverse())),
    ):
        sub = subs.add_parser(name, help=help_text)
        sub.set_defaults(handler=_cmd_unary, payload=payload)
        _add_element_options(sub)

    sub = subs.add_parser("twist", help="scale the y-degree blocks by powers of w")
    sub.set_defaults(handler=_cmd_unary, payload=lambda z, args: element_to_dict(z.twist(args.k)))
    sub.add_argument("--k", type=int, choices=(1, 2), required=True)
    _add_element_options(sub)

    sub = subs.add_parser("repr", help="9x9 matrix of left or right multiplication")
    sub.set_defaults(handler=_cmd_unary, payload=lambda z, args: _matrix_json(
        lambda_mat(z) if args.rep == "lambda" else gamma_mat(z)))
    sub.add_argument("--rep", choices=("lambda", "gamma"), default="lambda")
    _add_element_options(sub)

    sub = subs.add_parser("solve", help="linear equations with algebra coefficients")
    sub.set_defaults(handler=_cmd_solve)
    sub.add_argument(
        "--eq", required=True, choices=("commute", "intertwine", "commutator", "sylvester")
    )
    sub.add_argument("--a", default="1", help="algebra parameter a")
    sub.add_argument("--b", default="1", help="algebra parameter b")
    for letter in ("A", "B", "C"):
        source = sub.add_mutually_exclusive_group()
        source.add_argument(f"--{letter}", dest=f"elem_{letter.lower()}", metavar="LIST",
                            help=f"coefficients of {letter}")
        source.add_argument(f"--{letter}-in", dest=f"elem_{letter.lower()}_in", metavar="FILE",
                            help=f"element JSON file for {letter}")
    sub.add_argument("--out", metavar="FILE")

    sub = subs.add_parser("fib", help="Fibonacci elements and the invertibility scan")
    sub.set_defaults(handler=_cmd_fib)
    sub.add_argument("--n", type=int, help="single element index")
    sub.add_argument("--p", type=int, help="Horadam seed p (with --q)")
    sub.add_argument("--q", type=int, help="Horadam seed q (with --p)")
    sub.add_argument("--check-invertible", action="store_true",
                     help="report eta and invertibility instead of the element")
    sub.add_argument("--scan", type=_int_at_least(0), metavar="NMAX",
                     help="norm/invertibility report for n = 0..NMAX")
    sub.add_argument("--lemmas", action="store_true",
                     help="include the derivation-audit table in the scan report")
    sub.add_argument("--a", default="1")
    sub.add_argument("--b", default="1")
    sub.add_argument("--out", metavar="FILE")

    sub = subs.add_parser("verify", help="run the identity battery")
    sub.set_defaults(handler=_cmd_verify)
    sub.add_argument("--suite", choices=SUITES, default="all")
    sub.add_argument("--nmax", type=_int_at_least(1), default=30)
    sub.add_argument("--samples", type=_int_at_least(1), default=50)
    sub.add_argument("--seed", type=int, default=7)
    sub.add_argument("--corrupt-fixture", action="store_true",
                     help="negative control: damage one fixture expectation")
    sub.add_argument("--out", metavar="FILE")
    sub.add_argument("--timings", metavar="FILE",
                     help="write each check's wall seconds as JSON to FILE (stdout is unchanged)")

    return parser


def _cmd_binary(args) -> int:
    z1 = _primary_element(args)
    z2 = _read_element(args.in_file2, args.coeffs2, args,
                       "second element required: use --in2 FILE or --coeffs2 LIST", z1.algebra)
    _emit(element_to_dict(args.op(z1, z2)), args)
    return 0


def _cmd_unary(args) -> int:
    _emit(args.payload(_primary_element(args), args), args)
    return 0


def _cmd_solve(args) -> int:
    algebra = _algebra_from_args(args)

    def need(letter: str) -> SymbolElement:
        missing = f"--{letter.upper()} or --{letter.upper()}-in required for --eq {args.eq}"
        return _read_element(getattr(args, f"elem_{letter}_in"), getattr(args, f"elem_{letter}"),
                             args, missing, algebra)

    big_a = need("a")
    if args.eq == "commute":
        sol = solve_commute(big_a)
    elif args.eq == "intertwine":
        sol = solve_intertwine(big_a, need("b"))
    elif args.eq == "commutator":
        sol = solve_commutator(big_a, need("c"))
    else:
        sol = solve_sylvester(big_a, need("b"), need("c"))
    _emit(_solution_json(sol), args)
    return 0


def _cmd_fib(args) -> int:
    if args.scan is None and args.lemmas:
        raise InputError("--lemmas needs --scan")
    if args.scan is not None and (
        args.check_invertible or any(v is not None for v in (args.n, args.p, args.q))
    ):
        raise InputError("--scan takes none of --n, --p, --q and --check-invertible")
    algebra = _algebra_from_args(args)
    if args.scan is not None:
        report = invertibility_scan(args.scan, algebra)
        if args.lemmas:
            report["lemmas"] = run_lemma_suite()
        _emit(report, args)
        return 0
    if args.n is None:
        raise InputError("fib needs --n or --scan")
    if (args.p is None) != (args.q is None):
        raise InputError("--p and --q must be given together")
    if args.p is not None:
        element = generalized_element(args.n, args.p, args.q, algebra)
    else:
        element = fib_element(args.n, algebra)
    if args.check_invertible:
        _emit(invertibility_row(args.n, element), args)
    else:
        _emit(element_to_dict(element), args)
    return 0


def _cmd_verify(args) -> int:
    for path in (args.out, args.timings):
        if path:
            # an unwritable --out or --timings fails here, not after the whole battery
            _write_out(path, "")
    timings = {} if args.timings else None
    report = run_suite(
        suite=args.suite,
        nmax=args.nmax,
        samples=args.samples,
        seed=args.seed,
        corrupt_fixture=args.corrupt_fixture,
        timings=timings,
    )
    _emit(report, args)
    if args.timings:
        _write_out(args.timings, json.dumps(timings, indent=1) + "\n")
    failed = [row["name"] for row in report["checks"] if not row["pass"]]
    if failed:
        print(f"FAILED checks: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (
        NotInvertible,
        ParamsMismatch,
        HypothesisViolated,
        VerificationFailed,
        UnsupportedParams,
        IdentityViolation,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
