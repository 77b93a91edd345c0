"""The benchmark's four workloads.

Each workload makes its inputs from the seed with its own generator (never
symbol3's `verify.random_element`), so a change to the identity battery
cannot change a workload.  A workload hands out deterministic batches of
requests; `run` is the timed call into symbol3 and `check` is the untimed
exactness gate.  symbol3 functions are looked up on the package at call time,
so the tracer's wrappers are seen.

`run` returns (output, core seconds or None): the core time covers the
library operation alone, without JSON parsing and formatting, and feeds the
per-request-kind medians.  `check` returns (attempted, failed, text), where
text is the formatted output that goes into the run's digest.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import time
from fractions import Fraction

import reference as ref

# The three parameter pairs (a, b) = (1, 1), (2, 3), (w, 1 + w), as text.
PARAMS = (("1", "1"), ("2", "3"), ("0+1*w", "1+1*w"))

_SETUP_TABLES = (
    "for a, b in {params!r}:\n"
    "    s3.SymbolAlgebra(s3.CycQ.parse(a), s3.CycQ.parse(b)).table()\n"
).format(params=PARAMS)


def random_scalar(rng: random.Random):
    """Small rational box: numerators in [-3, 3], denominators in {1, 2, 3}."""
    return (
        Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3))),
        Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3))),
    )


def random_element(rng: random.Random):
    return tuple(random_scalar(rng) for _ in range(9))


def invertible_element(rng: random.Random, table):
    z = random_element(rng)
    while ref.norm(table, z) == ref.ZERO:
        z = random_element(rng)
    return z


def pairs(values) -> list:
    """symbol3 scalars to reference pairs, through the text grammar."""
    return [ref.parse(str(v)) for v in values]


class Request:
    __slots__ = ("kind", "payload", "expect")

    def __init__(self, kind, payload, expect):
        self.kind = kind
        self.payload = payload  # what symbol3 receives
        self.expect = expect  # reference data for the check


class Workload:
    """Common workload interface; see the module docstring."""

    name = ""
    min_batches = 1  # batches a run always makes; the digest covers these
    warmup_batches = 1  # untimed batches first, so lazy caches are filled
    trace_batches = 1  # batches the traced run repeats under the tracer
    setup_code = ""  # run in a fresh interpreter with `s3` = symbol3

    def __init__(self, s3, seed: int):
        self.s3 = s3
        self.seed = seed

    def rng(self, b: int) -> random.Random:
        return random.Random(f"{self.seed}:{self.name}:{b}")


class Elements(Workload):
    """Single operations on random elements, read as element JSON and
    written back through the scalar grammar."""

    name = "elements"
    kinds = ("scalar_ops", "mul", "reduced_norm", "char_poly", "adjoint", "inverse", "twist")
    min_batches = 3
    trace_batches = 3
    setup_code = _SETUP_TABLES

    def __init__(self, s3, seed):
        super().__init__(s3, seed)
        self.tables = {p: ref.structure(ref.parse(p[0]), ref.parse(p[1])) for p in PARAMS}

    def batch(self, b: int) -> list:
        rng = self.rng(b)
        out = []
        for a, bb in PARAMS:
            table = self.tables[(a, bb)]
            for kind in self.kinds:
                z = invertible_element(rng, table) if kind == "inverse" else random_element(rng)
                w = random_element(rng) if kind == "mul" else None
                k = rng.choice((1, 2)) if kind == "twist" else None
                texts = [self._json(a, bb, e) for e in (z, w) if e is not None]
                out.append(Request(kind, (texts, k), (table, z, w, k)))
        return out

    @staticmethod
    def _json(a, b, z) -> str:
        return json.dumps({"a": a, "b": b, "coeffs": [ref.fmt(c) for c in z]})

    def run(self, req):
        s3 = self.s3
        texts, k = req.payload
        z, *rest = [s3.element_from_dict(json.loads(t)) for t in texts]
        kind = req.kind
        t0 = time.perf_counter()
        if kind == "scalar_ops":
            values = []
            for u, v in zip(z.coeffs, z.coeffs[1:]):
                values += (u + v, u - v, u * v)
                if v:
                    values.append(u / v)
        elif kind == "mul":
            values = (z * rest[0]).coeffs
        elif kind == "reduced_norm":
            values = (z.reduced_norm(),)
        elif kind == "char_poly":
            values = tuple(z.char_poly())
        elif kind == "adjoint":
            values = z.adjoint().coeffs
        elif kind == "inverse":
            values = z.inverse().coeffs
        else:
            values = z.twist(k).coeffs
        core = time.perf_counter() - t0
        text = json.dumps([str(v) for v in values])
        return (text, values), core

    def check(self, req, out):
        text, values = out
        strings = json.loads(text)
        cycq = self.s3.CycQ
        ok = len(strings) == len(values) and all(
            cycq.parse(s) == v for s, v in zip(strings, values)
        )
        if ok:
            ok = self._expected(req, [ref.parse(s) for s in strings])
        return 1, 0 if ok else 1, text

    def _expected(self, req, got) -> bool:
        table, z, w, k = req.expect
        kind = req.kind
        if kind == "scalar_ops":
            want = []
            for u, v in zip(z, z[1:]):
                want += (ref.add(u, v), ref.sub(u, v), ref.mul(u, v))
                if v != ref.ZERO:
                    want.append(ref.mul(u, ref.inv(v)))
            return got == want
        if kind == "mul":
            return tuple(got) == ref.el_mul(table, z, w)
        if kind == "twist":
            return tuple(got) == ref.twist(z, k)
        if kind == "inverse":  # z * z^-1 = 1
            return ref.el_mul(table, z, tuple(got)) == ref.scalar(ref.ONE)
        tau, pi, adj, z_adj = ref.char_data(table, z)
        eta = z_adj[0]
        if kind == "reduced_norm":  # z * z* = eta, with the reference adjoint
            return got == [eta] and z_adj == ref.scalar(eta)
        if kind == "adjoint":
            return tuple(got) == adj and z_adj == ref.scalar(eta)
        # char_poly: Cayley-Hamilton with symbol3's coefficients.
        g_tau, g_pi, g_eta = got
        sq = ref.el_mul(table, z, z)
        ch = ref.el_sub(ref.el_mul(table, z, sq), ref.el_scale(g_tau, sq))
        ch = ref.el_sub(ref.el_add(ch, ref.el_scale(g_pi, z)), ref.scalar(g_eta))
        return (g_tau, g_pi, g_eta) == (tau, pi, eta) and ch == ref.scalar(ref.ZERO)


class Linear(Workload):
    """9x9 representations, elimination and the four solvers on random
    elements passed in as symbol3 objects."""

    name = "linear"
    kinds = (
        "lambda_mat", "gamma_mat", "matmul", "det", "kernel_basis",
        "solve_sylvester", "solve_intertwine", "solve_commutator", "reconstruct",
    )
    min_batches = 1
    trace_batches = 1
    setup_code = _SETUP_TABLES

    def __init__(self, s3, seed):
        super().__init__(s3, seed)
        self.algebras = {}
        for a, b in PARAMS:
            alg = s3.SymbolAlgebra(s3.CycQ.parse(a), s3.CycQ.parse(b))
            alg.table()
            self.algebras[(a, b)] = (alg, ref.structure(ref.parse(a), ref.parse(b)))

    def batch(self, b: int) -> list:
        rng = self.rng(b)
        return [
            self._request(kind, rng, alg, table)
            for alg, table in self.algebras.values()
            for kind in self.kinds
        ]

    def _request(self, kind, rng, alg, table):
        cycq = self.s3.CycQ

        def el(e):
            return alg.element([cycq(*u) for u in e])

        def lam(e):
            cols = lambda_columns(table, e)
            return self.s3.MatK([[cycq(*cols[k][i]) for k in range(9)] for i in range(9)])

        z = random_element(rng)
        if kind in ("lambda_mat", "gamma_mat", "reconstruct"):
            return Request(kind, (el(z),), (table, z))
        if kind == "kernel_basis":  # solve_commute: A Z - Z A = 0
            return Request(kind, (el(z),), (table, z, z, ref.scalar(ref.ZERO), None))
        if kind == "det":
            return Request(kind, (lam(z),), (table, z))
        if kind == "matmul":
            w = random_element(rng)
            return Request(kind, (lam(z), lam(w)), (table, z, w))
        if kind == "solve_sylvester":
            bb, w = random_element(rng), random_element(rng)
            c = ref.el_sub(ref.el_mul(table, z, w), ref.el_mul(table, w, bb))
            return Request(kind, (el(z), el(bb), el(c)), (table, z, bb, c, w))
        if kind == "solve_intertwine":
            w = invertible_element(rng, table)
            bb = ref.el_mul(table, ref.el_inverse(table, w), ref.el_mul(table, z, w))
            return Request(kind, (el(z), el(bb)), (table, z, bb, ref.scalar(ref.ZERO), w))
        x = ref.monomial(1)  # solve_commutator with C = A x - x A
        c = ref.el_sub(ref.el_mul(table, z, x), ref.el_mul(table, x, z))
        return Request(kind, (el(z), el(c)), (table, z, z, c, x))

    def run(self, req):
        s3 = self.s3
        p = req.payload
        kind = req.kind
        if kind == "lambda_mat":
            return s3.lambda_mat(p[0]), None
        if kind == "gamma_mat":
            return s3.gamma_mat(p[0]), None
        if kind == "matmul":
            return p[0] * p[1], None
        if kind == "det":
            return s3.det(p[0]), None
        if kind == "kernel_basis":
            return s3.solve_commute(p[0]), None
        if kind == "solve_sylvester":
            return s3.solve_sylvester(*p), None
        if kind == "solve_intertwine":
            return s3.solve_intertwine(*p), None
        if kind == "solve_commutator":
            return s3.solve_commutator(*p), None
        return s3.reconstruct(p[0]), None

    def check(self, req, out):
        kind = req.kind
        table, z = req.expect[:2]
        if kind in ("lambda_mat", "gamma_mat", "matmul"):
            cells = pairs(v for row in out.rows for v in row)
            got = [tuple(cells[9 * i + k] for i in range(9)) for k in range(9)]
            if kind == "lambda_mat":
                ok = got == lambda_columns(table, z)
            elif kind == "gamma_mat":
                ok = got == [ref.el_mul(table, ref.monomial(k), z) for k in range(9)]
            else:  # Lambda(z) Lambda(w) = Lambda(z w)
                ok = got == lambda_columns(table, ref.el_mul(table, z, req.expect[2]))
            text = " ".join(map(ref.fmt, cells))
        elif kind == "det":  # det Lambda(z) = eta(z)^3
            (d,) = pairs([out])
            eta = ref.norm(table, z)
            ok = d == ref.mul(eta, ref.mul(eta, eta))
            text = ref.fmt(d)
        elif kind == "reconstruct":  # M9 Lambda(z) N9 = 3z
            got = tuple(pairs(out.coeffs))
            ok = got == ref.el_scale((Fraction(3), Fraction(0)), z)
            text = " ".join(map(ref.fmt, got))
        else:
            ok, text = self._check_solution(req, out)
        return 1, 0 if ok else 1, text

    def _check_solution(self, req, sol):
        """A Z - Z B = C on the particular solution, A K = K B on the kernel."""
        table, a, b, c, built = req.expect
        if sol.particular is None:
            return False, sol.verdict.value
        part = tuple(pairs(sol.particular.coeffs))
        kernel = [tuple(pairs(k.coeffs)) for k in sol.kernel]

        def residual(e):
            return ref.el_sub(ref.el_mul(table, a, e), ref.el_mul(table, e, b))

        ok = residual(part) == c and all(residual(k) == ref.scalar(ref.ZERO) for k in kernel)
        if req.kind in ("kernel_basis", "solve_intertwine"):
            ok = ok and bool(kernel)  # 1 and A, or the conjugator W, solve it
        if req.kind == "solve_sylvester" and sol.verdict.value == "Unique":
            ok = ok and part == built
        text = sol.verdict.value + " " + " | ".join(
            " ".join(map(ref.fmt, e)) for e in [part] + kernel
        )
        return ok, text


def lambda_columns(table, z) -> list:
    """Columns of Lambda(z): the coordinates of z * b_k."""
    return [ref.el_mul(table, z, ref.monomial(k)) for k in range(9)]


class Fibonacci(Workload):
    """Fibonacci elements F_n at large n (coefficients of thousands of bits)
    plus one derivation-audit lemma suite per pass."""

    name = "fibonacci"
    # n = 500 k + jitter for k = 1..12.  The largest inverse coefficients then
    # have about 12,600 bits, under Python's 4300-digit limit on int-to-str
    # conversion, which the scalar grammar's formatting would otherwise hit.
    n_steps = tuple(500 * k for k in range(1, 13))
    min_batches = 2
    trace_batches = 1
    setup_code = "s3.fibonacci.UNIT_ALGEBRA.table()\n"

    def batch(self, b: int) -> list:
        rng = self.rng(b)
        out = [Request("lemma_suite", 30, None)]
        for n in self.n_steps:
            out.append(Request("fib_n", n + rng.randint(0, 49), None))
        return out

    def run(self, req):
        s3 = self.s3
        if req.kind == "lemma_suite":
            return s3.run_lemma_suite(req.payload), None
        n = req.payload
        fe = s3.fib_element(n)
        inv = fe.inverse()
        return (fe.reduced_norm(), s3.closed_form_norm(n), inv, fe * inv), None

    def check(self, req, out):
        if req.kind == "lemma_suite":
            ok = bool(out) and all(r["candidate_ok"] or r["verified_ok"] for r in out)
            return 1, 0 if ok else 1, json.dumps(out, sort_keys=True)
        eta, closed, inv, prod = out
        ok = eta == closed and prod == self.s3.fibonacci.UNIT_ALGEBRA.one()
        text = " ".join([str(req.payload), str(eta)] + [str(c) for c in inv.coeffs])
        return 1, 0 if ok else 1, text


class Battery(Workload):
    """`symbol3 verify --suite all` in-process through `cli.main`."""

    name = "battery"
    samples = 2
    nmax = 30
    min_batches = 3
    trace_batches = 1
    warmup_batches = 0  # nothing lazy to fill; one invocation takes seconds
    setup_code = "import symbol3.cli\n"

    def __init__(self, s3, seed):
        super().__init__(s3, seed)
        import symbol3.cli  # noqa: F401

        self.first_report = None

    def argv(self) -> list:
        return [
            "verify", "--suite", "all", "--nmax", str(self.nmax),
            "--samples", str(self.samples), "--seed", str(self.seed),
        ]

    def batch(self, b: int) -> list:
        return [Request("verify", self.argv(), None)]

    def run(self, req):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.s3.cli.main(req.payload)
        return (code, out.getvalue()), None

    def check(self, req, out):
        """One attempt per battery check; all fail if the exit code is not 0
        or the report bytes differ from the run's first report."""
        code, text = out
        if self.first_report is None:
            self.first_report = text
        n_checks = len(self.s3.verify.CHECKS)
        try:
            checks = json.loads(text)["checks"]
        except (ValueError, KeyError):
            return n_checks, n_checks, text
        if code != 0 or text != self.first_report or len(checks) != n_checks:
            return n_checks, n_checks, text
        return n_checks, sum(1 for c in checks if c["pass"] is not True), text


WORKLOADS = {w.name: w for w in (Elements, Linear, Fibonacci, Battery)}
