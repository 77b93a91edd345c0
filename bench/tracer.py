"""Outside-in tracer: wraps symbol3's layer functions from the benchmark's own
code, for the traced run only, and restores every wrapped attribute after.

Spans are recorded at layer boundaries (element product and above); scalar
arithmetic in `cyclotomic` gets counters only, because a span per scalar op
would cost more than the op.  Spans stay in memory until `write` is called.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

# (module, attribute, span name).  A function is patched on every symbol3
# module that holds it, so names bound by `from ... import` in consumers
# (verify, solvers, cli, the package re-exports) are traced too.
FUNCTION_SPANS = (
    ("symbol3.representations", "lambda_mat", "representations.lambda_gamma"),
    ("symbol3.representations", "gamma_mat", "representations.lambda_gamma"),
    ("symbol3.representations", "det", "representations.det"),
    ("symbol3.representations", "kernel_basis", "representations.rref"),
    ("symbol3.representations", "solve_affine", "representations.rref"),
    ("symbol3.representations", "_rref", "representations.rref"),
    ("symbol3.representations", "reconstruct", "representations.reconstruct"),
    ("symbol3.representations", "reconstruction_frames", "representations.reconstruct"),
    ("symbol3.representations", "_mixed_product", "representations.reconstruct"),
    ("symbol3.solvers", "solve_commute", "solvers.solve"),
    ("symbol3.solvers", "solve_intertwine", "solvers.solve"),
    ("symbol3.solvers", "solve_commutator", "solvers.solve"),
    ("symbol3.solvers", "solve_sylvester", "solvers.solve"),
    ("symbol3.solvers", "structured_instance_search", "solvers.search"),
    ("symbol3.fibonacci", "invertibility_scan", "fibonacci.scan"),
    ("symbol3.fibonacci", "closed_form_norm", "fibonacci.closed_form"),
    ("symbol3.fibonacci", "run_lemma_suite", "fibonacci.lemma_suite"),
    ("symbol3.verify", "run_suite", "verify.run_suite"),
    ("symbol3.cli", "main", "cli.main"),
)

# (module, class, attribute, span name) for methods.
METHOD_SPANS = (
    ("symbol3.algebra", "SymbolElement", "reduced_norm", "algebra.reduced_norm"),
    ("symbol3.algebra", "SymbolElement", "adjoint", "algebra.adjoint"),
    ("symbol3.algebra", "SymbolElement", "inverse", "algebra.inverse"),
    ("symbol3.representations", "MatK", "__mul__", "representations.matmul"),
    ("symbol3.cyclotomic", "CycQ", "__str__", "cyclotomic.parse_format"),
)

# Scalar counters on CycQ.  `__rmul__` is an alias of `__mul__` in the class
# body and is wrapped on its own, or int * CycQ products would be missed.
SCALAR_COUNTERS = (
    ("__mul__", "cyclotomic.mul_count"),
    ("__rmul__", "cyclotomic.mul_count"),
    ("__add__", "cyclotomic.addsub_count"),
    ("__radd__", "cyclotomic.addsub_count"),
    ("__sub__", "cyclotomic.addsub_count"),
    ("__rsub__", "cyclotomic.addsub_count"),
    ("inverse", "cyclotomic.inverse_count"),
)

REPRESENTATION_SPANS = frozenset(
    name for *_, name in FUNCTION_SPANS + METHOD_SPANS if name.startswith("representations.")
)


def symbol3_modules() -> list:
    return [m for n, m in sorted(sys.modules.items()) if n == "symbol3" or n.startswith("symbol3.")]


def _bits(value) -> int:
    """Largest numerator or denominator bit length of a scalar operand."""
    if hasattr(value, "r"):
        return max(_bits(value.r), _bits(value.s))
    if hasattr(value, "denominator"):
        return max(value.numerator.bit_length(), value.denominator.bit_length())
    return 0


class Tracer:
    """Span and counter recorder.  `install` patches, `uninstall` restores."""

    def __init__(self):
        self.spans = []  # (request, span id, parent id, name, start ns, end ns)
        self.self_ns = defaultdict(int)
        self.inclusive_ns = defaultdict(int)  # outermost span of each name only
        self.counts = Counter()
        self.bits_max = 0
        self.request = 0
        self._next_id = 0
        self._stack = []  # [span id, name, start ns, child ns]
        self._open = Counter()
        self._repr_depth = 0
        self._patches = []  # (owner, attribute, original __dict__ value)
        self.missing = []

    # -- recording -------------------------------------------------------

    def _enter(self, name: str):
        self._stack.append([self._next_id, name, time.perf_counter_ns(), 0])
        self._next_id += 1
        self._open[name] += 1
        if name in REPRESENTATION_SPANS:
            self._repr_depth += 1

    def _exit(self):
        end = time.perf_counter_ns()
        span_id, name, start, child = self._stack.pop()
        duration = end - start
        parent = -1
        if self._stack:
            parent = self._stack[-1][0]
            self._stack[-1][3] += duration
        self.spans.append((self.request, span_id, parent, name, start, end))
        self.self_ns[name] += duration - child
        self.counts[name] += 1
        self._open[name] -= 1
        if not self._open[name]:
            self.inclusive_ns[name] += duration
        if name in REPRESENTATION_SPANS:
            self._repr_depth -= 1

    def _span(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit()

        return wrapper

    # -- patching --------------------------------------------------------

    def _set(self, owner, attr: str, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _replace_everywhere(self, original, wrapped):
        for mod in symbol3_modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapped)

    def install(self):
        """Patch every traced name; a name a later symbol3 no longer has is
        listed in `missing` instead of failing the run."""
        from symbol3 import algebra, cli, cyclotomic, solvers, verify  # noqa: F401

        if self._patches:
            raise RuntimeError("tracer already installed")
        self.missing = []
        try:
            for mod_name, attr, name in FUNCTION_SPANS:
                original = getattr(sys.modules[mod_name], attr, None)
                if original is None:
                    self.missing.append(f"{mod_name}.{attr}")
                    continue
                self._replace_everywhere(original, self._span(name, original))
            for mod_name, cls_name, attr, name in METHOD_SPANS:
                cls = getattr(sys.modules[mod_name], cls_name)
                self._set(cls, attr, self._span(name, cls.__dict__[attr]))
            self._install_scalar(cyclotomic.CycQ)
            self._install_algebra(algebra)
            self._install_structured(solvers)
            for check in verify.CHECKS:
                self._set(check, "run", self._span(f"verify.check.{check.name}", check.run))
        except BaseException:
            self.uninstall()
            raise

    def _install_scalar(self, cycq):
        counts = self.counts
        for attr, counter in SCALAR_COUNTERS:
            original = cycq.__dict__[attr]
            if counter == "cyclotomic.mul_count":
                def wrapper(a, b, _f=original):
                    counts["cyclotomic.mul_count"] += 1
                    bits = max(_bits(a), _bits(b))
                    if bits > self.bits_max:
                        self.bits_max = bits
                    return _f(a, b)
            else:
                def wrapper(*args, _f=original, _c=counter):
                    counts[_c] += 1
                    return _f(*args)
            self._set(cycq, attr, functools.wraps(original)(wrapper))
        parse = cycq.__dict__["parse"].__func__
        self._set(cycq, "parse", classmethod(self._span("cyclotomic.parse_format", parse)))

    def _install_algebra(self, algebra):
        element = algebra.SymbolElement
        original_mul = element.__dict__["__mul__"]

        @functools.wraps(original_mul)
        def mul(z, other):
            if not isinstance(other, element):  # scalar scaling, not a product
                return original_mul(z, other)
            if self._repr_depth:
                self.counts["representations.algebra_muls"] += 1
            self._enter("algebra.mul")
            try:
                return original_mul(z, other)
            finally:
                self._exit()

        self._set(element, "__mul__", mul)

        original_table = algebra.SymbolAlgebra.__dict__["table"]

        @functools.wraps(original_table)
        def table(alg):
            if alg._table is None:
                self.counts["algebra.table_builds"] += 1
            return original_table(alg)

        self._set(algebra.SymbolAlgebra, "table", table)

    def _install_structured(self, solvers):
        original = solvers.structured_solutions
        violated = solvers.HypothesisViolated

        @functools.wraps(original)
        def structured(*args, **kwargs):
            self.counts["solvers.structured_calls"] += 1
            try:
                return original(*args, **kwargs)
            except violated:
                self.counts["solvers.structured_violations"] += 1
                raise

        self._replace_everywhere(original, structured)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output ----------------------------------------------------------

    def write(self, path):
        """One JSON array per span: request, id, parent id, name, start/end ns."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")
