"""symbol3 benchmark: one workload per invocation.

    python3 bench/run.py --workload elements --seed 1 --seconds 15 --trace 0

Single process, single thread, closed loop: each request is issued after the
previous one returns.  Requests run in deterministic batches made from the
seed; every result is checked exactly outside the timed span.  The last line
of stdout is one JSON object with keys correct, attempted, failed, metrics:
the end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".bench_out"

SETUP_PROBES = 5  # fresh interpreters timed per run; setup_s is their median
BATCH_QUANTILE = 0.9  # per-batch figures are reported at this quantile

# Metric order and units, as declared in BENCHMARK.json.
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("wall_s", "s"),
    ("pass_frac", "ratio"),
    ("peak_rss_mb", "MB"),
)

CHECK_NAMES = (
    "lambda_gamma_morphisms", "vector_representation", "norm_trace_coherence",
    "adjoint_char_poly", "twist_invariance_unit", "twist_invariance_probe",
    "reconstruction", "reconstruction_frame_variant", "fixture_tables",
    "commute_solver", "centralizer_of_x", "sylvester_roundtrip",
    "commutator_solver", "intertwine_conjugate", "structured_solutions",
    "sequence_identities", "fibonacci_elements", "norm_closed_form",
    "norm_closed_form_general_a", "norm_candidate_audit", "norm_lemma_audit",
    "invertibility_scan", "cube_sum_factorization",
)

# Per-request-kind medians: metric -> (workload, request kind).
KIND_MEDIANS = {
    "algebra.mul_ms": ("elements", "mul"),
    "algebra.reduced_norm_ms": ("elements", "reduced_norm"),
    "algebra.char_poly_ms": ("elements", "char_poly"),
    "algebra.inverse_ms": ("elements", "inverse"),
    "representations.lambda_mat_ms": ("linear", "lambda_mat"),
    "representations.matmul_ms": ("linear", "matmul"),
    "representations.det_ms": ("linear", "det"),
    "representations.kernel_basis_ms": ("linear", "kernel_basis"),
    "representations.reconstruct_ms": ("linear", "reconstruct"),
    "solvers.solve_sylvester_ms": ("linear", "solve_sylvester"),
}


def per_layer_metrics(tracer, kind_ms: dict, untraced_s: float, traced_s: float) -> dict:
    """Every per-layer metric, in BENCHMARK.json order: name -> (value, unit)."""
    c, own, incl = tracer.counts, tracer.self_ns, tracer.inclusive_ns
    s = lambda ns: ns / 1e9  # noqa: E731
    calls = c["solvers.structured_calls"]
    hits = calls - c["solvers.structured_violations"]
    out = {
        "cyclotomic.mul_count": (c["cyclotomic.mul_count"], "count"),
        "cyclotomic.addsub_count": (c["cyclotomic.addsub_count"], "count"),
        "cyclotomic.inverse_count": (c["cyclotomic.inverse_count"], "count"),
        "cyclotomic.operand_bits_max": (tracer.bits_max, "bits"),
        "cyclotomic.parse_format_s": (s(own["cyclotomic.parse_format"]), "s"),
        "algebra.mul_count": (c["algebra.mul"], "count"),
        "algebra.mul_self_s": (s(own["algebra.mul"]), "s"),
        "algebra.reduced_norm_self_s": (s(own["algebra.reduced_norm"]), "s"),
        "algebra.adjoint_self_s": (s(own["algebra.adjoint"]), "s"),
        "algebra.inverse_self_s": (s(own["algebra.inverse"]), "s"),
        "algebra.table_builds": (c["algebra.table_builds"], "count"),
        "representations.lambda_gamma_count": (c["representations.lambda_gamma"], "count"),
        "representations.lambda_gamma_self_s": (s(own["representations.lambda_gamma"]), "s"),
        "representations.matmul_count": (c["representations.matmul"], "count"),
        "representations.matmul_self_s": (s(own["representations.matmul"]), "s"),
        "representations.det_count": (c["representations.det"], "count"),
        "representations.det_self_s": (s(own["representations.det"]), "s"),
        "representations.rref_self_s": (s(own["representations.rref"]), "s"),
        "representations.reconstruct_self_s": (s(own["representations.reconstruct"]), "s"),
        "representations.algebra_muls": (c["representations.algebra_muls"], "count"),
        "solvers.solve_count": (c["solvers.solve"], "count"),
        "solvers.solve_self_s": (s(own["solvers.solve"]), "s"),
        "solvers.search_s": (s(incl["solvers.search"]), "s"),
        "solvers.structured_hit_ratio": (hits / calls if calls else 0.0, "ratio"),
        "fibonacci.scan_s": (s(incl["fibonacci.scan"]), "s"),
        "fibonacci.closed_form_s": (s(incl["fibonacci.closed_form"]), "s"),
        "fibonacci.lemma_suite_s": (s(incl["fibonacci.lemma_suite"]), "s"),
        "cli.overhead_s": (s(incl["cli.main"] - incl["verify.run_suite"]), "s"),
        "trace.untraced_wall_s": (untraced_s, "s"),
        "trace.traced_wall_s": (traced_s, "s"),
        "trace.overhead_s": (traced_s - untraced_s, "s"),
    }
    for metric in KIND_MEDIANS:
        out[metric] = (kind_ms.get(metric, 0.0), "ms")
    for name in CHECK_NAMES:
        out[f"verify.check.{name}_s"] = (s(incl[f"verify.check.{name}"]), "s")
    return out


def not_applicable(metrics: dict, workload: str) -> list:
    """Lines naming the per-layer metrics this workload leaves at zero, by reason."""
    other_kind, unused = [], []
    for name, (value, _) in metrics.items():
        if value or name.startswith("trace."):
            continue
        if name in KIND_MEDIANS and KIND_MEDIANS[name][0] != workload:
            other_kind.append(name)
        else:
            unused.append(name)
    out = []
    if other_kind:
        out.append("not applicable (request kind of another workload): " + ", ".join(other_kind))
    if unused:
        out.append("not applicable (not exercised by this workload): " + ", ".join(unused))
    return out


def environment() -> dict:
    import symbol3.cyclotomic as cyc

    rational = getattr(cyc, "_rational", None)
    backend = "n/a" if rational is None else f"{rational.__module__}.{rational.__qualname__}"
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "commit": commit(),
        "src_sha256": source_digest(),
        "rational_backend": backend,
    }


def commit() -> str:
    """HEAD of the checkout's git directory, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = git / ref
        if path.exists():
            return path.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "symbol3").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def measure_setup(workload_cls) -> float:
    """Median time, in fresh interpreters, to import symbol3 and build the
    workload's algebras and structure tables.  One discarded probe first,
    so that compiling bytecode into __pycache__ is not counted."""
    code = (
        "import sys, time\n"
        "t0 = time.perf_counter()\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "import symbol3 as s3\n"
        + workload_cls.setup_code
        + "print(repr(time.perf_counter() - t0))\n"
    )
    times = []
    for _ in range(SETUP_PROBES + 1):
        done = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, timeout=120
        )
        if done.returncode != 0:
            raise RuntimeError(f"setup probe failed: {done.stderr.strip()}")
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times[1:])


class Measurement:
    """Timed batches of one workload, each checked after it is timed."""

    def __init__(self, workload):
        self.workload = workload
        self.latencies = []
        self.core = defaultdict(list)  # request kind -> core seconds
        self.batch_walls = []
        self.batch_p50s = []  # median request latency of each batch
        self.batch_maxes = []  # slowest request of each batch
        self.attempted = 0
        self.failed = 0
        self.texts = []  # formatted outputs of the first min_batches batches
        self.digest = hashlib.sha256()

    def run_batch(self, b: int, tracer=None):
        """Time batch b, under the tracer if one is given, then check it."""
        w = self.workload
        reqs = w.batch(b)
        outs = []
        if tracer is not None:
            tracer.install()
        try:
            start = time.perf_counter()
            for i, req in enumerate(reqs):
                if tracer is not None:
                    tracer.request = b * 1_000_000 + i
                t0 = time.perf_counter()
                out, core = w.run(req)
                t1 = time.perf_counter()
                outs.append(out)
                self.latencies.append(t1 - t0)
                self.core[req.kind].append(t1 - t0 if core is None else core)
            wall = time.perf_counter() - start
        finally:
            if tracer is not None:
                tracer.uninstall()
        self.batch_walls.append(wall)
        self.batch_p50s.append(statistics.median(self.latencies[-len(reqs):]))
        self.batch_maxes.append(max(self.latencies[-len(reqs):]))
        for req, out in zip(reqs, outs):
            attempted, failed, text = w.check(req, out)
            self.attempted += attempted
            self.failed += failed
            if b < w.min_batches:
                self.texts.append(text)
                self.digest.update(text.encode() + b"\n")
        return wall

    def warm_up(self):
        """Untimed, unchecked batches on a throwaway copy of the workload, so
        that lazy caches (the Fibonacci table, bytecode) are filled first."""
        w = self.workload
        warm = type(w)(w.s3, w.seed)
        for b in range(w.warmup_batches):
            for req in warm.batch(b):
                warm.run(req)

    def loop(self, seconds: float, min_batches: int):
        timed = 0.0
        b = 0
        while b < min_batches or timed < seconds:
            timed += self.run_batch(b)
            b += 1
        return timed


def slow_quantile(values: list) -> float:
    """The value that BATCH_QUANTILE of the batches meet (nearest rank)."""
    ordered = sorted(values)
    return ordered[math.ceil(BATCH_QUANTILE * len(ordered)) - 1]


def end_to_end(m: Measurement, setup_s: float):
    """The end-to-end metrics and a note on how they were taken.

    The machine's speed may switch between a fast and a slow state during a
    run.  A median or mean pooled over the run follows the share of time
    spent in each state, which differs from run to run; the 90th percentile
    of per-batch figures lands in the slow state, which every run meets.
    Every batch of a workload holds the same mix of request kinds."""
    wall = slow_quantile(m.batch_walls)
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": len(m.latencies) / len(m.batch_walls) / wall,
        "latency_p50_ms": slow_quantile(m.batch_p50s) * 1e3,
        "latency_tail_ms": slow_quantile(m.batch_maxes) * 1e3,
        "wall_s": wall,
        "pass_frac": (m.attempted - m.failed) / m.attempted if m.attempted else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    n = len(m.batch_walls)
    beyond = n - math.ceil(BATCH_QUANTILE * n)
    note = (
        f"wall_s, ops_per_s, latency_p50_ms (each batch's median request) and"
        f" latency_tail_ms (each batch's slowest request) are the p{BATCH_QUANTILE * 100:g}"
        f" of {n} batches ({beyond} beyond it) of {len(m.latencies)} requests"
    )
    return {k: (metrics[k], unit) for k, unit in END_TO_END}, note


def traced(workload, seconds: float, seed: int):
    """Untraced batches for the per-kind medians and the reference wall time,
    then the first trace_batches batches again under the tracer."""
    from tracer import Tracer

    plain = Measurement(workload)
    plain.warm_up()
    plain.loop(seconds, workload.trace_batches)
    untraced_s = sum(plain.batch_walls[: workload.trace_batches])
    kind_ms = {
        metric: statistics.median(plain.core[kind]) * 1e3
        for metric, (wl, kind) in KIND_MEDIANS.items()
        if wl == workload.name and plain.core[kind]
    }
    again = Measurement(workload)
    tracer = Tracer()
    traced_s = sum(again.run_batch(b, tracer) for b in range(workload.trace_batches))
    same = again.texts == plain.texts[: len(again.texts)]
    tracer.write(OUT_DIR / f"spans_{workload.name}_seed{seed}.jsonl")
    metrics = per_layer_metrics(tracer, kind_ms, untraced_s, traced_s)
    lines = [f"not traced, absent from symbol3: {name}" for name in tracer.missing]
    lines += [f"spans: {len(tracer.spans)} written to {OUT_DIR.name}/spans_{workload.name}_seed{seed}.jsonl"]
    lines += not_applicable(metrics, workload.name)
    lines.append("cyclotomic.operand_bits_max is computed from the operands of each traced scalar product")
    if workload.name == "battery":
        checks = sum(metrics[f"verify.check.{n}_s"][0] for n in CHECK_NAMES)
        cli = metrics["cli.overhead_s"][0]
        lines.append(
            f"battery accounting: sum of verify.check.*_s {checks:.3f} s + cli.overhead_s {cli:.3f} s"
            f" = {checks + cli:.3f} s against traced wall {traced_s:.3f} s"
            f" (tracing overhead {traced_s - untraced_s:.3f} s)"
        )
    attempted = plain.attempted + again.attempted
    failed = plain.failed + again.failed + (0 if same else 1)
    if not same:
        lines.append("traced outputs differ from untraced outputs")
    return metrics, attempted, failed, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "symbol3" / "__init__.py").is_file():
        print(f"error: no symbol3 sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import symbol3
    from workloads import WORKLOADS

    if Path(symbol3.__file__).resolve().parent != (SRC / "symbol3").resolve():
        print(f"error: imported symbol3 from {symbol3.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    cls = WORKLOADS[args.workload]
    print("env " + json.dumps(environment(), sort_keys=True))
    print(
        f"workload {cls.name} seed {args.seed} seconds {args.seconds:g} trace {args.trace}: "
        "single process, single thread, closed loop (one caller)"
    )
    print("waiting time: none recorded; no layer has a queue or a second thread")

    setup_s = measure_setup(cls) if args.trace == 0 else None
    workload = cls(symbol3, args.seed)
    if args.trace:
        metrics, attempted, failed, lines = traced(workload, args.seconds, args.seed)
    else:
        m = Measurement(workload)
        m.warm_up()
        timed = m.loop(args.seconds, cls.min_batches)
        metrics, note = end_to_end(m, setup_s)
        attempted, failed = m.attempted, m.failed
        lines = [
            f"{len(m.latencies)} requests in {len(m.batch_walls)} batches, {timed:.3f} s timed",
            note,
            f"digest sha256:{m.digest.hexdigest()} over the first {cls.min_batches} batches",
            f"failed_frac {failed / attempted if attempted else float('nan'):.6g}"
            f" ({failed} of {attempted} checked results)",
        ]
    for line in lines:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    if attempted == 0:
        print("error: no request was checked", file=sys.stderr)
        return 1
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
