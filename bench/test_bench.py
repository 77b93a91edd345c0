"""Self-tests of the benchmark: determinism, the exactness gate's negative
controls, the tracer's restore, and agreement with BENCHMARK.json.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import symbol3  # noqa: E402
import run  # noqa: E402
import tracer as tracer_mod  # noqa: E402
from workloads import WORKLOADS, Elements  # noqa: E402


def _inputs(name: str, seed: int) -> list:
    w = WORKLOADS[name](symbol3, seed)
    return [(r.kind, r.payload) for r in w.batch(0)]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_follow_the_seed(name):
    assert _inputs(name, 5) == _inputs(name, 5)
    assert _inputs(name, 5) != _inputs(name, 6)


def _digest(seed: int) -> str:
    m = run.Measurement(Elements(symbol3, seed))
    m.loop(0.0, Elements.min_batches)
    assert m.attempted > 0 and m.failed == 0
    return m.digest.hexdigest()


def test_digest_repeats_for_a_seed():
    assert _digest(3) == _digest(3)
    assert _digest(3) != _digest(4)


def _corrupt_scalar(text: str) -> str:
    return "1/7" if text != "1/7" else "2/7"


def test_corrupted_results_fail_the_gate():
    """Negative controls: one damaged output per workload is counted failed."""
    el = WORKLOADS["elements"](symbol3, 1)
    for req in el.batch(0):
        (text, values), _ = el.run(req)
        assert el.check(req, (text, values))[1] == 0
        strings = json.loads(text)
        strings[0] = _corrupt_scalar(strings[0])
        values = list(values)
        values[0] = symbol3.CycQ.parse(strings[0])
        assert el.check(req, (json.dumps(strings), values))[1] == 1, req.kind

    lin = WORKLOADS["linear"](symbol3, 1)
    req = next(r for r in lin.batch(0) if r.kind == "det")
    out, _ = lin.run(req)
    assert lin.check(req, out)[1] == 0
    assert lin.check(req, out + 1)[1] == 1

    fib = WORKLOADS["fibonacci"](symbol3, 1)
    req = next(r for r in fib.batch(0) if r.kind == "fib_n")
    (eta, closed, inv, prod), _ = fib.run(req)
    assert fib.check(req, (eta, closed, inv, prod))[1] == 0
    assert fib.check(req, (eta, closed, inv, prod + prod))[1] == 1
    assert fib.check(req, (eta + 1, closed, inv, prod))[1] == 1

    bat = WORKLOADS["battery"](symbol3, 1)
    report = {"checks": [{"name": n, "pass": True} for n in run.CHECK_NAMES]}
    good = json.dumps(report)
    assert bat.check(None, (0, good)) == (23, 0, good)
    report["checks"][3]["pass"] = False
    assert bat.check(None, (0, json.dumps(report)))[1] == 23  # bytes differ
    assert bat.check(None, (1, good))[1] == 23


def test_corruption_shows_in_pass_frac():
    class Corrupt(Elements):
        def run(self, req):
            (text, values), core = super().run(req)
            if req.kind == "twist":
                strings = json.loads(text)
                strings[-1] = _corrupt_scalar(strings[-1])
                text = json.dumps(strings)
            return (text, values), core

    m = run.Measurement(Corrupt(symbol3, 1))
    m.loop(0.0, 1)
    assert m.failed == 3  # one twist request per parameter pair
    metrics, _ = run.end_to_end(m, 0.1)
    assert metrics["pass_frac"][0] == (m.attempted - 3) / m.attempted < 1


def _snapshot():
    owners = list(tracer_mod.symbol3_modules())
    for mod in list(owners):
        owners += [v for v in vars(mod).values() if isinstance(v, type) and v.__module__ == mod.__name__]
    owners += list(symbol3.verify.CHECKS)
    return {id(o): (o, dict(vars(o))) for o in owners}


def test_tracer_wraps_and_restores_everything():
    import symbol3.cli  # noqa: F401

    before = _snapshot()
    t = tracer_mod.Tracer()
    t.install()
    try:
        assert hasattr(symbol3.lambda_mat, "__wrapped__")
        assert hasattr(symbol3.verify.det, "__wrapped__")
        assert hasattr(symbol3.solvers.kernel_basis, "__wrapped__")
        assert hasattr(symbol3.cli.run_suite, "__wrapped__")
        assert hasattr(symbol3.CycQ.__dict__["__rmul__"], "__wrapped__")
        assert t.missing == []
    finally:
        t.uninstall()
    after = _snapshot()
    assert before.keys() == after.keys()
    for key, (owner, attrs) in before.items():
        now = after[key][1]
        changed = [k for k in attrs.keys() | now.keys() if attrs.get(k) is not now.get(k)]
        assert not changed, (owner, changed)


def test_tracer_accounts_for_a_small_battery():
    """Checks plus cli overhead cover cli.main; names bound by `from ...
    import` in verify are traced; element products inside the
    representations are counted."""
    import symbol3.cli

    t = tracer_mod.Tracer()
    t.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = symbol3.cli.main(["verify", "--suite", "fibonacci", "--nmax", "6"])
    finally:
        t.uninstall()
    assert code == 0
    checks = sum(ns for name, ns in t.inclusive_ns.items() if name.startswith("verify.check."))
    overhead = t.inclusive_ns["cli.main"] - t.inclusive_ns["verify.run_suite"]
    assert checks + overhead <= t.inclusive_ns["cli.main"]
    assert checks + overhead > 0.95 * t.inclusive_ns["cli.main"]
    assert t.counts["representations.det"] > 0  # verify's own `det` binding
    assert t.counts["representations.algebra_muls"] > 0
    assert t.counts["cyclotomic.mul_count"] > 0
    parents = {span[1]: span[3] for span in t.spans}
    assert all(span[2] == -1 or span[2] in parents for span in t.spans)


def test_batch_figures_use_the_slow_quantile():
    assert run.slow_quantile(list(range(1, 11))) == 9
    assert run.slow_quantile([5.0, 4.0, 3.0]) == 5.0


def test_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    layer = run.per_layer_metrics(tracer_mod.Tracer(), {}, 0.0, 0.0)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [(k, u) for k, (_, u) in layer.items()]
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
    assert tuple(c.name for c in symbol3.verify.CHECKS) == run.CHECK_NAMES


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "elements", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
