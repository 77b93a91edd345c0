import json
import subprocess
import sys

from hypothesis import given, settings, strategies as st

from symbol3.algebra import SymbolElement
from symbol3 import cli
from symbol3.cyclotomic import CycQ
from symbol3.fibonacci import closed_form_norm
from symbol3.cli import InputError, _element_from_file


def run_cli(*args, input_text=None):
    return subprocess.run(
        [sys.executable, "-m", "symbol3.cli", *args],
        capture_output=True,
        text=True,
        input=input_text,
    )


def test_norm_example():
    proc = run_cli("norm", "--a", "1", "--b", "1", "--coeffs", "1,1,1,0,0,0,0,0,0")
    assert proc.returncode == 0
    assert proc.stdout == '{"eta":"0"}\n'


def test_inverse_identity():
    proc = run_cli("inverse", "--a", "1", "--b", "1", "--coeffs", "1,0,0,0,0,0,0,0,0")
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {
        "a": "1",
        "b": "1",
        "coeffs": ["1", "0", "0", "0", "0", "0", "0", "0", "0"],
    }


def test_inverse_not_invertible_exit_code():
    proc = run_cli("inverse", "--a", "1", "--b", "1", "--coeffs", "1,1,1,0,0,0,0,0,0")
    assert proc.returncode == 1
    assert "error:" in proc.stderr


def test_malformed_scalar_exit_code():
    proc = run_cli("norm", "--coeffs", "1,1,zzz,0,0,0,0,0,0")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")
    proc = run_cli("norm")
    assert proc.returncode == 2


def test_library_value_error_exit_code():
    # ValueErrors raised below the CLI end in one error line and exit 2
    for args in (("fib", "--n", "-1"), ("fib", "--n", "-1", "--p", "1", "--q", "2")):
        proc = run_cli(*args)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1


def test_vacuous_arguments_rejected():
    for args in (
        ("verify", "--nmax", "-5", "--samples", "0"),
        ("verify", "--samples", "0"),
        ("verify", "--nmax", "0"),
        ("fib", "--scan", "-3"),
    ):
        proc = run_cli(*args)
        assert proc.returncode == 2
        assert "must be >=" in proc.stderr


def test_ambiguous_element_sources_rejected(tmp_path):
    one = "1,0,0,0,0,0,0,0,0"
    path = tmp_path / "one.json"
    path.write_text(json.dumps({"a": "1", "b": "1", "coeffs": one.split(",")}))
    for args in (
        ("norm", "--in", str(path), "--coeffs", one),
        ("mul", "--coeffs", one, "--in2", str(path), "--coeffs2", one),
        ("solve", "--eq", "commute", "--A", one, "--A-in", str(path)),
    ):
        proc = run_cli(*args)
        assert proc.returncode == 2
        assert "not allowed with" in proc.stderr


def test_malformed_element_file_exit_code(tmp_path):
    # nine scalars in a string instead of a list; nesting past the recursion limit
    path = tmp_path / "bad.json"
    for text in (json.dumps({"a": "1", "b": "1", "coeffs": "123456789"}), "[" * 100_000):
        path.write_text(text)
        proc = run_cli("norm", "--in", str(path))
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1


def test_unwritable_out_path_exit_code(tmp_path):
    # a directory, and a file under a missing directory
    for out in (tmp_path, tmp_path / "missing" / "out.json"):
        proc = run_cli("norm", "--coeffs", "1,0,0,0,0,0,0,0,0", "--out", str(out))
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1


def test_verify_checks_out_path_before_the_battery(tmp_path, monkeypatch, capsys):
    def battery(**kwargs):
        raise AssertionError("the battery ran before --out was checked")

    monkeypatch.setattr(cli, "run_suite", battery)
    assert cli.main(["verify", "--out", str(tmp_path / "missing" / "r.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write output file:") and err.count("\n") == 1


def test_verify_checks_timings_path_before_the_battery(tmp_path, monkeypatch, capsys):
    def battery(**kwargs):
        raise AssertionError("the battery ran before --timings was checked")

    monkeypatch.setattr(cli, "run_suite", battery)
    assert cli.main(["verify", "--timings", str(tmp_path / "missing" / "t.json")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot write output file:") and captured.err.count("\n") == 1


def test_verify_timings_go_to_the_file_only(tmp_path, capsys):
    argv = ["verify", "--suite", "fibonacci", "--nmax", "4", "--samples", "2", "--seed", "3"]
    assert cli.main(argv) == 0
    plain = capsys.readouterr().out
    path = tmp_path / "timings.json"
    assert cli.main(argv + ["--timings", str(path)]) == 0
    assert capsys.readouterr().out == plain
    timings = json.loads(path.read_text())
    assert list(timings) == [row["name"] for row in json.loads(plain)["checks"]]
    assert all(isinstance(t, float) and t >= 0 for t in timings.values())


def test_fib_flags_that_would_be_dropped_are_rejected(capsys):
    for argv in (
        ["fib", "--lemmas", "--n", "3"],
        ["fib", "--lemmas"],
        ["fib", "--scan", "2", "--n", "5", "--check-invertible"],
        ["fib", "--scan", "2", "--n", "5"],
        ["fib", "--scan", "2", "--p", "1", "--q", "2"],
        ["fib", "--scan", "2", "--q", "2"],
        ["fib", "--scan", "2", "--check-invertible"],
        ["fib", "--scan", "2", "--check-invertible", "--lemmas"],
    ):
        assert cli.main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1, argv
    assert cli.main(["fib", "--scan", "2", "--lemmas"]) == 0
    assert json.loads(capsys.readouterr().out)["lemmas"]


GOOD_SCALAR = st.sampled_from(("0", "1", "-2/3", "1+1*w", "0-1/2*w"))
SCALAR_TEXT = GOOD_SCALAR | st.text("0123456789+-*/w", max_size=10) | st.text(max_size=10)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | SCALAR_TEXT,
    lambda inner: st.lists(inner, max_size=10) | st.dictionaries(SCALAR_TEXT, inner, max_size=10),
    max_leaves=20,
)
# near misses: nine parseable scalars held in a string or an object, not a list
NEAR_LISTS = st.text("0123456789", min_size=9, max_size=9) | st.dictionaries(
    st.text("0123456789", min_size=1, max_size=3), GOOD_SCALAR, min_size=9, max_size=9)
ELEMENT_LIKE = st.fixed_dictionaries({
    "a": GOOD_SCALAR | JSON_VALUES,
    "b": GOOD_SCALAR | JSON_VALUES,
    "coeffs": st.lists(SCALAR_TEXT, min_size=8, max_size=10) | NEAR_LISTS | JSON_VALUES,
})


@settings(max_examples=300, deadline=None)
@given(data=JSON_VALUES | ELEMENT_LIKE)
def test_element_reader_accepts_only_elements(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_text(json.dumps(data))
    try:
        z = _element_from_file(str(path))
    except InputError:
        return
    assert isinstance(z, SymbolElement)
    assert isinstance(data["coeffs"], list)
    assert all(isinstance(t, str) for t in (data["a"], data["b"], *data["coeffs"]))


def test_fib_check_invertible():
    proc = run_cli("fib", "--n", "5", "--check-invertible")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["n"] == 5
    assert payload["invertible"] is True
    assert payload["eta"] not in ("0", "")


def test_fib_check_invertible_past_the_int_digit_limit():
    # eta(F_8000) has more than 4300 decimal digits
    proc = run_cli("fib", "--n", "8000", "--check-invertible")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["invertible"] is True
    assert CycQ.parse(payload["eta"]) == closed_form_norm(8000)
    assert len(payload["eta"]) > 4300


def test_fib_element_output_matches_library(tmp_path):
    proc = run_cli("fib", "--n", "3")
    payload = json.loads(proc.stdout)
    assert payload["coeffs"][0] == "2"  # f_3
    # feed the element back through a file for a norm computation
    path = tmp_path / "f3.json"
    path.write_text(json.dumps(payload))
    norm_proc = run_cli("norm", "--in", str(path))
    value = json.loads(norm_proc.stdout)["eta"]
    scan_proc = run_cli("fib", "--scan", "3")
    rows = json.loads(scan_proc.stdout)["rows"]
    assert rows[3]["eta"] == value


def test_mul_matches_twist(tmp_path):
    # w*y computed two ways: twist of y, and mul by the scalar w
    twist = run_cli("twist", "--k", "1", "--coeffs", "0,0,0,1,0,0,0,0,0")
    scaled = run_cli(
        "mul",
        "--coeffs", "0+1*w,0,0,0,0,0,0,0,0",
        "--coeffs2", "0,0,0,1,0,0,0,0,0",
    )
    assert json.loads(twist.stdout) == json.loads(scaled.stdout)


def test_repr_matrix_shape_and_content():
    proc = run_cli("repr", "--rep", "lambda", "--coeffs", "0,1,0,0,0,0,0,0,0", "--a", "2", "--b", "3")
    flat = json.loads(proc.stdout)
    assert len(flat) == 81
    assert flat[0 * 9 + 2] == "2"  # x * x^2 = a lands on the 1-row
    assert flat[1 * 9 + 0] == "1"  # x * 1 = x
    gamma = run_cli("repr", "--rep", "gamma", "--coeffs", "0,1,0,0,0,0,0,0,0", "--a", "2", "--b", "3")
    assert json.loads(gamma.stdout) != flat


def test_solve_round_trip(tmp_path):
    a = "1,1,0,0,2,0,0,0,0"
    b = "0,1,0,3,0,0,0,1,0"
    w = "1,0,2,0,0,1,0,0,5"
    mul1 = run_cli("mul", "--a", "2", "--b", "3", "--coeffs", a, "--coeffs2", w)
    mul2 = run_cli("mul", "--a", "2", "--b", "3", "--coeffs", w, "--coeffs2", b)
    aw = json.loads(mul1.stdout)["coeffs"]
    wb = json.loads(mul2.stdout)["coeffs"]
    # C = AW - WB assembled through the CLI by adding the negated product
    neg = run_cli("mul", "--a", "2", "--b", "3", "--coeffs=-1,0,0,0,0,0,0,0,0",
                  "--coeffs2=" + ",".join(wb))
    c = run_cli("add", "--a", "2", "--b", "3", "--coeffs=" + ",".join(aw),
                "--coeffs2=" + ",".join(json.loads(neg.stdout)["coeffs"]))
    c_coeffs = ",".join(json.loads(c.stdout)["coeffs"])
    proc = run_cli("solve", "--eq", "sylvester", "--a", "2", "--b", "3",
                   "--A", a, "--B", b, "--C=" + c_coeffs)
    assert proc.returncode == 0
    sol = json.loads(proc.stdout)
    assert sol["verdict"] == "Unique"
    assert sol["particular"]["coeffs"] == w.split(",")
    assert sol["kernel"] == []


def test_solve_commute_verdict():
    proc = run_cli("solve", "--eq", "commute", "--A", "1,0,0,0,0,0,0,0,0")
    sol = json.loads(proc.stdout)
    assert sol["verdict"] == "AllOfSpace"
    assert len(sol["kernel"]) == 9


def test_solve_missing_element_usage_error():
    proc = run_cli("solve", "--eq", "sylvester", "--A", "1,0,0,0,0,0,0,0,0")
    assert proc.returncode == 2


def test_element_json_round_trip_through_files(tmp_path):
    element = {"a": "0+1*w", "b": "1+1*w", "coeffs":
               ["1/2", "-3+2/5*w", "0", "0+1*w", "7", "0", "-1/3", "4+4*w", "0"]}
    path = tmp_path / "z.json"
    path.write_text(json.dumps(element))
    out = tmp_path / "adj.json"
    proc = run_cli("adjoint", "--in", str(path), "--out", str(out))
    assert proc.returncode == 0 and proc.stdout == ""
    adj = json.loads(out.read_text())
    assert adj["a"] == element["a"] and adj["b"] == element["b"]
    # adjoint of the adjoint rescales by the norm: round-trip exactness check
    path2 = tmp_path / "adj_in.json"
    path2.write_text(json.dumps(adj))
    charpoly = run_cli("charpoly", "--in", str(path))
    tau_pi_eta = json.loads(charpoly.stdout)
    assert set(tau_pi_eta) == {"tau", "pi", "eta"}


def test_verify_small_suite_deterministic():
    args = ("verify", "--suite", "equations", "--nmax", "5", "--samples", "3", "--seed", "11")
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.returncode == 0
    assert first.stdout == second.stdout
    report = json.loads(first.stdout)
    assert report["suite"] == "equations"
    assert report["seed"] == 11
    assert all(c["pass"] for c in report["checks"])
    assert all({"name", "paper_ref", "pass", "detail"} <= set(c) for c in report["checks"])


def test_verify_negative_control():
    proc = run_cli("verify", "--suite", "representations", "--nmax", "3", "--samples", "1",
                   "--corrupt-fixture")
    assert proc.returncode == 1
    assert "fixture_tables" in proc.stderr
    report = json.loads(proc.stdout)
    failed = [c["name"] for c in report["checks"] if not c["pass"]]
    assert failed == ["fixture_tables"]


def test_import_leaves_dataclasses_and_inspect_unloaded():
    # every CLI call pays for the modules `import symbol3.cli` pulls in
    code = "import sys, symbol3.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
