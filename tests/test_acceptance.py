"""Acceptance battery: every criterion is exact (tolerance zero) and runs at
desk scale.  One pass/fail line is printed per criterion."""

import hashlib
import json
import random
import subprocess
import sys
from itertools import chain

from symbol3.fibonacci import invertibility_scan, run_lemma_suite
from symbol3.solvers import _dependent, structured_instance_search
from symbol3.verify import (
    ALGEBRAS,
    centralizer_identities,
    char_poly_identities,
    closed_form_identities,
    commute_identities,
    morphism_identities,
    norm_trace_identities,
    reconstruction_identities,
    sequence_identities,
    structured_identities,
    sylvester_identities,
    tally,
    twist_unit_identities,
)

UNIT = ALGEBRAS[0]
# md5 of the full `verify --suite all --nmax 30 --samples 50 --seed 7` stdout
REPORT_MD5 = "26e9db9cd9182fc1926c0fb8cdae5ad2"


def report(number: int, title: str, passed: bool):
    print(f"criterion {number:2d} [{'PASS' if passed else 'FAIL'}] {title}")
    assert passed, f"criterion {number} failed: {title}"


def test_criterion_1_morphism_battery():
    ok = tally(morphism_identities(random.Random(101), 100)).passed
    report(1, "morphism battery (100 pairs x 3 parameter choices)", ok)


def test_criterion_2_norm_trace_coherence():
    ok = tally(norm_trace_identities(random.Random(101), 100)).passed
    report(2, "norm/trace coherence on the same samples", ok)


def test_criterion_3_adjoint_battery():
    ok = tally(char_poly_identities(random.Random(103), 100)).passed
    report(3, "adjoint / characteristic-polynomial battery (100 samples)", ok)


def test_criterion_4_twist_invariance():
    ok = tally(twist_unit_identities(random.Random(104), 100)).passed
    report(4, "twist invariance of both determinants at a=b=1 (100 samples)", ok)


def test_criterion_5_reconstruction():
    ok = tally(reconstruction_identities(random.Random(105), 50)).passed
    report(5, "reconstruction recovers 3z on both routes (50 x 3 samples)", ok)


def test_criterion_6_solvers():
    rng = random.Random(106)
    res = structured_instance_search(UNIT, bound=2)
    outcomes = chain(commute_identities(rng, 100), sylvester_identities(rng, 4),
                     centralizer_identities(), structured_identities(rng, res))
    # X2 is not a scalar multiple of X1, so the structured span has dimension 2
    ok = tally(outcomes).passed and not any(_dependent(x1, x2) for _, _, x1, x2 in res["verified"])
    report(6, "equation solvers (singularity, round trip, centralizer, structured)", ok)


def test_criterion_7_sequence_identities():
    ok = tally(sequence_identities(random.Random(107), 100)).passed
    report(7, "the seven sequence identities hold for 1 <= n <= 100", ok)


def test_criterion_8_norm_closed_form_and_lemmas():
    rows = run_lemma_suite(30)
    repaired = all(r["candidate_ok"] or r["verified_ok"] for r in rows)
    failing = sorted(r["name"] for r in rows if not r["candidate_ok"])
    ok = tally(closed_form_identities(30)).passed and repaired
    report(8, f"closed-form norm (n<=30) + derivation audit ({len(failing)} candidates corrected)", ok)


def test_criterion_9_invertibility():
    rep = invertibility_scan(100)
    ok = rep["all_invertible"] and rep["omega_free_block_positive"]
    report(9, "all Fibonacci elements invertible for n <= 100; positivity holds", ok)


def test_criterion_10_cli_determinism():
    args = [
        sys.executable, "-m", "symbol3.cli", "verify",
        "--suite", "all", "--nmax", "30", "--samples", "50", "--seed", "7",
    ]
    done = subprocess.run(args, capture_output=True)
    payload = json.loads(done.stdout)
    ok = done.returncode == 0 and all(c["pass"] for c in payload["checks"])
    ok = ok and hashlib.md5(done.stdout).hexdigest() == REPORT_MD5
    report(10, "verify --suite all --nmax 30 --samples 50 --seed 7: pinned report, exit 0", ok)
