import hashlib
import json

from symbol3.verify import run_suite

# sha256 of the small battery's report, serialised as `symbol3 verify` prints it
GOLDEN_SHA256 = "12da8ddce26a2c0ae1205ae85969d61642bd55204685184219a4c221626d3966"


def test_small_report_is_pinned():
    report = run_suite("all", nmax=6, samples=2, seed=7)
    text = json.dumps(report, separators=(",", ":")) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_SHA256
