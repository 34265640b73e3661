"""The certify benchmark ops against the benchmark's golden fingerprints.

`bench/golden.json` holds the fingerprint of every op the benchmark can
draw.  This test runs the five single-regime `certify` ops and
`certify --regime all --seed 0`, and each output must pass the
benchmark's own check: schema, golden digest, golden floats within its
tolerance, and every certificate passed.  The digest covers the reports
in order, so it pins the report order of each regime, which the table of
the corpus in `certificates` states.  It reads `bench/` and writes
nothing there.
"""

from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_certify_ops_match_golden(load_bench):
    pytest.importorskip("jsonschema")
    workloads = load_bench("workloads")
    checker = load_bench("checks").Checker(ROOT, seed=0)
    ops = ([workloads.certify_op(r) for r in workloads.CERT_REGIMES]
           + [workloads.certify_op("all", 0)])
    for op in ops:
        rc, out = workloads.execute(op)
        assert checker.check(op, rc, out) == [], op.key
