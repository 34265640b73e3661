"""Every numerics benchmark op against the benchmark's golden fingerprints,
with cold and then warm per-process caches.

`bench/golden.json` holds the fingerprint of every op the benchmark can
draw.  This test runs all of the numerics workload's ops (`quotient`,
`remainder`, `oracle` and the library `brute` op) twice in one process:
first with the profile bases and derivative tables cleared, then again
with everything the first pass cached.  Each output must pass the
benchmark's own check (schema, golden digest, golden floats within its
tolerance), and the warm output must equal the cold output byte for
byte, so a cache that hands back a wrong or altered value fails the test
suite and not only a benchmark run.  It reads `bench/` and writes nothing
there.
"""

from pathlib import Path

import pytest

from curlsharp.spectral import Profile

ROOT = Path(__file__).resolve().parents[1]


def _run_all(workloads, checks, checker, ops):
    """Each op's output as text (a brute result as its document's repr),
    after requiring it to pass the benchmark's check."""
    outputs = []
    for op in ops:
        rc, out = workloads.execute(op)
        assert checker.check(op, rc, out) == [], op.key
        outputs.append(out if op.argv is not None else repr(checks.brute_doc(out)))
    return outputs


def test_numerics_ops_match_golden_cold_and_warm(load_bench, cold_bases):
    pytest.importorskip("jsonschema")
    workloads = load_bench("workloads")
    checks = load_bench("checks")
    checker = checks.Checker(ROOT, seed=0)
    ops = workloads.op_space("numerics")
    assert len(ops) == 243
    cold = _run_all(workloads, checks, checker, ops)
    warm = _run_all(workloads, checks, checker, ops)
    assert Profile.form_basis.cache_info().hits > 0
    for op, a, b in zip(ops, cold, warm):
        assert a == b, op.key
