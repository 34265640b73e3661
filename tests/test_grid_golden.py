"""Grid `constants` and `sweep` output against the benchmark's golden fingerprints.

`bench/golden.json` holds the fingerprint of every op the benchmark can
draw.  These tests run a fixed sample of the grid workload's `constants`
ops (every closed-form point, every lam = 0 point and a seeded draw of
the rest) and every one of its `sweep` ops, and require the same
fingerprint, so a byte change in exact output or in a golden float fails
the test suite and not only a benchmark run.  They read `bench/` and
write nothing there.
"""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
SEEDED_POINTS = 200


def _sample(workloads):
    fixed = set(workloads.closed_form_points())
    fixed |= {(n, g) for n, g in workloads.grid_points() if g == Fraction(4 - n, 2)}
    rest = [pt for pt in workloads.grid_points() if pt not in fixed]
    return sorted(fixed) + random.Random(10).sample(rest, SEEDED_POINTS)


def _assert_match_golden(checks, workloads, ops):
    golden = json.loads((BENCH / "golden.json").read_text())["ops"]
    space = {op.key for op in workloads.op_space("grid")}
    for op in ops:
        assert op.key in space
        rc, out = workloads.execute(op)
        assert rc == 0, op.key
        digest, floats = checks.fingerprint(checks.parse_output(op, out))
        assert [digest, floats] == golden[op.key], op.key


def test_constants_ops_match_golden(load_bench):
    pytest.importorskip("jsonschema")
    workloads = load_bench("workloads")
    points = _sample(workloads)
    assert len(points) > SEEDED_POINTS + 30
    _assert_match_golden(load_bench("checks"), workloads,
                         [workloads.constants_op(n, g) for n, g in points])


def test_sweep_ops_match_golden(load_bench):
    pytest.importorskip("jsonschema")
    workloads = load_bench("workloads")
    ops = [workloads.sweep_op(n) for n in workloads.GRID_N]
    assert len(ops) == 23
    _assert_match_golden(load_bench("checks"), workloads, ops)
