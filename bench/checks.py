"""Correctness checks on every benchmark op, run outside the timed interval.

An op passes when all of these hold:

* the exit code is 0 and the stdout document validates against
  ``src/curlsharp/schema.json``;
* its exact (non-float) fields hash to the digest in ``golden.json``,
  generated by ``make_golden.py`` at the commit that introduced the
  benchmark;
* its float fields agree with the golden values within FLOAT_RTOL
  relative (plus FLOAT_ATOL absolute, for values that are zero up to
  rounding, such as backend relative errors);
* the independent closed forms hold where the op touches them, and
  ``certify`` reports every certificate passed (72 of 72 for ``all``);
* at two sampled rows of every sweep, the float minima match the exact
  minima within SWEEP_RTOL relative.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import jsonschema

FLOAT_RTOL = 1e-9
FLOAT_ATOL = 1e-12
SWEEP_RTOL = 1e-12
SWEEP_SAMPLES = 2
CERTIFY_ALL_TOTAL = 72
# sweep documents are large; golden floats are kept for every 8th row
# (gamma a multiple of 1/2), the exact digest covers every row
SWEEP_FLOAT_STRIDE = 8

GOLDEN_PATH = Path(__file__).with_name("golden.json")


def _mask_floats(x, floats: list | None):
    if isinstance(x, float):
        if floats is not None:
            floats.append(x)
        return "<float>"
    if isinstance(x, dict):
        return {k: _mask_floats(v, floats) for k, v in sorted(x.items())}
    if isinstance(x, list):
        return [_mask_floats(v, floats) for v in x]
    return x


def fingerprint(doc) -> tuple[str, list[float]]:
    """(digest of the exact fields, list of the golden float fields)."""
    exact = json.dumps(_mask_floats(doc, None), sort_keys=True)
    digest = hashlib.sha256(exact.encode()).hexdigest()[:16]
    if isinstance(doc, dict) and doc.get("command") == "sweep":
        doc = dict(doc, rows=doc["rows"][::SWEEP_FLOAT_STRIDE])
    floats: list[float] = []
    _mask_floats(doc, floats)
    return digest, floats


def brute_doc(result) -> dict:
    """The library op's result as a document like the CLI's."""
    return {"command": "brute", "min_value": result.min_value,
            "argmin_tau": result.argmin_tau, "argmin_nu": result.argmin_nu,
            "c_min": result.c_min, "rel_error": result.rel_error}


def parse_output(op, out):
    """The op's output as a JSON document (raises ValueError if not)."""
    if op.argv is None:
        return brute_doc(out)
    return json.loads(out)


def _floats_agree(got: list[float], want: list[float]) -> str | None:
    if len(got) != len(want):
        return f"{len(got)} float fields, golden has {len(want)}"
    for i, (a, b) in enumerate(zip(got, want)):
        if math.isnan(a) and math.isnan(b):
            continue
        if a == b:
            continue
        if not abs(a - b) <= FLOAT_RTOL * max(abs(a), abs(b)) + FLOAT_ATOL:
            return f"float field {i}: {a!r} vs golden {b!r}"
    return None


class Checker:
    """Validates op outputs; ``check`` returns a list of problems."""

    def __init__(self, root: Path, seed: int):
        schema = json.loads((root / "src" / "curlsharp" / "schema.json").read_text())
        self.validator = jsonschema.Draft7Validator(schema)
        self.golden = json.loads(GOLDEN_PATH.read_text())["ops"]
        self.rng = random.Random(f"checks:{seed}")
        from curlsharp import constants as cs

        # the undecorated minima, so a check fills no cache that a later
        # timed op could hit (and records no span in a traced run)
        self.exact_min = {name: getattr(f, "__wrapped__", f) for name, f in (
            ("A_min", cs.rellich_hardy_A_min), ("C_min", cs.rellich_hardy_C_min))}

    def check(self, op, rc, out) -> list[str]:
        if rc != 0:
            return [f"exit code {rc}"]
        try:
            doc = parse_output(op, out)
        except ValueError as exc:
            return [f"output is not JSON: {exc}"]
        problems = []
        if op.argv is not None:
            problems += [f"schema: {e.message}"
                         for e in self.validator.iter_errors(doc)]
        want = self.golden.get(op.key)
        if want is None:
            problems.append("op missing from golden file")
        else:
            digest, floats = fingerprint(doc)
            if digest != want[0]:
                problems.append("exact fields differ from golden")
            bad = _floats_agree(floats, want[1])
            if bad:
                problems.append(bad)
        extra = getattr(self, f"_check_{op.kind}", None)
        if extra is not None:
            problems += extra(doc)
        return problems

    # ---- op-specific invariants -------------------------------------------

    @staticmethod
    def _check_certify_all(doc) -> list[str]:
        ok = (doc["passed"] == doc["total"] == CERTIFY_ALL_TOTAL
              and doc["all_ok"] and not doc["link_and_guard_failures"])
        return [] if ok else [f"certify all: {doc['passed']}/{doc['total']} "
                              f"passed, all_ok={doc['all_ok']}"]

    @staticmethod
    def _check_certify_regime(doc) -> list[str]:
        ok = doc["passed"] == doc["total"] and doc["all_ok"]
        return [] if ok else [f"certify {doc['regime']}: "
                              f"{doc['passed']}/{doc['total']} passed"]

    @staticmethod
    def _check_constants(doc) -> list[str]:
        return closed_form_problems(doc["N"], Fraction(doc["gamma"]),
                                    Fraction(doc["A_min"]), Fraction(doc["C_min"]))

    def _check_sweep(self, doc) -> list[str]:
        from curlsharp.constants import Params

        problems = []
        for row in self.rng.sample(doc["rows"], SWEEP_SAMPLES):
            p = Params(row["N"], Fraction(row["gamma"]))
            for name, exact_min in self.exact_min.items():
                exact = exact_min(p).value
                if abs(row[name] - float(exact)) > SWEEP_RTOL * abs(float(exact)):
                    problems.append(f"sweep {name} at N={p.N} gamma={p.gamma}: "
                                    f"{row[name]!r} vs exact {exact}")
        return problems

    @staticmethod
    def _check_brute(doc) -> list[str]:
        return [] if doc["argmin_tau"] == 0.0 else ["brute minimum not at tau = 0"]


def closed_form_problems(n: int, g: Fraction, a_min: Fraction,
                         c_min: Fraction) -> list[str]:
    """Closed forms derived independently of the package's formulas."""
    expected = []
    if (n, g) == (5, 0):
        expected.append(("C_min", c_min, Fraction(441, 68)))
    if (n, g) == (3, 0):
        expected.append(("A_min", a_min, Fraction(25, 36)))
    if 3 <= n <= 12 and g == Fraction(4 - n, 2):
        expected.append(("C_min", c_min, Fraction(n - 1)))
    if g == 0 and n >= 5:
        q = Fraction(n * n, 4)
        expected.append(("C_min", c_min, (q - 1) ** 2 / (q - n + 3)))
    return [f"closed form {name}(N={n}, gamma={g}) = {got}, expected {want}"
            for name, got, want in expected if got != want]
