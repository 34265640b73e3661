"""Regenerate ``golden.json``: the fingerprint of every op any seed can draw.

Run from the repository root:

    python3 bench/make_golden.py

It runs each op of ``workloads.op_space`` once, in-process, and stores the
digest of its exact fields and its float fields (see ``checks.fingerprint``).
Regenerate only when a change to the program's output is intended; the file
then records the new expected output.  Takes about four minutes on two cores.
"""

from __future__ import annotations

import json
import sys

import checks
import workloads
from run import ROOT, source_digest, use_source_tree


def write_golden(ops: dict) -> None:
    """One op per line, sorted, so a regenerated file diffs op by op."""
    lines = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(ops.items())]
    checks.GOLDEN_PATH.write_text(
        f'{{"source_sha256": "{source_digest()}", "ops": {{\n'
        + ",\n".join(lines) + "\n}}\n")


def main() -> int:
    use_source_tree()
    ops = {}
    for name in workloads.WORKLOADS:
        space = workloads.op_space(name)
        for i, op in enumerate(space):
            rc, out = workloads.execute(op)
            if rc != 0:
                print(f"{op.key}: exit code {rc}", file=sys.stderr)
                return 1
            ops[op.key] = checks.fingerprint(checks.parse_output(op, out))
            if i % 500 == 0:
                print(f"{name}: {i}/{len(space)}", file=sys.stderr)
    write_golden(ops)
    print(f"wrote {len(ops)} ops to {checks.GOLDEN_PATH.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
