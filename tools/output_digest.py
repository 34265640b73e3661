"""Print a digest of every benchmark op's output, one line per workload.

For each workload of `bench/workloads.py`, run every op of its
`op_space` in-process and print

    <workload> <ops> <sha256[:16]>

where the sha256 is taken over repr((op.key, exit code, stdout)) of the
ops in order (for the library op, the returned result stands for
stdout).  Two trees that print the same lines produce the same output
on every op the benchmark can draw.  The script reads `bench/` and
writes nothing there.

    PYTHONPATH=src python tools/output_digest.py [workload ...]

With no workload named it runs all three; certify alone takes about
half a minute.
"""

import hashlib
import importlib.util
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _workloads():
    sys.dont_write_bytecode = True  # leave no __pycache__ under bench/
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def digest(workloads, workload: str) -> tuple[int, str]:
    """(number of ops, sha256 hex prefix) over the workload's op space."""
    h = hashlib.sha256()
    ops = workloads.op_space(workload)
    for op in ops:
        rc, out = workloads.execute(op)
        h.update(repr((op.key, rc, out)).encode())
    return len(ops), h.hexdigest()[:16]


def main(argv=None) -> int:
    workloads = _workloads()
    names = (sys.argv[1:] if argv is None else argv) or workloads.WORKLOADS
    for name in names:
        count, hexdigest = digest(workloads, name)
        print(f"{name} {count} {hexdigest}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
