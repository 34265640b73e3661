"""Print a digest of every benchmark op's output, one line per workload.

For each workload of `bench/workloads.py`, run every op of its
`op_space` in-process and print

    <workload> <ops> <sha256[:16]>

where the sha256 is taken over repr((op.key, exit code, stdout)) of the
ops in order (for the library op, the returned result stands for
stdout).  Two trees that print the same lines produce the same output
on every op the benchmark can draw.  The script reads `bench/` and
writes nothing there.

The set `float` covers CLI calls no benchmark op makes (`float_ops`):
`constants` at a decimal gamma literal, which is read as the exact
rational it names, and `sweep`, the float path, in both formats.  Its
sha256 is taken over repr((argv, exit code, stdout, stderr)) of each CLI
call in order.

    PYTHONPATH=src python tools/output_digest.py [workload|float ...]

With nothing named it runs the three workloads and then `float`;
certify alone takes about half a minute.
"""

import contextlib
import hashlib
import importlib.util
import io
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


def float_ops() -> list[list[str]]:
    """The argv of every CLI call of the `float` set: `constants` at
    gamma = 0.3k + 0.05, k = -40..40, for N in {2, 3, 4, 5, 7, 12, 24} and
    --nu-max 0, 8 and 40; then CSV and JSON sweeps for N = 2..24 on the
    grids -3:3:0.125 and -12:12:0.0625."""
    ops = [["constants", "--N", str(n), f"--gamma={(30 * k + 5) / 100!r}",
            "--nu-max", str(nu_max)]
           for n in (2, 3, 4, 5, 7, 12, 24)
           for k in range(-40, 41)
           for nu_max in (0, 8, 40)]
    ops += [["sweep", "--N", str(n), f"--gamma-grid={grid}", "--format", fmt]
            for n in range(2, 25)
            for grid in ("-3:3:0.125", "-12:12:0.0625")
            for fmt in ("csv", "json")]
    return ops


def float_digest() -> tuple[int, str]:
    """(number of calls, sha256 hex prefix) over the `float` set."""
    from curlsharp import cli

    h = hashlib.sha256()
    ops = float_ops()
    for argv in ops:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        h.update(repr((argv, rc, out.getvalue(), err.getvalue())).encode())
    return len(ops), h.hexdigest()[:16]


def main(argv=None) -> int:
    workloads = _workloads()
    names = ((sys.argv[1:] if argv is None else argv)
             or [*workloads.WORKLOADS, "float"])
    for name in names:
        if name == "float":
            count, hexdigest = float_digest()
        else:
            count, hexdigest = digest(workloads, name)
        print(f"{name} {count} {hexdigest}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
