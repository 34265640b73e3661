"""curlsharp benchmark: one closed-loop client, one process, sequential ops.

Run from the repository root:

    python3 bench/run.py --workload certify|grid|numerics|all \\
        --seed 1 --seconds 25 --trace 0|1

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` alternates untraced rounds with rounds in which the package's
public functions are wrapped (see tracer.py), and reports the per-layer
metrics of the traced rounds, the tracing overhead and the baseline rows.  ``--workload all``
runs each workload in a fresh interpreter, one after the other.

Every op is timed from outside and its output checked (checks.py) outside
the timed interval.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a fuller record,
with provenance, goes to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import calib
import checks
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT_DIR = BENCH / "out"
SETUP_REPS = 7

# Metrics each workload adds to the shared end-to-end set: (name, unit,
# op kind, statistic).  "rate" is units per busy second of that kind,
# "median" the median time of one op of that kind; both at reference speed.
WORKLOAD_METRICS = {
    "certify": [("certify_all_s", "s", "certify_all", "median")],
    "grid": [("grid_points_per_s", "points/s", "constants", "rate"),
             ("sweep_points_per_s", "points/s", "sweep", "rate")],
    "numerics": [("remainder_fields_per_s", "fields/s", "remainder", "rate"),
                 ("quotient_seq_s", "s", "quotient", "median"),
                 ("oracle_checks_per_s", "checks/s", "oracle", "rate")],
}


class BenchError(RuntimeError):
    """The benchmark cannot run here (no source tree, failed setup)."""


def use_source_tree() -> None:
    """Import curlsharp from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "curlsharp" / "__init__.py").is_file():
        raise BenchError(f"no curlsharp source tree under {SRC}")
    sys.path.insert(0, str(SRC))


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "curlsharp").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# set-up time
# ---------------------------------------------------------------------------

_IMPORT_PROBE = """
import sys, time
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from calib import probe, scaled
probe()
out = []
for stage in sys.argv[3:]:
    before = [probe() for _ in range(5)]
    t = time.perf_counter()
    for name in stage.split(","):
        __import__(name)
    t = time.perf_counter() - t
    after = [probe() for _ in range(5)]
    out.append(scaled(t, sum(before + after) / 10))
print(*out)
"""


def measure_setup(stages: list[tuple[str, ...]]) -> list[list[float]]:
    """Import time of each stage in SETUP_REPS fresh interpreters, scaled to
    reference speed (see calib.py): one list of samples per stage (later
    stages exclude earlier ones)."""
    samples: list[list[float]] = [[] for _ in stages]
    argv = [sys.executable, "-c", _IMPORT_PROBE, str(SRC), str(BENCH)]
    argv += [",".join(stage) for stage in stages]
    for _ in range(SETUP_REPS):
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=120)
        if proc.returncode != 0:
            raise BenchError(f"import probe failed: {proc.stderr.strip()[-500:]}")
        for i, value in enumerate(proc.stdout.split()):
            samples[i].append(float(value))
    return samples


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------

@dataclass
class Record:
    op: workloads.Op
    start: float
    wall: float
    problems: list[str] = field(default_factory=list)
    out_bytes: int = 0
    probe: float = calib.PROBE_REF_S  # mean speed-probe time around the op

    @property
    def scaled(self) -> float:
        return calib.scaled(self.wall, self.probe)


def run_ops(stream, seconds: float, checker, tracer=None, first_id: int = 0) -> list[Record]:
    """Run whole rounds from ``stream`` until the next round would end after
    ``seconds`` at reference speed (at least one round), so the op count
    does not depend on how busy the host is.  Checks run outside the timed
    part."""
    records: list[Record] = []
    elapsed = 0.0
    with calib.Sampler() as sampler:
        for ops in stream:
            round_start = time.perf_counter()
            for op in ops:
                error = None
                t0 = time.perf_counter()
                if tracer is not None:
                    tracer.begin_op(first_id + len(records), op.kind)
                try:
                    rc, out = workloads.execute(op)
                except Exception as exc:  # an op that raises is a failed op
                    error = f"raised {type(exc).__name__}: {exc}"
                if tracer is not None:
                    tracer.end_op()
                wall = time.perf_counter() - t0
                if error is None:
                    records.append(Record(op, t0, wall, checker.check(op, rc, out),
                                          len(out) if isinstance(out, str) else 0))
                else:
                    records.append(Record(op, t0, wall, [error]))
            now = time.perf_counter()
            round_s = calib.scaled(now - round_start, sampler.speed(round_start, now))
            elapsed += round_s
            if elapsed + round_s > seconds:
                break
    for r in records:
        r.probe = sampler.speed(r.start, r.start + r.wall)
    return records


def run_traced(stream, seconds: float, checker, tr) -> tuple[list[Record], list[Record]]:
    """Alternate traced and untraced rounds (at least one of each), so both
    halves see the same cache state; returns (untraced, traced) records."""
    untraced: list[Record] = []
    traced: list[Record] = []
    start = time.perf_counter()
    for k, ops in enumerate(stream):
        round_start = time.perf_counter()
        if k % 2 == 0:
            tr.install()
            try:
                traced += run_ops([ops], 0, checker, tr, len(untraced) + len(traced))
            finally:
                tr.uninstall()
        else:
            untraced += run_ops([ops], 0, checker)
        now = time.perf_counter()
        if k >= 1 and now - start + (now - round_start) > seconds:
            break
    return untraced, traced


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def tail(walls: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it; with ten or fewer samples, the maximum."""
    ordered = sorted(walls)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(records: list[Record], setup_s: float) -> dict[str, tuple[float, str]]:
    """The BENCHMARK.json metrics; op times at reference speed."""
    times = [r.scaled for r in records]
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(times) / sum(times), "ops/s"),
        "op_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "op_tail_ms": (tail(times)[0] * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def workload_metrics(workload: str, records: list[Record]) -> dict[str, tuple[float, str]]:
    """fail_ratio, the workload's own rates (at reference speed) and the
    raw wall-clock figures."""
    failed = sum(1 for r in records if r.problems)
    out = {"fail_ratio": (failed / len(records), "ratio")}
    for name, unit, kind, stat in WORKLOAD_METRICS[workload]:
        mine = [r for r in records if r.op.kind == kind]
        if not mine:
            continue
        times = [r.scaled for r in mine]
        if stat == "median":
            out[name] = (statistics.median(times), unit)
        else:
            out[name] = (sum(r.op.units for r in mine) / sum(times), unit)
    walls = [r.wall for r in records]
    out.update({
        "raw_ops_per_s": (len(walls) / sum(walls), "ops/s"),
        "raw_op_p50_ms": (statistics.median(walls) * 1e3, "ms"),
        "raw_op_tail_ms": (tail(walls)[0] * 1e3, "ms"),
        "probe_slowdown": (statistics.median(r.probe for r in records) / calib.PROBE_REF_S,
                           "ratio"),
    })
    return out


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------

def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _version(dist: str) -> str:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "absent"


def provenance(workload: str, seed: int, seconds: int, trace: bool,
               records: list[Record]) -> dict:
    return {
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "jsonschema": _version("jsonschema"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "ops_attempted": len(records),
        "ops_failed": sum(1 for r in records if r.problems),
        "ops_by_kind": dict(sorted(Counter(r.op.kind for r in records).items())),
    }


# ---------------------------------------------------------------------------
# one workload run
# ---------------------------------------------------------------------------

def _print_metrics(title: str, metrics: dict[str, tuple[float, str]]) -> None:
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<42} {value:>14.6g} {unit}")


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> int:
    use_source_tree()
    numeric = workloads.IMPORTS[workload] != workloads.CORE_MODULES
    stages = [workloads.CORE_MODULES, workloads.NUMERIC_MODULES]
    setup = measure_setup(stages if trace or numeric else stages[:1])
    setup_s = statistics.median(sum(rep[:1 + numeric]) for rep in zip(*setup))
    for name in workloads.IMPORTS[workload]:
        __import__(name)

    checker = checks.Checker(ROOT, seed)
    stream = workloads.rounds(workload, seed)
    if trace:
        import tracer as tracing

        tr = tracing.Tracer()
        untraced, traced = run_traced(stream, seconds, checker, tr)
        records = untraced + traced
        metrics = tr.layer_metrics(traced, untraced, setup)
    else:
        records = run_ops(stream, seconds, checker)
        metrics = end_to_end(records, setup_s)
    extra = workload_metrics(workload, records)

    prov = provenance(workload, seed, seconds, trace, records)
    failed = [r for r in records if r.problems]
    print(f"workload={workload} seed={seed} seconds={seconds} trace={int(trace)}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    for r in failed[:20]:
        print(f"FAIL {r.op.key}: {'; '.join(r.problems)[:300]}")
    if trace:
        tr.print_report(traced, untraced)
        _print_metrics("per-layer metrics (per traced op unless the unit says otherwise):",
                       metrics)
    else:
        _print_metrics("end-to-end metrics:", metrics)
        print(f"  (op_tail_ms is p{tail([r.scaled for r in records])[1]:.1f} "
              f"of {len(records)} ops)")
    _print_metrics("workload metrics:", extra)

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    doc = {"provenance": prov,
           "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
           "workload_metrics": {k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
           "failures": [{"op": r.op.key, "problems": r.problems} for r in failed],
           "ops": [[r.op.key, r.start, r.wall, r.probe] for r in records]}
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(doc, indent=1) + "\n")
    if trace:
        tr.write_spans(OUT_DIR / f"{stem}-spans.json")

    print(json.dumps({
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(seed: int, seconds: int, trace: bool) -> int:
    """Each workload in a fresh interpreter, one after the other."""
    status = 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(seed), "--seconds", str(seconds),
                               "--trace", str(int(trace))], cwd=ROOT)
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=list(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    try:
        if args.workload == "all":
            return run_all(args.seed, args.seconds, bool(args.trace))
        return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
