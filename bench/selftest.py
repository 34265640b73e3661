"""Self-tests of the benchmark harness (not part of the package's suite).

Run from the repository root:

    python3 -m pytest -q bench/selftest.py
"""

from __future__ import annotations

import sys
from fractions import Fraction

import pytest

import checks
import run
import tracer
import workloads

run.use_source_tree()


@pytest.fixture(scope="module")
def checker():
    return checks.Checker(run.ROOT, seed=0)


def _first_ops(workload: str, seed: int, n_rounds: int) -> list[workloads.Op]:
    stream = workloads.rounds(workload, seed)
    return [op for _, ops in zip(range(n_rounds), stream) for op in ops]


def _mode_ops(ops):
    """(N, gamma, nu) of every op that names a mode."""
    for op in ops:
        if op.argv is not None and "--nu" in op.argv:
            argv = op.argv
            gamma = next(a.split("=", 1)[1] for a in argv if a.startswith("--gamma="))
            yield (int(argv[argv.index("--N") + 1]), Fraction(gamma),
                   int(argv[argv.index("--nu") + 1]))


def _wrapped_bindings() -> list[str]:
    """Every curlsharp binding that currently holds a tracing wrapper."""
    found = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "curlsharp" or mod_name.startswith("curlsharp.")):
            continue
        for key, value in vars(mod).items():
            if hasattr(value, "__bench_span__"):
                found.append(f"{mod_name}.{key}")
            elif isinstance(value, type):
                for attr, raw in vars(value).items():
                    if hasattr(getattr(raw, "__func__", raw), "__bench_span__"):
                        found.append(f"{mod_name}.{key}.{attr}")
            elif isinstance(value, dict):
                found += [f"{mod_name}.{key}[{k}]" for k, v in value.items()
                          if hasattr(v, "__bench_span__")]
    return found


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    assert _first_ops(workload, 3, 30) == _first_ops(workload, 3, 30)
    assert _first_ops(workload, 3, 30) != _first_ops(workload, 4, 30)


def test_generator_never_yields_lam_zero_nu_one():
    drawn = list(workloads.op_space("numerics"))
    for seed in range(5):
        drawn += _first_ops("numerics", seed, 200)
    modes = list(_mode_ops(drawn))
    lam_zero = [(n, g, nu) for n, g, nu in modes if Fraction(4 - n, 2) - g == 0]
    assert lam_zero, "the draw should include lam = 0 parameters"
    assert all(nu != 1 for _, _, nu in lam_zero)


def test_grid_points_are_distinct_within_a_run():
    keys = [op.key for op in _first_ops("grid", 0, 400) if op.kind == "constants"]
    assert len(keys) == len(set(keys))


def test_planted_wrong_value_raises_fail_ratio(checker, monkeypatch):
    from curlsharp import cli

    clean = run.run_ops(workloads.rounds("grid", 5), 0.5, checker)
    assert run.workload_metrics("grid", clean)["fail_ratio"][0] == 0
    real = cli.hardy_leray
    monkeypatch.setattr(cli, "hardy_leray", lambda p: real(p) + 1)
    planted = run.run_ops(workloads.rounds("grid", 5), 0.5, checker)
    assert run.workload_metrics("grid", planted)["fail_ratio"][0] > 0


@pytest.mark.parametrize("workload", ["grid", "numerics"])
def test_traced_self_times_sum_to_op_wall_time(checker, workload):
    for name in workloads.IMPORTS[workload]:
        __import__(name)
    tr = tracer.Tracer()
    tr.install()
    try:
        records = run.run_ops(workloads.rounds(workload, 2), 1.0, checker, tr)
    finally:
        tr.uninstall()
    assert not any(r.problems for r in records)
    selfs = tr.self_by_op()
    for op_id, r in enumerate(records):
        # the root span sits inside the outer timer, so the gap is the
        # tracer's own begin/end cost
        assert 0 <= r.wall - selfs[op_id] <= 2e-4 + 0.01 * r.wall
    layers = {tracer.layer_of(s[0]) for s in tr.spans}
    assert {"op", "cli", "constants"} <= layers


def test_untraced_run_installs_no_wrappers(checker, monkeypatch):
    tr = tracer.Tracer()
    tr.install()
    assert _wrapped_bindings(), "the probe must see an installed tracer"
    tr.uninstall()
    assert not _wrapped_bindings()

    seen = []
    real_execute = workloads.execute

    def probe(op):
        seen.append(_wrapped_bindings())
        return real_execute(op)

    monkeypatch.setattr(workloads, "execute", probe)
    run.run_ops(workloads.rounds("grid", 1), 0.3, checker)
    assert seen and not any(seen)
