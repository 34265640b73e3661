"""Seeded operation streams for the three benchmark workloads.

Each workload is a seeded sequence of *rounds*; a round is a short list
of operations with a fixed mix, so a run that stops between rounds always
measures the same mix.  Every operation is a call into a public entry
point: ``curlsharp.cli.main(argv)`` in-process, or (for ``brute``) the
library function ``curlsharp.spectral.brute_min_tau_nu``.

All draw spaces are finite, so ``make_golden.py`` can enumerate every
operation a seed may produce (``op_space``).
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass
from fractions import Fraction

WORKLOADS = ("certify", "grid", "numerics")

# Modules each workload's operations import; setup time is the cost of
# importing exactly these in a fresh interpreter.
CORE_MODULES = ("curlsharp.cli",)
NUMERIC_MODULES = ("curlsharp.spectral", "curlsharp.oracle")
IMPORTS = {
    "certify": CORE_MODULES,
    "grid": CORE_MODULES,
    "numerics": CORE_MODULES + NUMERIC_MODULES,
}

# certify: the `all` pass runs the links and the guard, whose sample
# points depend on --seed.
CERT_SEEDS = range(16)
CERT_REGIMES = ("base", "le1", "gt1-nge3", "n2", "section5")

# grid: exact points N in 2..24, gamma = p/q with q in GRID_Q, |gamma| <= 12.
GRID_N = range(2, 25)
GRID_Q = (1, 2, 3, 4, 8)
GRID_GAMMA_MAX = 12
SWEEP_GRID = "-12:12:0.0625"
_lo, _hi, _step = (float(x) for x in SWEEP_GRID.split(":"))
SWEEP_POINTS = int(round((_hi - _lo) / _step)) + 1
CONSTANTS_PER_ROUND = 4
# Points with an independent closed form (see checks.py); every run meets
# all of them among its first CLOSED_FORM_WINDOW constants points.
CLOSED_FORM_WINDOW = 200

# numerics: a small (N, gamma) set, so Params repeat and caches keyed on
# them are warm after the first few rounds.  (3, 1/2), (4, 0) and (6, -1)
# have lam = 0, where mode nu = 1 is excluded.
NUMERIC_PARAMS = tuple((n, Fraction(g)) for n in range(2, 7)
                       for g in ("-1", "0", "1/2", "5/4"))
QUOTIENT_NU = range(5)
QUOTIENT_NS = "10,20,40"
REMAINDER_SEEDS = range(64)
ORACLE_NU = range(4)
ORACLE_N = (1, 2)


@dataclass(frozen=True)
class Op:
    """One benchmark operation.

    ``kind`` names what it exercises; ``argv`` is the CLI argument list,
    or ``None`` for the library op, which takes ``params`` = (N, gamma).
    """

    kind: str
    argv: tuple[str, ...] | None = None
    params: tuple[int, Fraction] | None = None

    @property
    def key(self) -> str:
        if self.argv is not None:
            return " ".join(self.argv)
        return f"brute {self.params[0]} {self.params[1]}"

    @property
    def units(self) -> int:
        """Domain items one op decides: sweep points, remainder fields
        (one per regime), else 1."""
        return {"sweep": SWEEP_POINTS, "remainder": 3}.get(self.kind, 1)


def _lam_zero(n: int, g: Fraction) -> bool:
    return Fraction(4 - n, 2) - g == 0


# ---------------------------------------------------------------------------
# op constructors
# ---------------------------------------------------------------------------

def certify_op(regime: str, seed: int | None = None) -> Op:
    if regime == "all":
        return Op("certify_all", ("certify", "--regime", "all", "--seed", str(seed)))
    return Op("certify_regime", ("certify", "--regime", regime))


def constants_op(n: int, g: Fraction) -> Op:
    return Op("constants", ("constants", "--N", str(n), f"--gamma={g}"))


def sweep_op(n: int) -> Op:
    return Op("sweep", ("sweep", "--N", str(n), f"--gamma-grid={SWEEP_GRID}",
                        "--format", "json"))


def quotient_op(n: int, g: Fraction, nu: int) -> Op:
    return Op("quotient", ("quotient", "--N", str(n), f"--gamma={g}",
                           "--nu", str(nu), "--ns", QUOTIENT_NS))


def remainder_op(seed: int) -> Op:
    return Op("remainder", ("remainder", "--seed", str(seed), "--count", "1"))


def oracle_op(n: int, g: Fraction, nu: int, dil: int) -> Op:
    return Op("oracle", ("oracle", "--N", str(n), f"--gamma={g}",
                         "--nu", str(nu), "--n", str(dil)))


def brute_op(n: int, g: Fraction) -> Op:
    return Op("brute", params=(n, g))


# ---------------------------------------------------------------------------
# draw spaces
# ---------------------------------------------------------------------------

def grid_points() -> list[tuple[int, Fraction]]:
    gammas = sorted({Fraction(p, q) for q in GRID_Q
                     for p in range(-GRID_GAMMA_MAX * q, GRID_GAMMA_MAX * q + 1)})
    return [(n, g) for n in GRID_N for g in gammas]


def closed_form_points() -> list[tuple[int, Fraction]]:
    pts = {(5, Fraction(0)), (3, Fraction(0))}
    pts |= {(n, Fraction(4 - n, 2)) for n in range(3, 13)}
    pts |= {(n, Fraction(0)) for n in GRID_N if n >= 5}
    return sorted(pts)


def quotient_space() -> list[tuple[int, Fraction, int]]:
    return [(n, g, nu) for n, g in NUMERIC_PARAMS for nu in QUOTIENT_NU
            if not (_lam_zero(n, g) and nu == 1)]


def oracle_space() -> list[tuple[int, Fraction, int, int]]:
    return [(n, g, nu, dil) for n, g in NUMERIC_PARAMS if n in (2, 3)
            for nu in ORACLE_NU for dil in ORACLE_N
            if not (_lam_zero(n, g) and nu == 1)]


def op_space(workload: str) -> list[Op]:
    """Every op the workload can draw, for any seed."""
    if workload == "certify":
        return ([certify_op("all", s) for s in CERT_SEEDS]
                + [certify_op(r) for r in CERT_REGIMES])
    if workload == "grid":
        return ([constants_op(n, g) for n, g in grid_points()]
                + [sweep_op(n) for n in GRID_N])
    if workload == "numerics":
        return ([quotient_op(*x) for x in quotient_space()]
                + [remainder_op(s) for s in REMAINDER_SEEDS]
                + [oracle_op(*x) for x in oracle_space()]
                + [brute_op(n, g) for n, g in NUMERIC_PARAMS])
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# round generators
# ---------------------------------------------------------------------------

def _cycle(rng: random.Random, items):
    """Endless draws without replacement: seeded shuffles of ``items``, one
    after another, so every run draws nearly the same mix."""
    items = list(items)
    while True:
        rng.shuffle(items)
        yield from items


def _certify_rounds(rng: random.Random):
    seeds = _cycle(rng, CERT_SEEDS)
    while True:
        ops = [certify_op("all", next(seeds))]
        ops += [certify_op(r) for r in CERT_REGIMES]
        rng.shuffle(ops)
        yield ops


def _grid_rounds(rng: random.Random):
    # Every exact point is distinct within a run, so the lru caches on the
    # mode minima never hit: this is the cold-cache side.
    closed = closed_form_points()
    closed_set = set(closed)
    rest = [p for p in grid_points() if p not in closed_set]
    rng.shuffle(rest)
    head = closed + rest[:CLOSED_FORM_WINDOW - len(closed)]
    rng.shuffle(head)
    points = head + rest[CLOSED_FORM_WINDOW - len(closed):]
    sweeps = _cycle(rng, GRID_N)
    # the stream ends when the distinct points run out (after ~5500)
    for k in range(0, len(points) - CONSTANTS_PER_ROUND + 1, CONSTANTS_PER_ROUND):
        ops = [constants_op(*p) for p in points[k:k + CONSTANTS_PER_ROUND]]
        ops.append(sweep_op(next(sweeps)))
        rng.shuffle(ops)
        yield ops


def _numerics_rounds(rng: random.Random):
    quotients = _cycle(rng, quotient_space())
    remainders = _cycle(rng, REMAINDER_SEEDS)
    oracles = _cycle(rng, oracle_space())
    brutes = _cycle(rng, NUMERIC_PARAMS)
    while True:
        ops = [quotient_op(*next(quotients)), remainder_op(next(remainders)),
               oracle_op(*next(oracles)), brute_op(*next(brutes))]
        rng.shuffle(ops)
        yield ops


_ROUNDS = {"certify": _certify_rounds, "grid": _grid_rounds,
           "numerics": _numerics_rounds}


def rounds(workload: str, seed: int):
    """Iterator of op rounds; the same seed gives the same ops."""
    return _ROUNDS[workload](random.Random(f"{workload}:{seed}"))


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------

def execute(op: Op):
    """Run one op.  CLI ops return (exit code, stdout text); the library
    op returns (0, BruteMinResult)."""
    if op.argv is None:
        from curlsharp import spectral
        from curlsharp.constants import Params
        return 0, spectral.brute_min_tau_nu(Params(*op.params))
    from curlsharp import cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(list(op.argv))
    return rc, buf.getvalue()
