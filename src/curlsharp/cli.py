"""Command-line front end.

Subcommands:

    constants   closed-form sharp constants and the improvement report
    certify     run the exact certificate suite (exit 1 on any failure)
    quotient    minimizing-sequence table for one (N, gamma, nu)
    sweep       CSV of A/C minima over a gamma grid at fixed N
    oracle      full-dimensional vs reduced-form cross-check (N = 2, 3)
    remainder   seeded random remainder-inequality checks

Output is JSON (or CSV for sweep), deterministic for identical inputs
including the seed.  gamma accepts an exact rational literal "p/q" or an
integer; a decimal value is routed to the float path and flagged with a
"float_path" warning field in the output.

Exit codes: 0 success, 1 mathematical failure (certificate violation,
invariant breach, unconverged quadrature), 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from fractions import Fraction

from .constants import (Params, TailBoundError, hardy_leray, improvement_report,
                        rellich_hardy_A, rellich_hardy_C)
from . import certificates as certs
from . import sweep as sweep_mod

EXIT_OK = 0
EXIT_MATH = 1
EXIT_USAGE = 2


class UsageError(ValueError):
    pass


def _parse_gamma(text: str) -> tuple[Fraction | None, float, bool]:
    """Returns (exact, float value, is_float_path)."""
    text = text.strip()
    try:
        if "/" in text or text.lstrip("+-").isdigit():
            g = Fraction(text)
            return g, float(g), False
        val = float(text)
        return None, val, True
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"cannot parse gamma {text!r}; use p/q, an integer, "
                         "or a decimal") from None


def _emit(doc, args) -> None:
    out_path = getattr(args, "output", None)
    if out_path:
        base = os.environ.get("CURLSHARP_OUTDIR", "")
        if base and not os.path.isabs(out_path):
            out_path = os.path.join(base, out_path)
        with open(out_path, "w") as fh:
            fh.write(doc)
    else:
        sys.stdout.write(doc)


def _json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_constants(args) -> int:
    exact, gf, float_path = _parse_gamma(args.gamma)
    if float_path:
        a_min, a_arg = sweep_mod.rellich_hardy_A_min_f(args.N, gf)
        c_min, c_arg = sweep_mod.rellich_hardy_C_min_f(args.N, gf)
        payload = {
            "command": "constants",
            "N": args.N,
            "gamma": gf,
            "float_path": True,
            "warning": "decimal gamma evaluated on the float path",
            "H": sweep_mod.hardy_leray_f(args.N, gf),
            "A": [sweep_mod.rellich_hardy_A_f(args.N, gf, nu)
                  for nu in range(args.nu_max + 1)],
            "C": [sweep_mod.rellich_hardy_C_f(args.N, gf, nu)
                  for nu in range(args.nu_max + 1)],
            "A_min": a_min, "A_argmin": a_arg,
            "C_min": c_min, "C_argmin": c_arg,
            "equal": abs(a_min - c_min) <= 1e-12 * max(abs(a_min), abs(c_min), 1.0),
            "in_improvement_region": sweep_mod.in_improvement_region_f(args.N, gf),
        }
        _emit(_json(payload), args)
        return EXIT_OK
    p = Params(args.N, exact)
    rep = improvement_report(p)
    payload = {
        "command": "constants",
        "N": p.N,
        "gamma": str(p.gamma),
        "lam": str(p.lam),
        "float_path": False,
        "H": str(hardy_leray(p)),
        "A": [str(rellich_hardy_A(p, nu)) for nu in range(args.nu_max + 1)],
        "C": [str(rellich_hardy_C(p, nu)) for nu in range(args.nu_max + 1)],
        "A_min": str(rep.A.value), "A_argmin": rep.A.argmin_nu,
        "C_min": str(rep.C.value), "C_argmin": rep.C.argmin_nu,
        "equal": rep.equal,
        "strict_improvement": rep.strict_improvement,
        "in_improvement_region": rep.in_region,
        "sandwich_ok": rep.sandwich_ok,
        "degenerate_mode_nu1": rep.degenerate_mode_nu1,
    }
    _emit(_json(payload), args)
    return EXIT_OK


def cmd_certify(args) -> int:
    try:
        lo, _, hi = args.n_range.partition("..")
        n_lo, n_hi = int(lo), int(hi)
        if not (2 <= n_lo <= n_hi):
            raise ValueError
    except ValueError:
        raise UsageError(f"bad --N-range {args.n_range!r}; expected lo..hi "
                         "with 2 <= lo <= hi") from None
    regimes = None if args.regime == "all" else [args.regime]
    suite = certs.run_suite(regimes)
    extra_fail = []
    if args.regime == "all":
        extra_fail += certs.quotient_constant_links(n_min=n_lo, n_max=n_hi)
        extra_fail += certs.interleaving_spot_checks(seed=args.seed)
        margin, checked, guard_fails = certs.difference_quotient_guard(
            seed=args.seed)
        extra_fail += guard_fails
    else:
        margin, checked = None, 0
    passed, total = suite.counts
    payload = {
        "command": "certify",
        "regime": args.regime,
        "passed": passed,
        "total": total,
        "link_and_guard_failures": extra_fail,
        "guard_min_margin": margin,
        "guard_points": checked,
        "reports": [
            {"name": r.name, "identity_ok": r.identity_ok,
             "signs_ok": r.signs_ok, "detail": r.detail}
            for r in suite.reports + suite.structural
        ],
        "all_ok": suite.all_ok and not extra_fail,
    }
    _emit(_json(payload), args)
    return EXIT_OK if payload["all_ok"] else EXIT_MATH


def cmd_quotient(args) -> int:
    from .spectral import DegenerateModeError, minimizing_sequence

    exact, gf, float_path = _parse_gamma(args.gamma)
    if float_path:
        raise UsageError("quotient needs an exact gamma (p/q or integer)")
    p = Params(args.N, exact)
    ns = [int(x) for x in args.ns.split(",")]
    try:
        res = minimizing_sequence(p, args.nu, ns, kind=args.kind)
    except DegenerateModeError as exc:
        _emit(_json({"command": "quotient", "error": str(exc)}), args)
        return EXIT_MATH
    payload = {
        "command": "quotient",
        "N": p.N, "gamma": str(p.gamma), "nu": args.nu,
        "kind": args.kind,
        "target": res.target,
        "fitted_exponent": res.fitted_exponent,
        "rows": [r.as_dict() for r in res.reports],
    }
    _emit(_json(payload), args)
    return EXIT_OK


def cmd_sweep(args) -> int:
    lo, hi, step = (float(x) for x in args.gamma_grid.split(":"))
    count = int(round((hi - lo) / step)) + 1
    gammas = [lo + k * step for k in range(count)]
    rows = sweep_mod.sweep_gamma(args.N, gammas)
    if args.format == "json":
        payload = {
            "command": "sweep", "N": args.N,
            "rows": [row.__dict__ for row in rows],
        }
        _emit(_json(payload), args)
        return EXIT_OK
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["N", "gamma", "A_min", "A_argmin", "C_min", "C_argmin",
                     "equal", "in_improvement_region"])
    for row in rows:
        writer.writerow([row.N, repr(row.gamma), repr(row.A_min), row.A_argmin,
                         repr(row.C_min), row.C_argmin, row.equal,
                         row.in_improvement_region])
    _emit(buf.getvalue(), args)
    return EXIT_OK


def cmd_oracle(args) -> int:
    from .oracle import CrosscheckMismatch, crosscheck
    from .spectral import NotConvergedError, Profile

    exact, gf, float_path = _parse_gamma(args.gamma)
    if float_path:
        raise UsageError("oracle needs an exact gamma (p/q or integer)")
    p = Params(args.N, exact)
    profile = Profile.make(args.kind, args.n)
    try:
        rep = crosscheck(p, args.nu, profile)
    except (CrosscheckMismatch, NotConvergedError) as exc:
        _emit(_json({"command": "oracle", "error": str(exc)}), args)
        return EXIT_MATH
    payload = {"command": "oracle", "kind": args.kind}
    payload.update(rep.as_dict())
    _emit(_json(payload), args)
    return EXIT_OK


def cmd_remainder(args) -> int:
    import numpy as np

    from .spectral import Profile, SpectralField, remainder_check

    rng = np.random.default_rng(args.seed)
    gammas_by_regime = {
        "le1": [Fraction(k, 4) for k in range(-8, 5)],
        "gt1-nge3": [Fraction(5, 4), Fraction(3, 2), Fraction(2), Fraction(3)],
        "gt1-n2": [Fraction(5, 4), Fraction(3, 2), Fraction(2), Fraction(3)],
    }
    rows = []
    all_ok = True
    for regime, gammas in gammas_by_regime.items():
        done = 0
        while done < args.count:
            if regime == "gt1-n2":
                n_dim = 2
            elif regime == "gt1-nge3":
                n_dim = int(rng.integers(3, 7))
            else:
                n_dim = int(rng.integers(2, 7))
            g = gammas[rng.integers(len(gammas))]
            p = Params(n_dim, g)
            nu = int(rng.integers(0, 5))
            if p.degenerate and nu == 1:
                continue
            n_dil = int(rng.integers(2, 8))
            kind = "bump" if rng.integers(2) else "cos4"
            field = SpectralField(p, nu, Profile.make(kind, n_dil))
            rep = remainder_check(field)
            row = rep.as_dict()
            row["regime"] = regime
            row["kind"] = kind
            rows.append(row)
            all_ok = all_ok and rep.passed
            done += 1
    payload = {
        "command": "remainder",
        "seed": args.seed,
        "count_per_regime": args.count,
        "all_ok": all_ok,
        "rows": rows,
    }
    _emit(_json(payload), args)
    return EXIT_OK if all_ok else EXIT_MATH


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="curlsharp",
        description="Sharp constants and certificates for curl-free "
                    "Hardy/Rellich-type inequalities.")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--output", help="write the document to this path "
                       "(relative paths resolve under $CURLSHARP_OUTDIR)")

    p = sub.add_parser("constants", help="closed-form sharp constants")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--gamma", required=True)
    p.add_argument("--nu-max", type=int, default=8, dest="nu_max")
    add_common(p)
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("certify", help="run the exact certificate suite")
    p.add_argument("--regime", default="all",
                   choices=["all"] + sorted(certs.REGIMES))
    p.add_argument("--N-range", default="2..10", dest="n_range",
                   help="integer dimension range lo..hi for the exact "
                        "constant-link grid")
    p.add_argument("--seed", type=int, default=0)
    add_common(p)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("quotient", help="minimizing-sequence table")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--gamma", required=True)
    p.add_argument("--nu", type=int, required=True)
    p.add_argument("--ns", default="10,20,40")
    p.add_argument("--kind", default="bump", choices=["bump", "cos4"])
    add_common(p)
    p.set_defaults(func=cmd_quotient)

    p = sub.add_parser("sweep", help="gamma sweep at fixed N (float path)")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--gamma-grid", default="-3:3:0.125", dest="gamma_grid",
                   help="lo:hi:step")
    p.add_argument("--format", default="csv", choices=["csv", "json"])
    add_common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("oracle", help="full-dimensional cross-check (N=2,3)")
    p.add_argument("--N", type=int, required=True, choices=[2, 3])
    p.add_argument("--gamma", required=True)
    p.add_argument("--nu", type=int, default=1)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--kind", default="bump", choices=["bump", "cos4"])
    add_common(p)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("remainder", help="seeded random remainder checks")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=20,
                   help="fields per regime")
    add_common(p)
    p.set_defaults(func=cmd_remainder)

    return ap


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    except (TailBoundError, AssertionError, RuntimeError) as exc:
        print(f"math failure: {exc}", file=sys.stderr)
        return EXIT_MATH


if __name__ == "__main__":
    raise SystemExit(main())
