"""Command-line front end.

Subcommands:

    constants   closed-form sharp constants and the improvement report
    certify     run the exact certificate suite (exit 1 on any failure)
    quotient    minimizing-sequence table for one (N, gamma, nu)
    sweep       CSV or JSON of A/C minima over a gamma grid at fixed N
    oracle      full-dimensional vs reduced-form cross-check (N = 2, 3)
    remainder   seeded random remainder-inequality checks

Output is JSON, or CSV for sweep unless --format json, deterministic
for identical inputs including the seed.  Every JSON document is byte
for byte json.dumps(payload, indent=2, sort_keys=True) plus a newline;
`_json` writes it with one C-encoder call per container of scalars, and
one call for a whole list of rows (non-empty dicts of scalars), such as
the rows of a sweep or the reports of certify.
gamma accepts an exact rational literal "p/q" or an integer; a decimal
value is routed to the float path and flagged with a "float_path"
warning field in the output.

Exit codes: 0 success, 1 mathematical failure (certificate violation,
invariant breach, unconverged quadrature), 2 usage error.  Every
malformed value is a usage error, rejected before any work with a
message on stderr and nothing on stdout: a dimension below 2, a negative
mode, seed, count or nu-max, a dilation below 1, a gamma that does not
parse or is not finite, an --ns that is not a list of integers, a
--gamma-grid that is not finite lo:hi:step with a nonzero step toward
hi or that has more than 100 000 points.  So is an --output path that
cannot be written: "error: cannot write <path>: <reason>" on stderr.  A
path whose directory is missing or not a directory, or that is itself a
directory, is rejected before any work; any other reason is found by
opening the path once the document is made.

Each subcommand is declared once in COMMANDS; `main` uses the parser
of the invoked subcommand only, and the full parser when argv names no
known subcommand (`-h`, a missing or an unknown one).  Each parser is
built on its first use in a process and reused after that; nothing is
built at import.
"""

from __future__ import annotations

import argparse
import csv
import errno
import io
import json
import math
import os
import stat
import sys
from fractions import Fraction
from functools import lru_cache

from .constants import (Params, TailBoundError, _hardy_leray, hardy_leray,
                        improvement_report)
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
    except (ValueError, ZeroDivisionError, OverflowError):
        raise UsageError(f"cannot parse gamma {text!r}; use p/q, an integer, "
                         "or a decimal") from None
    if not math.isfinite(val):
        raise UsageError(f"gamma {text!r} is not a finite number")
    return None, val, True


def _output_path(args) -> str | None:
    """The path --output names, a relative one under $CURLSHARP_OUTDIR
    when that is set; empty or None when the document goes to stdout."""
    out_path = getattr(args, "output", None)
    if out_path and not os.path.isabs(out_path):
        out_path = os.path.join(os.environ.get("CURLSHARP_OUTDIR", ""), out_path)
    return out_path


def _check_output(args) -> None:
    """Raise the UsageError `_emit` would raise, before any work, when the
    output path's directory is missing or not a directory, or the path
    is itself a directory."""
    out_path = _output_path(args)
    if not out_path:
        return
    try:
        mode = os.stat(os.path.dirname(out_path) or os.curdir).st_mode
    except OSError as exc:
        reason = exc.strerror
    else:
        if not stat.S_ISDIR(mode):
            reason = os.strerror(errno.ENOTDIR)
        elif os.path.isdir(out_path):
            reason = os.strerror(errno.EISDIR)
        else:
            return
    raise UsageError(f"cannot write {out_path}: {reason}")


def _emit(doc, args) -> None:
    out_path = _output_path(args)
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(doc)
        except OSError as exc:
            raise UsageError(f"cannot write {out_path}: {exc.strerror}") from None
    else:
        sys.stdout.write(doc)


_CONTAINERS = (dict, list, tuple)


@lru_cache(maxsize=None)
def _encoder(depth: int) -> json.JSONEncoder:
    """Encodes a container of scalars whose items sit `depth` levels deep
    as json.dumps(indent=2, sort_keys=True) would, less the line breaks
    after the opening and before the closing bracket.  With indent=None,
    CPython runs its C encoder."""
    return json.JSONEncoder(sort_keys=True,
                            separators=(",\n" + "  " * depth, ": "))


def _encode(obj, depth: int) -> str:
    """`obj` as json.dumps(obj, indent=2, sort_keys=True) writes it at
    nesting depth `depth`.  A container of scalars is one encoder call, and
    so is a list of non-empty dicts of scalars (the rows of a table): it is
    encoded with its rows' item separator, and only the row boundaries are
    re-indented.  Any other container that holds containers is encoded with
    a null in place of each of them, which is then replaced by the
    container's own text."""
    enc = _encoder(depth + 1)
    if not isinstance(obj, _CONTAINERS):
        return enc.encode(obj)
    values = obj.values() if isinstance(obj, dict) else obj
    pad = "\n" + "  " * depth
    if not any(isinstance(v, _CONTAINERS) for v in values):
        text = enc.encode(obj)
        if len(text) == 2:  # "{}" or "[]"
            return text
        body = text[1:-1]
    elif (not isinstance(obj, dict)
          and all(isinstance(v, dict) and v for v in obj)
          and not any(issubclass(t, _CONTAINERS)
                      for t in {type(x) for v in obj for x in v.values()})):
        row_enc = _encoder(depth + 2)
        # no encoded scalar holds a raw line break and every key encodes as
        # a string, so "}" + separator + "{" occurs only between two rows
        boundary = "}" + row_enc.item_separator + "{"
        rows = row_enc.encode(obj)[2:-2].replace(
            boundary, pad + "  }," + pad + "  {" + pad + "    ")
        return "[" + pad + "  {" + pad + "    " + rows + pad + "  }" + pad + "]"
    else:
        if isinstance(obj, dict):
            keys = sorted(obj)  # the encoder's item order
            values = [obj[k] for k in keys]
            shell = {k: None if isinstance(v, _CONTAINERS) else v
                     for k, v in zip(keys, values)}
        else:
            shell = [None if isinstance(v, _CONTAINERS) else v for v in values]
        text = enc.encode(shell)
        # no encoded scalar holds a raw line break, so only separators split
        items = text[1:-1].split(enc.item_separator)
        for i, v in enumerate(values):
            if isinstance(v, _CONTAINERS):  # replace the item's "null"
                items[i] = items[i][:-4] + _encode(v, depth + 1)
        body = enc.item_separator.join(items)
    return text[0] + pad + "  " + body + pad + text[-1]


def _json(payload) -> str:
    """The document json.dumps(payload, indent=2, sort_keys=True) writes,
    plus a newline."""
    return _encode(payload, 0) + "\n"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_constants(args) -> int:
    exact, gf, float_path = _parse_gamma(args.gamma)
    if float_path:
        row, a, c = sweep_mod.point(args.N, gf)
        payload = {
            "command": "constants",
            "N": args.N,
            "gamma": gf,
            "float_path": True,
            "warning": "decimal gamma evaluated on the float path",
            "H": _hardy_leray(args.N, gf, args.N / 2.0),
            "A": [a[nu] for nu in range(args.nu_max + 1)],
            "C": [c[nu] for nu in range(args.nu_max + 1)],
            "A_min": row.A_min, "A_argmin": row.A_argmin,
            "C_min": row.C_min, "C_argmin": row.C_argmin,
            "equal": row.equal,
            "in_improvement_region": row.in_improvement_region,
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
        "A": [str(rep.A_modes[nu]) for nu in range(args.nu_max + 1)],
        "C": [str(rep.C_modes[nu]) for nu in range(args.nu_max + 1)],
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
    regimes = None if args.regime == "all" else [args.regime]
    suite = certs.run_suite(regimes)
    extra_fail = []
    if args.regime == "all":
        extra_fail += certs.quotient_constant_links()
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
    try:
        res = minimizing_sequence(p, args.nu, args.ns, kind=args.kind)
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
    rows = sweep_mod.sweep_gamma(args.N, args.gamma_grid)
    if args.format == "json":
        payload = {
            "command": "sweep", "N": args.N,
            "rows": [row._asdict() for row in rows],
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

def _int_at_least(lo: int):
    """argparse type: an integer >= lo."""
    def convert(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid int value: {text!r}") from None
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {value}")
        return value
    return convert


def _dilations(text: str) -> list[int]:
    """argparse type: comma-separated dilations, each an integer >= 1."""
    try:
        ns = [int(x) for x in text.split(",")]
    except ValueError:
        ns = []
    if not ns or min(ns) < 1:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers >= 1, got {text!r}")
    return ns


GAMMA_GRID_MAX_POINTS = 100_000


def _gamma_grid(text: str) -> list[float]:
    """argparse type: "lo:hi:step" -> [lo, lo + step, ..., lo + k*step],
    with k the largest count of steps that does not pass hi.  A tolerance
    of 1e-9 steps keeps a grid whose last step lands on hi up to rounding,
    such as 0:0.3:0.1, at that point.  A grid of more than
    GAMMA_GRID_MAX_POINTS points is rejected before any is made."""
    try:
        lo, hi, step = (float(x) for x in text.split(":"))
        count = math.floor((hi - lo) / step + 1e-9) + 1
    except (ValueError, ZeroDivisionError, OverflowError):
        count = 0
    if count < 1:
        raise argparse.ArgumentTypeError(
            f"expected lo:hi:step with finite lo and hi and a nonzero step "
            f"from lo toward hi, got {text!r}")
    if count > GAMMA_GRID_MAX_POINTS:
        raise argparse.ArgumentTypeError(
            f"{text!r} has {count} points, more than the "
            f"{GAMMA_GRID_MAX_POINTS} a sweep allows")
    return [lo + k * step for k in range(count)]


def _add_constants(p) -> None:
    p.add_argument("--N", type=_int_at_least(2), required=True)
    p.add_argument("--gamma", required=True)
    p.add_argument("--nu-max", type=_int_at_least(0), default=8,
                   dest="nu_max")


def _add_certify(p) -> None:
    p.add_argument("--regime", default="all",
                   choices=["all"] + sorted(certs.REGIMES))
    p.add_argument("--seed", type=_int_at_least(0), default=0)


def _add_quotient(p) -> None:
    p.add_argument("--N", type=_int_at_least(2), required=True)
    p.add_argument("--gamma", required=True)
    p.add_argument("--nu", type=_int_at_least(0), required=True)
    p.add_argument("--ns", type=_dilations, default="10,20,40")
    p.add_argument("--kind", default="bump", choices=["bump", "cos4"])


def _add_sweep(p) -> None:
    p.add_argument("--N", type=_int_at_least(2), required=True)
    p.add_argument("--gamma-grid", type=_gamma_grid, default="-3:3:0.125",
                   dest="gamma_grid", help="lo:hi:step")
    p.add_argument("--format", default="csv", choices=["csv", "json"])


def _add_oracle(p) -> None:
    p.add_argument("--N", type=int, required=True, choices=[2, 3])
    p.add_argument("--gamma", required=True)
    p.add_argument("--nu", type=_int_at_least(0), default=1)
    p.add_argument("--n", type=_int_at_least(1), default=2)
    p.add_argument("--kind", default="bump", choices=["bump", "cos4"])


def _add_remainder(p) -> None:
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.add_argument("--count", type=_int_at_least(0), default=20,
                   help="fields per regime")


# (name, help, argument adder, handler), in the order `-h` lists them
COMMANDS = (
    ("constants", "closed-form sharp constants", _add_constants,
     cmd_constants),
    ("certify", "run the exact certificate suite", _add_certify, cmd_certify),
    ("quotient", "minimizing-sequence table", _add_quotient, cmd_quotient),
    ("sweep", "gamma sweep at fixed N (float path)", _add_sweep, cmd_sweep),
    ("oracle", "full-dimensional cross-check (N=2,3)", _add_oracle,
     cmd_oracle),
    ("remainder", "seeded random remainder checks", _add_remainder,
     cmd_remainder),
)
_COMMAND_NAMES = tuple(name for name, *_ in COMMANDS)


@lru_cache(maxsize=None)
def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI parser with every subcommand, or with `command` alone.

    A parser narrowed to one subcommand parses that subcommand's argv to
    the same Namespace, and prints the same help, usage and errors, as
    the full one: its usage line still lists every subcommand.

    Each parser is built once per process and shared by every call.
    Parsing leaves it unchanged: each parse starts from a fresh Namespace
    and converts the string defaults anew, and help reads the terminal
    width when it is printed.
    """
    ap = argparse.ArgumentParser(
        prog="curlsharp",
        description="Sharp constants and certificates for curl-free "
                    "Hardy/Rellich-type inequalities.")
    # argparse names a metavar in its errors, so only the narrowed parser,
    # which cannot raise "invalid choice" or "required", sets one
    metavar = None if command is None else "{%s}" % ",".join(_COMMAND_NAMES)
    sub = ap.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, help_text, add_arguments, handler in COMMANDS:
        if command not in (None, name):
            continue
        p = sub.add_parser(name, help=help_text)
        add_arguments(p)
        p.add_argument("--output", help="write the document to this path "
                       "(relative paths resolve under $CURLSHARP_OUTDIR)")
        p.set_defaults(func=handler)
    return ap


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv and argv[0] in _COMMAND_NAMES else None
    parser = build_parser(command)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        _check_output(args)
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
