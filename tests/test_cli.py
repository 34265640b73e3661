"""CLI: values, exit codes, determinism, schema validity."""

import argparse
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from curlsharp import certificates as certs, cli
from curlsharp.cli import COMMANDS, _json, build_parser, main
from curlsharp.sweep import sweep_gamma

SCHEMA = json.loads(
    (Path(__file__).resolve().parents[1] / "src" / "curlsharp"
     / "schema.json").read_text())


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def validate(doc: str):
    jsonschema = pytest.importorskip("jsonschema")
    jsonschema.validate(json.loads(doc), SCHEMA)


def assert_canonical(doc: str):
    """The document is byte for byte what json.dumps(indent=2,
    sort_keys=True) writes for its own content, plus a newline."""
    assert doc == json.dumps(json.loads(doc), indent=2, sort_keys=True) + "\n"


def test_constants_3_0(capsys):
    code, out = run(capsys, "constants", "--N", "3", "--gamma", "0")
    assert code == 0
    doc = json.loads(out)
    assert doc["C_min"] == "25/36" and doc["C_argmin"] == 0
    assert doc["A_min"] == "25/36" and doc["equal"] is True
    assert doc["H"] == "25/36"
    validate(out)
    assert_canonical(out)


def test_constants_2_1(capsys):
    code, out = run(capsys, "constants", "--N", "2", "--gamma", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["C_min"] == "1" and doc["A_min"] == "0"
    assert doc["strict_improvement"] is True
    validate(out)


def test_constants_rational_literal(capsys):
    code, out = run(capsys, "constants", "--N", "3", "--gamma", "1/2")
    doc = json.loads(out)
    assert code == 0 and doc["float_path"] is False
    assert doc["C_min"] == "2"


def test_constants_decimal_goes_float_path(capsys):
    code, out = run(capsys, "constants", "--N", "3", "--gamma", "0.25")
    doc = json.loads(out)
    assert code == 0 and doc["float_path"] is True and "warning" in doc
    validate(out)
    assert_canonical(out)


def test_certify_single_regime(capsys):
    code, out = run(capsys, "certify", "--regime", "n2")
    assert code == 0
    doc = json.loads(out)
    assert doc["all_ok"] and doc["passed"] == doc["total"]
    validate(out)
    assert_canonical(out)


def test_quotient(capsys):
    code, out = run(capsys, "quotient", "--N", "3", "--gamma", "0",
                    "--nu", "0", "--ns", "5,10,20")
    assert code == 0
    doc = json.loads(out)
    gaps = [row["gap"] for row in doc["rows"]]
    assert gaps[0] > gaps[1] > gaps[2] > 0
    assert 1.8 <= doc["fitted_exponent"] <= 2.2
    validate(out)
    assert_canonical(out)


def test_quotient_degenerate_exit(capsys):
    code, out = run(capsys, "quotient", "--N", "2", "--gamma", "1", "--nu", "1")
    assert code == 1
    assert "error" in json.loads(out)
    assert_canonical(out)


def test_sweep_csv(capsys):
    code, out = run(capsys, "sweep", "--N", "5", "--gamma-grid=-1:1:0.5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == ("N,gamma,A_min,A_argmin,C_min,C_argmin,"
                        "equal,in_improvement_region")
    assert len(lines) == 6
    row0 = lines[3].split(",")  # gamma = 0.0
    assert row0[0] == "5" and row0[6] == "False" and row0[7] == "True"
    assert out == (
        "N,gamma,A_min,A_argmin,C_min,C_argmin,equal,in_improvement_region\n"
        "5,-1.0,1.1911764705882353,1,1.1911764705882353,0,True,False\n"
        "5,-0.5,4.0,1,4.0,0,True,False\n"
        "5,0.0,6.25,0,6.485294117647059,0,False,True\n"
        "5,0.5,4.0,0,7.2,0,False,True\n"
        "5,1.0,2.25,0,6.25,0,False,True\n")


def test_sweep_json_schema(capsys):
    # the grid stops at the last point that does not pass hi
    for grid, gammas in [("0:1:0.5", [0.0, 0.5, 1.0]),
                         ("0:1:0.6", [0.0, 0.6]),
                         ("0:0.6:1", [0.0]),
                         ("0:0.3:0.1", [0.0, 0.1, 0.2, 0.30000000000000004])]:
        code, out = run(capsys, "sweep", "--N", "4", f"--gamma-grid={grid}",
                        "--format", "json")
        assert code == 0
        validate(out)
        assert_canonical(out)
        assert [row["gamma"] for row in json.loads(out)["rows"]] == gammas


@pytest.mark.parametrize("n", [2, 24])
def test_sweep_json_full_grid(capsys, n):
    # the grid of the benchmark's sweep ops: 385 rows, encoded in one call
    grid = "-12:12:0.0625"
    code, out = run(capsys, "sweep", "--N", str(n), f"--gamma-grid={grid}",
                    "--format", "json")
    assert code == 0
    rows = sweep_gamma(n, [-12 + k * 0.0625 for k in range(385)])
    payload = {"command": "sweep", "N": n, "rows": [r._asdict() for r in rows]}
    assert out == json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_oracle(capsys):
    code, out = run(capsys, "oracle", "--N", "2", "--gamma", "1/2",
                    "--nu", "1", "--n", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["rel_lap"] < 1e-6 and doc["rel_grad"] < 1e-6
    validate(out)
    assert_canonical(out)


def test_remainder_deterministic(capsys):
    code1, out1 = run(capsys, "remainder", "--seed", "3", "--count", "3")
    code2, out2 = run(capsys, "remainder", "--seed", "3", "--count", "3")
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical for identical inputs
    doc = json.loads(out1)
    assert doc["all_ok"] and len(doc["rows"]) == 9
    validate(out1)
    assert_canonical(out1)


_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 1e300, -1e300, 5e-324, 2.2250738585072014e-308,
                     math.nan, math.inf, -math.inf]),
    st.text(),
    st.sampled_from(["", "\x00\x1f\x7f", "line\nbreak\ttab\r", "\"\\/",
                     "ν γ λ ∞", "\u2028\u2029", "\U0001d70f", ",\n  null"]))


def _trees(depth: int):
    """JSON trees with str keys, nested at most `depth` containers deep."""
    if depth == 0:
        return _SCALARS
    sub = _trees(depth - 1)
    return st.one_of(_SCALARS, st.lists(sub, max_size=4),
                     st.lists(sub, max_size=4).map(tuple),
                     st.dictionaries(st.text(max_size=6), sub, max_size=4))


@settings(max_examples=400, deadline=None)
@given(tree=_trees(4))
def test_json_matches_indented_dumps(tree):
    assert _json(tree) == json.dumps(tree, indent=2, sort_keys=True) + "\n"


_FLAT_KEYS = st.one_of(st.text(max_size=6),
                      st.sampled_from(["}", "{", ",\n  {", "}, {", "\"}"]))
_FLAT_SCALARS = st.one_of(
    _SCALARS, st.sampled_from(["}", "{", ",\n  {", "},\n    {", "\"},{\""]))
# lists of 0-6 dicts of scalars, some of them empty: the rows of a table
_ROW_LISTS = st.lists(st.dictionaries(_FLAT_KEYS, _FLAT_SCALARS, max_size=5),
                      max_size=6)


def _nest(rows, depth: int):
    """`rows` with 0..depth containers around it."""
    if depth == 0:
        return st.just(rows)
    inner = _nest(rows, depth - 1)
    return st.one_of(
        st.just(rows),
        st.tuples(inner, st.dictionaries(st.text(max_size=4), _SCALARS, max_size=2),
                  st.text(max_size=4)).map(lambda t: {**t[1], t[2]: t[0]}),
        st.tuples(inner, st.lists(_SCALARS, max_size=2)).map(lambda t: t[1] + [t[0]]))


@settings(max_examples=300, deadline=None)
@given(tree=_ROW_LISTS.flatmap(lambda rows: _nest(rows, 3)))
def test_json_matches_indented_dumps_for_row_lists(tree):
    assert _json(tree) == json.dumps(tree, indent=2, sort_keys=True) + "\n"


def test_json_without_the_c_accelerator(monkeypatch):
    # the same encoder class falls back to pure Python, with the same bytes
    tree = {"rows": [{"x": 1.5, "y": [None, "\u00e9"]}, [], {}], "n": -0.0,
            "table": [{"a": 1, "b": "}"}, {"a": math.nan, "c": None}, {"d": 2}]}
    expected = _json(tree)
    monkeypatch.setattr(json.encoder, "c_make_encoder", None)
    assert _json(tree) == expected
    assert expected == json.dumps(tree, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("tree", [
    Fraction(1, 3),
    {"a": 1, "b": Fraction(1, 3)},
    {"rows": [{"x": 1}, [Fraction(1, 3)]], "z": 0},
    {"rows": [{"x": Fraction(1, 3)}, {"y": 1}]},
])
def test_json_rejects_what_dumps_rejects(tree):
    with pytest.raises(TypeError) as expected:
        json.dumps(tree, indent=2, sort_keys=True)
    with pytest.raises(TypeError) as got:
        _json(tree)
    assert str(got.value) == str(expected.value)


def test_usage_errors():
    assert main(["constants", "--N", "3"]) == 2          # missing gamma
    assert main(["nonsense"]) == 2
    assert main(["quotient", "--N", "3", "--gamma", "0.1", "--nu", "0"]) == 2


def test_output_file_and_outdir(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("CURLSHARP_OUTDIR", str(tmp_path))
    code = main(["constants", "--N", "4", "--gamma", "0",
                 "--output", "c.json"])
    assert code == 0
    doc = json.loads((tmp_path / "c.json").read_text())
    assert doc["C_min"] == "3"
    capsys.readouterr()


@pytest.mark.parametrize("name,reason", [
    ("missing/c.json", "No such file or directory"),
    ("", "Is a directory"),
    ("file/c.json", "Not a directory"),
], ids=["missing-directory", "directory", "file-as-directory"])
def test_unwritable_output_exits_2(tmp_path, capsys, monkeypatch, name, reason):
    # a usage error named on stderr, not a traceback and exit 1
    (tmp_path / "file").write_text("")
    target = os.path.join(tmp_path, name)
    code = main(["constants", "--N", "4", "--gamma", "0", "--output", target])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write {target}: {reason}\n")
    # and before any work: the suite is never run
    def no_work(*args, **kwargs):
        raise AssertionError("certify ran before the --output check")
    monkeypatch.setattr(certs, "run_suite", no_work)
    code = main(["certify", "--regime", "all", "--output", target])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write {target}: {reason}\n")


# one malformed value per case; each used to escape main as a traceback
MALFORMED = [
    ("sweep", "--N", "3", "--gamma-grid=1:0:0"),
    ("sweep", "--N", "3", "--gamma-grid=abc"),
    ("quotient", "--N", "3", "--gamma", "0", "--nu", "0", "--ns", "10,x"),
    ("quotient", "--N", "3", "--gamma", "0", "--nu", "0", "--ns", ""),
    ("quotient", "--N", "3", "--gamma", "0", "--nu", "0", "--ns", "0"),
    ("quotient", "--N", "3", "--gamma", "0", "--nu", "-1"),
    ("oracle", "--N", "2", "--gamma", "0", "--n", "0"),
    ("constants", "--N", "1", "--gamma", "0"),
    ("sweep", "--N", "1"),
    ("sweep", "--N", "3", "--gamma-grid=nan:1:1"),
    ("sweep", "--N", "3", "--gamma-grid=0:inf:1"),
    ("sweep", "--N", "3", "--gamma-grid=1:0:1"),
    ("sweep", "--N", "3", "--gamma-grid=0:-0.4:1"),
    ("constants", "--N", "3", "--gamma", "inf"),
    ("constants", "--N", "3", "--gamma", "1e400"),
    ("constants", "--N", "3", "--gamma", "0", "--nu-max", "-1"),
    ("quotient", "--N", "1", "--gamma", "0", "--nu", "0"),
    ("oracle", "--N", "2", "--gamma", "0", "--nu", "-1"),
    ("remainder", "--seed", "-1"),
    ("remainder", "--count", "-1"),
    ("certify", "--regime", "n2", "--seed", "-1"),
    ("certify", "--N-range", "2..10"),  # removed: the links cover every N
]


@pytest.mark.parametrize("argv", MALFORMED, ids=" ".join)
def test_malformed_value_exits_2(argv, capsys):
    assert main(list(argv)) == 2
    out, err = capsys.readouterr()
    assert out == "" and "error" in err


# a representative argv per subcommand, options in a mixed order
PARITY_ARGV = {
    "constants": ["constants", "--gamma=1/2", "--N", "5", "--nu-max", "3"],
    "certify": ["certify", "--seed", "4", "--regime", "n2"],
    "quotient": ["quotient", "--N", "3", "--gamma", "-1", "--nu", "2",
                 "--ns", "5,10", "--kind", "cos4", "--output", "q.json"],
    "sweep": ["sweep", "--format", "json", "--N", "4",
              "--gamma-grid=-1:1:0.25"],
    "oracle": ["oracle", "--N", "3", "--gamma", "0", "--nu", "2", "--n", "1"],
    "remainder": ["remainder", "--count", "2", "--seed", "9"],
}


@pytest.mark.parametrize("name", [name for name, *_ in COMMANDS])
def test_narrowed_parser_parity(name, capsys):
    argv = PARITY_ARGV[name]
    assert (build_parser(name).parse_args(argv)
            == build_parser().parse_args(argv))
    helps = []
    for parser in (build_parser(name), build_parser()):
        with pytest.raises(SystemExit) as exc:
            parser.parse_args([name, "--help"])
        assert exc.value.code == 0
        helps.append(capsys.readouterr())
    assert helps[0] == helps[1] and helps[0].out.startswith(
        f"usage: curlsharp {name} ")


FULL_USAGE = ("usage: curlsharp [-h] "
              "{constants,certify,quotient,sweep,oracle,remainder} ...\n")


@pytest.mark.parametrize("argv", [
    ["-h"], [], ["nonsense"],
    # rejected by the top-level parser after the subcommand parsed
    ["quotient", "--N", "3", "--gamma", "0", "--nu", "0", "--bogus"],
], ids=["help", "none", "nonsense", "unrecognized"])
def test_top_level_paths_unchanged(argv, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "120")  # FULL_USAGE on one line
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    expected = capsys.readouterr()
    assert (expected.out if argv == ["-h"] else expected.err).startswith(
        FULL_USAGE)
    assert main(argv) == (0 if exc.value.code == 0 else 2)
    assert capsys.readouterr() == expected


def test_bad_gamma_prints_full_usage(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "120")
    assert main(["quotient", "--N", "3", "--gamma", "x", "--nu", "0"]) == 2
    assert capsys.readouterr() == ("", "error: cannot parse gamma 'x'; use "
                                   "p/q, an integer, or a decimal\n"
                                   + FULL_USAGE)


def _run_python(args):
    """`python args` in a fresh interpreter that imports from `src`."""
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(root / "src"),
                                         os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args],
                          cwd=root, env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)


def _run_module(argv):
    """`python -m curlsharp.cli argv` in a fresh interpreter."""
    return _run_python(["-m", "curlsharp.cli", *argv])


def test_module_entry_point_reads_sys_argv(capsys):
    argv = ["quotient", "--N", "3", "--gamma", "0", "--nu", "0", "--ns", "5,10"]
    proc = _run_module(argv)
    assert proc.returncode == main(argv) == 0
    assert proc.stdout == capsys.readouterr().out
    assert proc.stderr == ""


def test_gamma_grid_past_the_cap_is_a_usage_error():
    # 0:1e12:1 is well formed but counts 10^12 + 1 points: refused before
    # any is made.  The child runs under a 1 GiB address-space limit, so a
    # grid that is built anyway fails there instead of filling memory.
    code = ("import resource, sys\n"
            "from curlsharp.cli import main\n"
            "resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30))\n"
            "sys.exit(main(['sweep', '--N', '3', '--gamma-grid=0:1e12:1']))\n")
    proc = _run_python(["-c", code])
    assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
    assert "'0:1e12:1' has 1000000000001 points, more than the 100000" in proc.stderr
    assert len(cli._gamma_grid("0:99999:1")) == cli.GAMMA_GRID_MAX_POINTS == 100_000
    with pytest.raises(argparse.ArgumentTypeError, match="100001 points"):
        cli._gamma_grid("0:100000:1")


def test_one_distinct_dilation_fits_no_exponent():
    # --ns 10,10 is one point twice: no slope to fit, so NaN, and no
    # warning of a rank-deficient fit on stderr
    proc = _run_module(["quotient", "--N", "3", "--gamma", "0", "--nu", "0",
                        "--ns", "10,10"])
    assert (proc.returncode, proc.stderr) == (0, "")
    doc = json.loads(proc.stdout)
    assert len(doc["rows"]) == 2 and math.isnan(doc["fitted_exponent"])


# every parser `build_parser` makes: one per subcommand, and the full one
PARSERS = [*(name for name, *_ in COMMANDS), None]


@pytest.mark.parametrize("name", PARSERS)
def test_each_parser_is_built_once(name):
    assert build_parser(name) is build_parser(name)


def test_import_builds_no_parser():
    # a process that imports the CLI pays for no parser until it parses
    proc = _run_python(["-c", "from curlsharp import cli; "
                        "print(cli.build_parser.cache_info().currsize)"])
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0\n", "")


def test_reused_parser_keeps_the_default_dilations(capsys):
    argv = ["quotient", "--N", "3", "--gamma", "0", "--nu", "0"]
    assert run(capsys, *argv, "--ns", "5,10")[0] == 0
    code, out = run(capsys, *argv)
    assert code == 0
    assert [row["n"] for row in json.loads(out)["rows"]] == [10, 20, 40]


def test_reused_parser_after_a_usage_error(capsys):
    argv = ["quotient", "--N", "3", "--gamma", "0", "--nu", "0"]
    assert main([*argv, "--ns", "10,x"]) == 2  # rejected by argparse
    assert main([*argv, "--gamma", "0.1"]) == 2  # rejected by the handler
    assert "needs an exact gamma" in capsys.readouterr().err
    proc = _run_module(argv)
    assert proc.returncode == main(argv) == 0
    assert capsys.readouterr().out == proc.stdout


def test_reused_parser_gives_each_call_its_own_grid(monkeypatch, capsys):
    received = []

    def consume(n, grid):
        received.append(list(grid))
        grid.clear()  # a caller that uses up its grid in place
        return []

    monkeypatch.setattr(cli.sweep_mod, "sweep_gamma", consume)
    assert main(["sweep", "--N", "3"]) == main(["sweep", "--N", "3"]) == 0
    capsys.readouterr()
    default = [-3 + k * 0.125 for k in range(49)]
    assert received == [default, default]


@pytest.mark.parametrize("name", PARSERS)
def test_cached_help_follows_columns(name, monkeypatch, capsys):
    argv = ["--help"] if name is None else [name, "--help"]
    helps = []
    for columns in ("40", "120"):
        monkeypatch.setenv("COLUMNS", columns)
        assert main(argv) == 0
        helps.append(capsys.readouterr().out)
        with pytest.raises(SystemExit):
            build_parser.__wrapped__(name).parse_args(argv)
        assert capsys.readouterr().out == helps[-1]
    assert helps[0] != helps[1]
