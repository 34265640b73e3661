"""CLI: values, exit codes, determinism, schema validity."""

import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from curlsharp.cli import COMMANDS, _json, build_parser, main

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
    code, out = run(capsys, "sweep", "--N", "4", "--gamma-grid=0:1:0.5",
                    "--format", "json")
    assert code == 0
    validate(out)
    assert_canonical(out)
    assert len(json.loads(out)["rows"]) == 3


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


def test_json_without_the_c_accelerator(monkeypatch):
    # the same encoder class falls back to pure Python, with the same bytes
    tree = {"rows": [{"x": 1.5, "y": [None, "\u00e9"]}, [], {}], "n": -0.0}
    expected = _json(tree)
    monkeypatch.setattr(json.encoder, "c_make_encoder", None)
    assert _json(tree) == expected
    assert expected == json.dumps(tree, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("tree", [
    Fraction(1, 3),
    {"a": 1, "b": Fraction(1, 3)},
    {"rows": [{"x": 1}, [Fraction(1, 3)]], "z": 0},
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


def test_module_entry_point_reads_sys_argv(capsys):
    argv = ["quotient", "--N", "3", "--gamma", "0", "--nu", "0", "--ns", "5,10"]
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(root / "src"),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "curlsharp.cli", *argv],
                          cwd=root, env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == main(argv) == 0
    assert proc.stdout == capsys.readouterr().out
    assert proc.stderr == ""
