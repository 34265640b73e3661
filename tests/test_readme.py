"""README.md is a map that the suite runs: each command line goes through
`cli.main` in-process, the quick start runs by exec and prints what its
comments say, and the layout table and the counts match the code."""

import csv
import io
import json
import re
import shlex
from pathlib import Path

import pytest

from curlsharp import certificates as certs
from curlsharp import cli

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()


def _blocks(lang: str) -> list[str]:
    """The bodies of the fenced blocks whose opening fence is ```lang."""
    fenced = re.findall(r"^```(\w*)\n(.*?)^```$", README, re.M | re.S)
    return [body for info, body in fenced if info == lang]


# the argv of each `curlsharp ...` line of the command-line block
COMMAND_ARGVS = [shlex.split(line, comments=True)[1:]
                 for block in _blocks("") for line in block.splitlines()
                 if line.startswith("curlsharp ")]


def test_command_block_runs_every_subcommand():
    assert (sorted(argv[0] for argv in COMMAND_ARGVS)
            == sorted(name for name, *_ in cli.COMMANDS))


@pytest.mark.parametrize("argv", COMMAND_ARGVS, ids=" ".join)
def test_command_line_exits_0_with_parseable_output(argv, capsys):
    assert cli.main(argv) == cli.EXIT_OK
    out = capsys.readouterr().out
    try:
        json.loads(out)
    except json.JSONDecodeError:
        header, *rows = list(csv.reader(io.StringIO(out)))
        assert rows and all(len(row) == len(header) for row in rows), argv


def test_quick_start_prints_what_its_comments_say(capsys):
    (code,) = _blocks("python")
    exec(compile(code, "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    comments = re.findall(r"^print\(.*\)\s+#\s*(\S+)", code, re.M)
    assert comments and printed == [c.rstrip(",:") for c in comments]


def test_layout_table_has_one_row_per_module():
    rows = re.findall(r"^\| `curlsharp\.(\w+)` \|", README, re.M)
    modules = [p.stem for p in (ROOT / "src" / "curlsharp").glob("*.py")
               if p.stem != "__init__"]
    assert sorted(rows) == sorted(modules)


def test_stated_facts_match_the_code():
    prose = " ".join(README.split())
    corpus = len(list(certs._corpus_dir().glob("*.cert")))
    assert set(re.findall(r"\b(\d+) certificate files\b", prose)) == {str(corpus)}
    assert (f"Exit codes: {cli.EXIT_OK} success, {cli.EXIT_MATH} mathematical "
            f"failure") in prose
    assert f"{cli.EXIT_USAGE} usage error" in prose
    # a run time drifts with the host, so the map states none
    assert not re.search(r"\d\s*(?:s|ms|sec|seconds?|min|minutes?)\b", prose)
