"""The float path's CLI output against a committed digest.

`tools/output_digest.py` hashes argv, exit code, stdout and stderr of
1793 in-process CLI calls that no benchmark op makes: `constants` at a
decimal gamma, read as the exact rational it names, and `sweep`, the
float path, in CSV and JSON.  The grid and numerics goldens compare
floats only within a tolerance, so this test is what fails on a one-ulp
change of the float path.  A deliberate change of these bytes refreshes
FLOAT_DIGEST, and the refresh is recorded in CHANGES.md.
"""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "output_digest.py"
FLOAT_DIGEST = (1793, "88ff8365e8e67b7e")


def test_float_path_matches_digest():
    spec = importlib.util.spec_from_file_location("output_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.float_digest() == FLOAT_DIGEST
