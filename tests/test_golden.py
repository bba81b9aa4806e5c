"""Golden CLI transcripts: stdout, stderr and exit code of fixed calls, byte for byte.

tests/golden_cli.json holds one case per call: its argv, its exit code,
and its stdout and stderr. Every case uses outputs that are the same on
every IEEE platform: bounds and scan at beta = 0 or inf, where P is 1/d or
1 exactly and the rest is sqrt, +, * and /, and the error paths. Argparse
errors keep their last stderr line only ("stderr_tail"), since usage lines
differ between Python versions. A change that alters one of these outputs
edits the file and says so in CHANGES.md.

The file is the one record of the CLI's pinned behaviour: this test replays
it in process, and CI replays it through the installed `steerwork` script,
one fresh process per case. So a case must not rely on in-process state
(an earlier case, a monkeypatch or an environment variable).
"""

import json
from pathlib import Path

import pytest

from steerwork.cli import main

CASES = json.loads(Path(__file__).with_name("golden_cli.json").read_text())


def _case_id(argv: list[str]) -> str:
    """argv as one line, with '' for an empty argument and a digit count for a long one."""
    return " ".join(f"<{len(a)} digits>" if len(a) > 20 else a or "''" for a in argv) or "(none)"


@pytest.mark.parametrize("case", CASES, ids=[_case_id(c["argv"]) for c in CASES])
def test_transcript(capsys, case):
    code = main(case["argv"])
    out, err = capsys.readouterr()
    assert code == case["exit"]
    assert out == case["stdout"]
    if "stderr_tail" in case:
        assert err.splitlines()[-1] == case["stderr_tail"]
    else:
        assert err == case["stderr"]
