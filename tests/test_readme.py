"""The README's worked examples print what the README says they print.

Every fenced block whose first line is `$ pdckit ...` is run through
cli.main from the repository root, and its standard output must equal
the rest of the block byte for byte.
"""

import re
import shlex
from pathlib import Path

import pytest

from pdckit import cli

ROOT = Path(__file__).resolve().parent.parent
BLOCK = re.compile(r"^```\n\$ pdckit ([^\n]*)\n(.*?)^```$", re.M | re.S)
EXAMPLES = BLOCK.findall((ROOT / "README.md").read_text())


def test_readme_has_examples():
    assert len(EXAMPLES) >= 4


@pytest.mark.parametrize(
    "command, expected", EXAMPLES, ids=[args for args, _ in EXAMPLES]
)
def test_example_output(command, expected, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    code = cli.main(shlex.split(command))
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert captured.out == expected
