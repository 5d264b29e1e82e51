"""Byte-stability guard: the bytes of two reports, as README's commands write them.

A change that moves a digit of either report has to update the file under
tests/golden/ as well, where the diff shows it.
"""

from pathlib import Path

import pytest

from qobserver import cli

GOLDEN = Path(__file__).resolve().parent / "golden"

COMMANDS = {
    "design.json": ["design", "--units", "rad/s", "--omega-o", "1e8", "--gamma", "1e8",
                    "--eps-ratio", "0.1"],
    "report.json": ["verify"],
}


@pytest.mark.parametrize("name", COMMANDS)
def test_report_bytes_match_golden(tmp_path, name):
    assert cli.main(COMMANDS[name] + ["--out", str(tmp_path)]) == 0
    assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()
