"""Byte-stability guard: the bytes of two reports, as README's commands write them,
and the digest of every outcome of the replay set in `tests/replay.py`.

A change that moves a digit of any report or outcome has to update the file
under tests/golden/ as well, where the diff shows it.
"""

from pathlib import Path

import pytest

import replay
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


def test_replay_digests_match_golden(tmp_path):
    """Every argv recorded in `tests/golden/replay.txt` still ends as recorded.

    The argvs are read back from the file (none has a space inside an
    argument), so a change to the benchmark's request stream, from which
    `tests/replay.py` draws most of them, does not move this test.  The
    digests were taken with Python 3.11.7 and numpy 2.4.6 on x86-64 Linux
    with glibc 2.36's libm: as for the two reports above, another libm's
    sin and cos or another numpy can move a last digit.  A change that
    moves an outcome on purpose regenerates the file, and its diff names
    the argvs that moved.
    """
    expected = (GOLDEN / "replay.txt").read_text().splitlines()
    recorded = [line.split(" ")[1:] for line in expected[:-1]]
    got = replay.replay_lines(cli.main, tmp_path, recorded)
    moved = [" ".join(argv) for argv, line, want in zip(recorded, got, expected) if line != want]
    assert got == expected, (
        f"{len(moved)} of {len(recorded)} replayed argvs differ from tests/golden/replay.txt;"
        " the first of them:\n  "
        + "\n  ".join(moved[:20])
        + "\nto record a change that moves them: "
        "python tests/replay.py . > tests/golden/replay.txt"
    )
