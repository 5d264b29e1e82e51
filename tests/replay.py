#!/usr/bin/env python3
"""Replay a fixed set of command lines and print one digest per argv.

    python3 tests/replay.py ROOT

runs every argv in process through `qobserver.cli.main` imported from
`ROOT/src`, and prints, per argv, the sha256 of its exit code, standard
output, standard error and the bytes of every file it wrote, then one
total over all of them.  Two checkouts whose totals are equal produce the
same outcomes byte for byte; `diff` of two outputs names the argvs that
differ.  The set:

- the first 300 `design-sweep`, 300 `verify-ladder` and 40 `simulate-csv`
  requests of seed 301 from `perfbench/workloads.py` of this checkout,
  which is only read, so both sides replay the same argvs;
- README's commands;
- `reproduce-example` with each `--format`;
- the typed-error argvs of the exit-code tests in `tests/test_cli.py`, the
  edge squeezing ratios of the domain test and argvs whose inputs fail
  more than one check, which pin the check that refuses first.

As `perfbench/run.py` does, the old outputs are unlinked before each
request.  The output directory is spelled `<out>` in the captured text.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
SEED = 301
WORKLOAD_COUNTS = {"design-sweep": 300, "verify-ladder": 300, "simulate-csv": 40}

README = (
    ["design", "--units", "rad/s", "--omega-o", "1e8", "--gamma", "1e8", "--eps-ratio", "0.1"],
    ["verify"],
    ["reproduce-example"],
)
REPRODUCE_FORMATS = (["json"], ["csv"], ["json,csv"])
TYPED_ERRORS = (
    ["design", "--eps-ratio", "1e9"],
    ["design", "--eps-ratio", "1e5"],
    ["design", "--cp", "1e-200,0"],
    ["verify", "--cp", "1e-200,0"],
    ["verify", "--horizons", "1e300,1e308"],
    ["simulate", "--horizons", "1e308"],
    ["verify", "--omega-o", "1e-160", "--gamma", "1e160"],
    ["verify", "--omega-o", "1e200"],
    ["verify", "--omega-o", "1e-300"],
    ["simulate", "--cp=6.09e-04,1.84e-10", "--omega-o", "3.67e-148",
     "--gamma", "1.96e-114", "--eps-ratio", "24.9"],
    ["verify", "--omega-o", "1e-310"],
    ["simulate", "--omega-o", "1e-310"],
    ["design", "--cp=27189.5,7.8e-05", "--omega-o", "2.4e-05",
     "--gamma", "1.1e196", "--eps-ratio", "1.9e-07"],
    ["design", "--cp=1e-155,0"],
    ["verify", "--cp=1e-155,0"],
    ["reproduce-example", "--cp", "1,0"],
    ["reproduce-example", "--omega-o", "2"],
    ["design", "--eps-ratio", "1e-12"],
    ["verify", "--eps-ratio", "1e-10"],
    ["design", "--eps-ratio", "1e-17"],
    ["design", "--eps-ratio", "0.6"],
    ["design", "--units", "rad/s", "--omega-o", "1e-6", "--gamma", "1e2", "--eps-ratio", "1e-9"],
    ["design", "--gamma", "1e8", "--eps-ratio", "1e-9"],
    # competing refusals, each pinned to the one that fires first
    ["design", "--eps-ratio", "1e-300"],
    ["design", "--eps-ratio", "1e-17", "--omega-o", "1e300"],
    ["design", "--eps-ratio", "1e-17", "--gamma", "1e-300"],
    ["design", "--eps-ratio", "1e-200", "--gamma", "1e-200"],
    ["design", "--cp=1e-200,0", "--eps-ratio", "1e-17"],
    ["design", "--omega-o", "-1", "--format", "csv"],
    ["design", "--horizons", "-1"],
    ["simulate", "--horizons", "5,3"],
    ["design", "--units", "rad/s", "--omega-o", "-1"],
    ["design", "--units", "bogus", "--omega-o", "-1"],
    ["verify", "--horizons", "5", "--delta", "4"],
    ["design", "--cp", "0,0", "--gamma", "nan"],
)


def argvs() -> list[list[str]]:
    sys.path.insert(0, str(HERE.parent / "perfbench"))
    import workloads

    replay = []
    for name, count in WORKLOAD_COUNTS.items():
        stream = workloads.requests(name, SEED)
        replay += [list(next(stream).argv) for _ in range(count)]
    replay += [list(argv) for argv in README]
    replay += [["reproduce-example", "--format", *fmt] for fmt in REPRODUCE_FORMATS]
    return replay + [list(argv) for argv in TYPED_ERRORS]


def digest(main, argv: list[str], out: Path) -> str:
    for stale in out.iterdir():
        stale.unlink()
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main([*argv, "--out", str(out)])
    h = hashlib.sha256()
    for text in (repr(code), stdout.getvalue(), stderr.getvalue()):
        h.update(text.replace(str(out), "<out>").encode() + b"\0")
    for path in sorted(out.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def replay_lines(main, out: Path, replay: list[list[str]]) -> list[str]:
    """`<digest> <argv>` for every argv of `replay`, then `total <digest of those lines>`."""
    lines = [f"{digest(main, argv, out)} {' '.join(argv)}" for argv in replay]
    total = hashlib.sha256("".join(line + "\n" for line in lines).encode())
    return [*lines, f"total {total.hexdigest()}"]


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    src = Path(sys.argv[1]).resolve() / "src"
    sys.path.insert(0, str(src))
    import qobserver.cli

    if not Path(qobserver.cli.__file__).resolve().is_relative_to(src):
        print(f"qobserver imported from {qobserver.cli.__file__}, not {src}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        out.mkdir()
        print("\n".join(replay_lines(qobserver.cli.main, out, argvs())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
