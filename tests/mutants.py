#!/usr/bin/env python3
"""Guard-deletion mutation score of `src/qobserver`.

    python3 tests/mutants.py ROOT

finds every guard in `ROOT/src/qobserver`: an `if <cond>:` whose body is one
`raise ...`, or one bare `return` or `return None`, the refusal of a
function that answers None for an input it does not take.  It makes one
mutant per guard: a copy of the checkout in a temporary directory with that
condition replaced by `False`.  Each
mutant runs the tier-1 suite with `-x` and with acceptance criterion 4, a
known failure, deselected, so that only a new failure counts.  A mutant is
killed when a test fails or the run times out, and survives when every
test passes.  At most two mutants run at a time.  The unmutated copy runs
first and must pass.  Prints each survivor, then the score; exits 0 when
no mutant survives and 1 otherwise.  The run takes minutes, so it is not
part of tier-1.
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

WORKERS = 2
TIMEOUT_S = 900
KNOWN_FAILURE = "tests/test_acceptance.py::test_criterion_4_time_average_convergence"
PYTEST = ("-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--deselect", KNOWN_FAILURE)
IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache", ".perfbench_out")


class Mutant(NamedTuple):
    path: Path  # relative to the checkout
    line: int
    guard: str  # the guard's condition, as written
    source: bytes  # the mutated file


def is_guard(node: ast.AST) -> bool:
    """True for an `if` whose body is one `raise`, or one `return` of nothing or None."""
    if not (isinstance(node, ast.If) and len(node.body) == 1):
        return False
    body = node.body[0]
    if isinstance(body, ast.Return):
        return body.value is None or (isinstance(body.value, ast.Constant) and body.value.value is None)
    return isinstance(body, ast.Raise)


def guard_mutants(root: Path) -> list[Mutant]:
    """One mutant per guard, in file and line order."""
    mutants = []
    for path in sorted((root / "src" / "qobserver").glob("*.py")):
        source = path.read_bytes()
        lines = source.splitlines(keepends=True)
        for node in ast.walk(ast.parse(source)):
            if not is_guard(node):
                continue
            # ast offsets count UTF-8 bytes; the condition is spliced out whole
            test = node.test
            head, tail = lines[test.lineno - 1], lines[test.end_lineno - 1]
            mutated = b"".join([
                *lines[:test.lineno - 1],
                head[:test.col_offset] + b"False" + tail[test.end_col_offset:],
                *lines[test.end_lineno:],
            ])
            guard = ast.get_source_segment(source.decode("utf-8"), test)
            mutants.append(Mutant(path.relative_to(root), node.lineno, " ".join(guard.split()), mutated))
    return sorted(mutants, key=lambda m: (str(m.path), m.line))


def run_tier1(root: Path, mutant: Mutant | None) -> str:
    """"passed", "failed" or "timeout" of tier-1 on a copy of root, mutated if given."""
    with tempfile.TemporaryDirectory(prefix="qobserver-mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(root, copy, ignore=IGNORED)
        if mutant is not None:
            (copy / mutant.path).write_bytes(mutant.source)
        env = {**os.environ, "PYTHONPATH": str(copy / "src")}
        try:
            done = subprocess.run(
                [sys.executable, *PYTEST], cwd=copy, env=env, timeout=TIMEOUT_S,
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, check=False,
            )
        except subprocess.TimeoutExpired:
            return "timeout"
    if done.returncode not in (0, 1):
        raise RuntimeError(f"pytest exited {done.returncode} on {mutant or 'the unmutated copy'}")
    return "passed" if done.returncode == 0 else "failed"


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    root = Path(argv[0]).resolve()
    if run_tier1(root, None) != "passed":
        print("the unmutated copy fails tier-1; no score", file=sys.stderr)
        return 2
    mutants = guard_mutants(root)
    with ThreadPoolExecutor(max_workers=WORKERS) as pool:
        outcomes = list(pool.map(lambda m: run_tier1(root, m), mutants))
    survivors = [m for m, outcome in zip(mutants, outcomes) if outcome == "passed"]
    for mutant, outcome in zip(mutants, outcomes):
        if outcome == "timeout":
            print(f"killed by timeout: {mutant.path}:{mutant.line}: if {mutant.guard}")
    for mutant in survivors:
        print(f"survived: {mutant.path}:{mutant.line}: if {mutant.guard}")
    killed = len(mutants) - len(survivors)
    print(f"score: {killed}/{len(mutants)} guard-deletion mutants killed (raise and return-None guards)")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
