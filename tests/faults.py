#!/usr/bin/env python3
"""Minor page faults and time per request of each benchmark workload.

    python3 tests/faults.py ROOT

runs each workload of `ROOT/perfbench/workloads.py` (only read, so two
checkouts replay the same argvs) in its own child interpreter, as
perfbench runs each workload in its own process.  The child imports
`qobserver.cli` from `ROOT/src`, sends the first WARMUP requests of seed
SEED through `cli.main` unmeasured, and then prints the minor page faults
(`getrusage(RUSAGE_SELF).ru_minflt`) and the milliseconds per request,
means over the next REQUESTS requests.  Only the `cli.main` call is
counted; as `perfbench/run.py` does, the old outputs are unlinked before
each request and the printed text is captured.

A request that takes no page fault works in memory the process already
holds.  `simulate`'s CSV formatter takes about 1 ms per 512-row block
instead of about 0.7 ms when its temporaries come from fresh pages, so
this reads a change in the process's heap state that paired benchmark
runs show only as a shift in `simulate-csv`'s p50.  Exits 1 when a
workload reads more than LIMIT faults per request, 0 otherwise.
`python3 tests/faults.py ROOT WORKLOAD` measures one workload in the
calling process.  Not part of tier-1.
"""

from __future__ import annotations

import contextlib
import io
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SEED = 5
WARMUP = 20
REQUESTS = 100
LIMIT = 1.0
WORKLOADS = ("design-sweep", "verify-ladder", "simulate-csv")


def measure(root: Path, workload: str) -> tuple[float, float]:
    """Faults and ms per request of `workload`, in this process."""
    src = root / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(root / "perfbench"))
    import qobserver.cli
    import workloads

    if not Path(qobserver.cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"qobserver imported from {qobserver.cli.__file__}, not {src}")
    stream = workloads.requests(workload, SEED)
    faults = seconds = 0.0
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        for index in range(WARMUP + REQUESTS):
            argv = [*next(stream).argv, "--out", str(out)]
            for stale in out.iterdir():
                stale.unlink()
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                start = time.perf_counter()
                qobserver.cli.main(argv)
                elapsed = time.perf_counter() - start
                after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            if index >= WARMUP:
                faults += after - before
                seconds += elapsed
    return faults / REQUESTS, seconds / REQUESTS * 1e3


def main(argv: list[str]) -> int:
    if len(argv) == 2:
        faults, ms = measure(Path(argv[0]).resolve(), argv[1])
        print(f"{argv[1]:<14s} {faults:8.2f} faults/request {ms:8.3f} ms/request")
        return 0
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    over = False
    for workload in WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, argv[0], workload],
            capture_output=True, text=True, timeout=600, check=True,
        )
        print(done.stdout, end="")
        over |= float(done.stdout.split()[1]) > LIMIT
    return 1 if over else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
