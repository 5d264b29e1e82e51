"""A wall-clock bound for code that could hang: SIGALRM fails the test instead."""

import contextlib
import signal


@contextlib.contextmanager
def deadline(seconds: int):
    """Raise TimeoutError in the block if it runs longer than `seconds`."""

    def expired(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
