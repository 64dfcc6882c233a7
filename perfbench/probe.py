"""The reference probe: fixed work whose time tracks the machine's speed.

The host this benchmark was written on changes speed by up to 1.5x, in
spells from a tenth of a second to minutes (NOTES.md, Bounds), so a
request's wall time alone moves by more between two runs than a real
change in the program would.  The workloads time this probe between their
requests, and the end-to-end latencies are reported in multiples of its
mean time over the same loop: a spell that slows both cancels out.

Nothing here imports ``bcorlicz``, so no change to the program moves the
probe.  Run as a script, it does the work once in a fresh interpreter:
that is the probe of the ``cli`` workload, whose requests are fresh
interpreters too, so that it pays for process start and ``import numpy``
as they do.
"""

from __future__ import annotations

import subprocess
import time
from pathlib import Path

import numpy as np

_ARRAY = np.random.default_rng(0).random(20_000)


def work() -> float:
    """About 1 ms of interpreted float arithmetic and 0.7 ms of numpy
    passes over a 20 000-element array, on the fast state of a 2-vCPU
    Xeon guest."""
    s = 0.0
    for i in range(20_000):
        s += i * 0.5
    for _ in range(10):
        s += float(np.sum(np.abs(_ARRAY) ** 1.5))
    return s


def in_process_ms() -> float:
    t0 = time.perf_counter()
    work()
    return (time.perf_counter() - t0) * 1e3


def fresh_process_ms(python: str, env: dict, cwd: Path) -> float:
    t0 = time.perf_counter()
    subprocess.run([python, str(Path(__file__))], check=True, capture_output=True, env=env,
                   cwd=cwd, timeout=60)
    return (time.perf_counter() - t0) * 1e3


if __name__ == "__main__":
    work()
