"""Reference loop that measures how fast this CPU runs Python right now.

    python3 perfbench/speed.py OUT

Runs a fixed chunk of pure-Python work (tuple building, integer dot
products, dict updates, a few Fractions: the operations conecert spends its
time in) over and over at nice +10, appending one line per chunk to OUT:
the monotonic time it started and the CPU seconds it took.  It runs until
it is terminated.

The benchmark starts it beside each measured process on the same CPU, so
both see the same host.  On a shared virtual machine the speed of a vCPU
swings by up to 2x over seconds and minutes; the CPU seconds of a chunk
follow those swings, and nothing the package under test does changes the
chunk's work.  `Speed.factor()` turns the samples in a time window into the
ratio of the nominal chunk time to the measured one.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

_V = [(i * 7919) % 1009 - 504 for i in range(64)]


def chunk(n: int = 10000):
    acc = Fraction(0)
    seen: dict = {}
    for i in range(n):
        w = tuple((x * (i % 13) - 3) % 17 for x in _V[:8])
        s = sum(a * b for a, b in zip(w, _V))
        seen[w] = seen.get(w, 0) + s
        if i % 50 == 0:
            acc += Fraction(s, (i % 7) + 1)
    return len(seen), acc


class Speed:
    """A running reference loop and the samples it has written."""

    def __init__(self, out: Path, nominal_chunk_s: float):
        self.out = out
        self.nominal = nominal_chunk_s
        self.proc = subprocess.Popen([sys.executable, __file__, str(out)])
        # the first chunk is written once the interpreter is up
        while not (out.exists() and out.stat().st_size):
            if self.proc.poll() is not None:
                raise RuntimeError(f"reference loop exited with {self.proc.returncode}")
            time.sleep(0.05)

    def stop(self):
        if self.proc.poll() is None:
            self.proc.terminate()
        self.proc.wait()

    def samples(self):
        rows = []
        for line in self.out.read_text().splitlines():
            parts = line.split()
            if len(parts) == 2:
                rows.append((float(parts[0]), float(parts[1])))
        return rows

    def factor(self, start: float, end: float) -> float:
        """Nominal chunk time over the mean chunk time started in [start, end]."""
        cpu = [c for t, c in self.samples() if start <= t <= end]
        return self.nominal * len(cpu) / sum(cpu) if cpu else float("nan")


def main(out: str) -> None:
    os.nice(10)
    with open(out, "w", encoding="utf-8") as fh:
        while True:
            t0, c0 = time.monotonic(), time.process_time()
            chunk()
            fh.write(f"{t0:.6f} {time.process_time() - c0:.6f}\n")
            fh.flush()


if __name__ == "__main__":
    main(sys.argv[1])
