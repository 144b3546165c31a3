"""Machine-speed probe, to take the host's drift out of end-to-end timings.

On a shared host the CPU speed of the same work drifts by 10-60 % over
minutes; CPU time moves with wall time, so the process is not being
descheduled. The probe is a fixed mix of the two kinds of interpreter-bound
work cryocal spends its time in: scalar complex RK4 steps and per-value
text parsing. It is timed about once a second between measured calls, and
a run's end-to-end timings are scaled by

    factor = NOMINAL_S / median(probe times of the run)

The probe runs in a child interpreter of its own (``python3 -I
speed.py``), started once per run, while the benchmark waits for it. So the
factor depends on the host alone: nothing the program leaves in the
benchmark's interpreter (heap size, gc settings, caches) reaches it. The
probe is benchmark code, the same on every commit, so scaling changes no
comparison between commits; it only removes drift. Raw timings are printed
alongside.
"""
from __future__ import annotations

import cmath
import math
import statistics
import subprocess
import sys
import time

PROBE_EVERY_S = 1.0
STEPS = 4000
LINES = 1500
# Median probe time on the 2-CPU Xeon machine the bounds were set on.
NOMINAL_S = 0.015

_DRIVE = [0.02 * complex(1.0, 0.01 * j) for j in range(2 * STEPS + 1)]
_TEXT = "\n".join(f"{1e7 + 2.5e6 * k:.17g} {0.1 / (1 + k):.17g} {k * 0.37 % 360:.17g}" for k in range(LINES))


def _rk4_steps() -> None:
    u, g, e = _DRIVE, 1 + 0j, 0j
    h = 1e-3
    half, sixth = 0.5 * h, h / 6.0
    for n in range(STEPS):
        u0, um, u1 = u[2 * n], u[2 * n + 1], u[2 * n + 2]
        c0, cm, c1 = u0.conjugate(), um.conjugate(), u1.conjugate()
        k1g, k1e = -1j * (c0 * e), -1j * (u0 * g)
        g2, e2 = g + half * k1g, e + half * k1e
        k2g, k2e = -1j * (cm * e2), -1j * (um * g2)
        g3, e3 = g + half * k2g, e + half * k2e
        k3g, k3e = -1j * (cm * e3), -1j * (um * g3)
        g4, e4 = g + h * k3g, e + h * k3e
        k4g, k4e = -1j * (c1 * e4), -1j * (u1 * g4)
        g = g + sixth * (k1g + 2.0 * k2g + 2.0 * k3g + k4g)
        e = e + sixth * (k1e + 2.0 * k2e + 2.0 * k3e + k4e)


def _parse_lines() -> None:
    values = []
    for line in _TEXT.splitlines():
        f, mag, ang = (float(t) for t in line.split())
        values.append(mag * cmath.exp(1j * math.radians(ang)))
    ",".join(f"{v.real:.9g}" for v in values)


def probe() -> float:
    """Median of three timings of the probe mix, in seconds."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        _rk4_steps()
        _parse_lines()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Probe:
    """A child interpreter that times the probe mix each time it is asked."""

    def __init__(self):
        self._proc = subprocess.Popen(
            [sys.executable, "-I", __file__],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def time(self) -> float:
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError(f"speed probe exited with code {self._proc.wait()}")
        return float(line)

    def close(self):
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


class Clock:
    """Times calls; with a probe, probes the machine after a call when a second has passed."""

    def __init__(self, probe: Probe | None = None):
        self.raw: list[float] = []
        self._probe = probe
        self.probes = [probe.time()] if probe else []
        self._probed_at = time.perf_counter()

    def time(self, fn):
        t0 = time.perf_counter()
        try:
            return fn()
        finally:
            t1 = time.perf_counter()
            self.raw.append(t1 - t0)
            if self._probe and t1 - self._probed_at >= PROBE_EVERY_S:
                self.probes.append(self._probe.time())
                self._probed_at = time.perf_counter()

    @property
    def factor(self) -> float:
        """Multiply a duration measured in this run by this to scale it."""
        return NOMINAL_S / statistics.median(self.probes)


def serve() -> None:
    """Answer each line on standard input with one probe time, until end of input."""
    for _ in sys.stdin:
        print(repr(probe()), flush=True)


if __name__ == "__main__":
    serve()
