"""Set-up cost: fresh interpreters that import cryocal from the checkout.

Every CLI call pays this import, so it is timed in a new process each time.
A first, untimed import fills the bytecode caches a user would already
have. ``-X importtime`` splits the import into numpy, scipy and cryocal's
own modules.
"""
from __future__ import annotations

import os
import statistics
import subprocess
import sys
from pathlib import Path

from speed import Clock, Probe

TIMEOUT_S = 120


def _run(src: Path, *flags: str, code: str = "import cryocal") -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *flags, "-c", code],
        cwd=src.parent, env=env, capture_output=True, text=True, timeout=TIMEOUT_S, check=True,
    )


def warm_up(src: Path):
    """Import once, untimed, and confirm the checkout's cryocal is the one imported."""
    where = _run(src, code="import cryocal; print(cryocal.__file__)").stdout.strip()
    if not Path(where).resolve().is_relative_to(src.resolve()):
        raise RuntimeError(f"fresh interpreter imported cryocal from {where}, not {src}")


def import_seconds(src: Path, repeats: int, probe: Probe) -> Clock:
    """Wall time of ``repeats`` fresh interpreters importing cryocal."""
    clock = Clock(probe)
    for _ in range(repeats):
        clock.time(lambda: _run(src))
    return clock


def _importtime_tree(stderr: str) -> list[tuple[int, str, int, int]]:
    """(depth, module, self us, cumulative us) in pre-order (parents first)."""
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        self_us, cum_us, name = line[len("import time:"):].split("|", 2)
        depth = len(name) - len(name.lstrip(" "))
        rows.append((depth, name.strip(), int(self_us), int(cum_us)))
    return rows[::-1]  # the flag prints children before their parent


def _split_import(stderr: str) -> dict[str, float]:
    """numpy and scipy: cumulative time of their outermost subtrees; cryocal: own self time."""
    totals = {"numpy": 0, "scipy": 0, "cryocal": 0}
    stack: list[tuple[int, str]] = []
    for depth, name, self_us, cum_us in _importtime_tree(stderr):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        pkg = name.split(".", 1)[0]
        if pkg == "cryocal":
            totals["cryocal"] += self_us
        elif pkg in ("numpy", "scipy") and not any(a.split(".", 1)[0] == pkg for _, a in stack):
            totals[pkg] += cum_us
        stack.append((depth, name))
    return {k: v / 1e3 for k, v in totals.items()}


def import_breakdown_ms(src: Path, repeats: int) -> dict[str, float]:
    runs = [_split_import(_run(src, "-X", "importtime").stderr) for _ in range(repeats)]
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}
