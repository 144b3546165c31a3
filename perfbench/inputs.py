"""Seeded inputs for every workload, built from the workload seed alone.

The fidelity workload draws its line length and return-loss values from
short fixed lists, so every seed lands on a configuration whose 1-F values
were recorded in ``reference.json``. The VNA workload writes Touchstone
files with its own writer (independent of ``cryocal.touchstone``) from a
known error box, point reflectors and lossy shorted lines; the truth it
used travels with the inputs so the checks need no program output.

The seed moves values, not the amount of work: lengths stay within a few
millimetres (the ghost phase still turns through most of a period, while
the evolved waveform length changes by under 1 %), and each file's
Touchstone format and frequency unit are fixed.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

SIZES = ("full", "tiny")

# allxy-60ns: long pulses, calibration inside every call, both distortion paths.
ALLXY_LENGTHS_M = (0.270, 0.274, 0.278, 0.282)
ALLXY_RL_SETS = {"full": ((10.0, 16.0), (12.0, 18.0)), "tiny": ((12.0,), (16.0,))}
ALLXY_DURATION_S = {"full": 60e-9, "tiny": 5e-9}
ALLXY_METHODS = ("taps", "fourier")
# Informational only: a short 5 ns return-loss sweep, timed at 1 and 2 workers.
POOL_SWEEP_AXIS = {"full": (6.0, 20.0, 8), "tiny": (8.0, 16.0, 2)}

# vna-cal-cli: grid of the paper's 10 MHz .. 26.5 GHz VNA sweeps.
VNA_GRID = {"full": (10e6, 2.5e6, 10597), "tiny": (25e6, 25e6, 1060)}
VNA_VARIANTS = 16
MIDBAND_HZ = (2e9, 20e9)
FORMATS = ("RI", "MA", "DB")
UNITS = {"GHz": 1e9, "MHz": 1e6, "Hz": 1.0}


@dataclass(frozen=True)
class AllxyInputs:
    length_m: float
    rls_db: tuple[float, ...]
    duration_s: float

    def key(self, rl_db: float, method: str) -> str:
        return f"L{self.length_m!r}/rl{rl_db!r}/{method}/T{self.duration_s!r}"


def allxy_inputs(seed: int, size: str) -> AllxyInputs:
    rng = np.random.default_rng(seed)
    length = ALLXY_LENGTHS_M[int(rng.integers(len(ALLXY_LENGTHS_M)))]
    rl_sets = ALLXY_RL_SETS[size]
    rls = rl_sets[int(rng.integers(len(rl_sets)))]
    return AllxyInputs(length, rls, ALLXY_DURATION_S[size])


# ------------------------------------------------------------------ VNA files


def format_touchstone(f_hz: np.ndarray, values: np.ndarray, fmt: str, unit: str) -> str:
    """Touchstone v1 one-port text, written without cryocal."""
    if fmt == "RI":
        a, b = values.real, values.imag
    else:
        mag = np.abs(values)
        a = mag if fmt == "MA" else 20.0 * np.log10(mag)
        b = np.degrees(np.angle(values))
    f = f_hz / UNITS[unit]
    lines = ["! generated by perfbench", f"# {unit} S {fmt} R 50"]
    lines += [f"{x:.17g} {y:.17g} {z:.17g}" for x, y, z in zip(f.tolist(), a.tolist(), b.tolist())]
    return "\n".join(lines) + "\n"


def reflectors(f: np.ndarray, taps) -> np.ndarray:
    """Reflection of ideal point reflectors: [(amplitude, delay_s), ...]."""
    out = np.zeros(f.size, dtype=complex)
    for amp, delay in taps:
        out += amp * np.exp(-2j * math.pi * f * delay)
    return out


@dataclass
class VnaInputs:
    """Files on disk plus the truth they were built from."""

    root: Path
    f_hz: np.ndarray
    box: dict[str, np.ndarray]  # e00, e11, delta_e
    truth: dict[str, np.ndarray] = field(default_factory=dict)  # file stem -> true reflection
    params: dict[str, float] = field(default_factory=dict)
    configs: dict[str, Path] = field(default_factory=dict)
    formats: dict[str, str] = field(default_factory=dict)


def vna_inputs(seed: int, size: str, root: Path) -> VnaInputs:
    """Write the standards, DUTs, shorted lines, ECal table and CLI configs."""
    from cryocal import ComplexTrace, ErrorModelOnePort, FrequencyGrid, forward_model

    variant = seed % VNA_VARIANTS
    rng = np.random.default_rng([variant, VNA_GRID[size][2]])
    start, step, count = VNA_GRID[size]
    grid = FrequencyGrid(start_hz=start, step_hz=step, count=count)
    f = grid.frequencies
    f_max = f[-1]
    root.mkdir(parents=True, exist_ok=True)

    u = rng.uniform
    e00 = u(0.02, 0.08) * np.exp(-2j * math.pi * f * u(0.1e-9, 0.5e-9))
    e11 = u(0.05, 0.2) * np.exp(-2j * math.pi * f * u(0.1e-9, 0.5e-9) + 1j * u(0, 2 * math.pi))
    e01e10 = u(0.7, 0.95) * (1.0 - 0.1 * f / f_max) * np.exp(-2j * math.pi * f * u(1e-9, 3e-9))
    box = {"e00": e00, "e11": e11, "delta_e": e00 * e11 - e01e10}
    model = ErrorModelOnePort(grid=grid, **box)
    inp = VnaInputs(root=root, f_hz=f, box=box)

    def write(stem: str, values: np.ndarray, truth: np.ndarray | None = None) -> Path:
        n = len(inp.formats)
        fmt, unit = FORMATS[n % 3], tuple(UNITS)[n // 3 % 3]
        path = root / f"{stem}.s1p"
        path.write_text(format_touchstone(f, values, fmt, unit), encoding="ascii")
        inp.formats[stem] = fmt
        if truth is not None:
            inp.truth[stem] = truth
        return path

    def measured(gamma: np.ndarray) -> np.ndarray:
        return forward_model(model, ComplexTrace(grid=grid, values=gamma)).values

    # Offset short/open delays stay within 10 ps of each other so the two
    # definitions never coincide in the band; the load is a weak reflector.
    defined = {
        "short": -0.995 * np.exp(-2j * math.pi * f * u(10e-12, 20e-12)),
        "open": 0.998 * np.exp(-2j * math.pi * f * u(10e-12, 20e-12)),
        "load": reflectors(f, [(0.005, 0.0), (u(0.002, 0.01), u(20e-12, 60e-12))]),
    }
    standards = {}
    for name, gamma in defined.items():
        standards[name] = {
            "defined": str(write(f"{name}_def", gamma)),
            "measured": str(write(f"{name}_meas", measured(gamma))),
        }

    a0 = u(0.03, 0.1)
    atten = reflectors(f, [(a0, 0.0), (u(0.2, 0.5) * a0, u(8e-9, 12e-9))])
    c0 = u(0.04, 0.08)
    conn = reflectors(f, [(c0, 0.0), (u(0.5, 0.9), u(3e-9, 4e-9))])
    multi = reflectors(f, [(u(0.1, 0.5), u(0, 5e-9)) for _ in range(3)])
    inp.params.update(atten_a0=a0, conn_c0=c0)

    duts = []
    for stem, gamma in (("atten_raw", atten), ("conn_raw", conn), ("multi_raw", multi)):
        duts.append(str(write(stem, measured(gamma), truth=gamma)))
    atten_path = write("atten", atten, truth=atten)
    conn_path = write("conn", conn, truth=conn)

    # Shorted lines: round trip |S11| = |S21|^2 at ~2.15 ns, the delay the
    # through-short gate preset is centred on.
    loss_sqrt = u(0.1, 0.4) * np.sqrt(f / 1e9)
    loss_flat = np.full(f.size, u(0.5, 4.7))
    lines = {}
    for stem, loss in (("line_sqrt", loss_sqrt), ("line_flat", loss_flat)):
        s21 = 10.0 ** (-loss / 20.0)
        gamma = s21**2 * np.exp(-2j * math.pi * f * u(2.05e-9, 2.25e-9))
        lines[stem] = write(stem, gamma, truth=gamma)
        inp.truth[f"{stem}_loss_db"] = loss

    # The CLI looks the table up at -20 log10|S11|, so levels are positive dB.
    levels = np.linspace(0.0, 60.0, 13)
    sigmas = 0.002 + 0.004 * 10.0 ** (-levels / 20.0) * (1.0 + 0.2 * rng.uniform(size=levels.size))
    ecal = root / "ecal_sigma.csv"
    ecal.write_text("s11_db,sigma_linear\n" + "".join(f"{x:.17g},{y:.17g}\n" for x, y in zip(levels, sigmas)))
    inp.truth["ecal_levels"] = levels
    inp.truth["ecal_sigmas"] = sigmas
    inp.params["sigma_switch_var"] = u(0.001, 0.006)

    cfgs = {
        "cal": {"standards": standards, "duts": duts},
        "gate-atten": {"input": str(atten_path)},
        "gate-connector": {"input": str(conn_path)},
        "gate-through-short": {"input": str(lines["line_flat"])},
        "loss-sqrt": {"input": str(lines["line_sqrt"])},
        "loss-flat": {"input": str(lines["line_flat"])},
        "uncertainty": {
            "input": str(atten_path),
            "ecal_table": str(ecal),
            "sigma_switch_var": inp.params["sigma_switch_var"],
        },
    }
    for name, cfg in cfgs.items():
        path = root / f"{name}.json"
        path.write_text(json.dumps(cfg, indent=1))
        inp.configs[name] = path
    return inp
