"""The three workloads: their operations, and the checks on each result.

An operation is one call a user makes: one ``run_allxy`` call or one
``cryocal.cli.main`` subcommand. A cycle is one
pass over a workload's operations; runs measure whole cycles. Every call
into cryocal goes through a module attribute looked up at call time, so
the tracer's wrappers see it.
"""
from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from cryocal import cli, distortion, qubitsim

import inputs

WORKLOADS = ("allxy-60ns", "vna-cal-cli")

# 1-F must match the value recorded from the seed commit to this relative
# tolerance; the absolute floor covers values near zero.
FIDELITY_REL_TOL = 1e-6
FIDELITY_ABS_TOL = 1e-12
SOL_TOL = 1e-10
ERROR_MODEL_TOL = 1e-8  # CSV holds 9 significant digits
GATE_REL_TOL = 0.01
LOSS_TOL_DB = 0.05
TABLE_REL_TOL = 1e-7
UNC_TABLE_GHZ = (1.0, 2.0, 4.0, 5.0, 8.0, 16.0)  # the CLI's default rows


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    items: int  # 1-F values or DUT traces one call produces
    check: Callable[[object, bool], list[str]]  # (result, full) -> failures
    values: Callable[[object], object]  # what reference.json records
    ref_key: str  # where reference.json records it
    out_dir: Path | None = None  # CLI output directory


def _close(got: float, want: float, rel: float, abs_tol: float = 0.0) -> bool:
    return abs(got - want) <= max(abs_tol, rel * abs(want))


def _compare_fidelity(got, want) -> list[str]:
    if want is None:
        return ["no recorded reference for this configuration"]
    got = [float(x) for x in got]
    if len(got) != len(want):
        return [f"{len(got)} 1-F values, reference has {len(want)}"]
    bad = [i for i, (g, w) in enumerate(zip(got, want))
           if not _close(g, w, FIDELITY_REL_TOL, FIDELITY_ABS_TOL)]
    if bad:
        i = bad[0]
        return [f"{len(bad)} 1-F values off reference, first #{i}: {got[i]!r} vs {want[i]!r}"]
    return []


class Workload:
    """Inputs, operations and checks of one workload at one seed."""

    def __init__(self, name: str, seed: int, size: str, work: Path, reference: dict):
        self.name = name
        self.seed = seed
        self.size = size
        self.work = work
        self.ref = reference.get(name, {}).get(size, {})
        self.info: dict = {}
        self.first_digests: dict[str, dict[str, str]] = {}
        self.digest_mismatches = 0
        self.ops: list[Op] = {
            "allxy-60ns": self._allxy_ops,
            "vna-cal-cli": self._vna_ops,
        }[name]()

    @property
    def items_per_cycle(self) -> int:
        return sum(op.items for op in self.ops)

    # ------------------------------------------------------------ fidelity

    def _allxy_ops(self) -> list[Op]:
        spec = inputs.allxy_inputs(self.seed, self.size)
        self.info.update(length_m=spec.length_m, rls_db=list(spec.rls_db), duration_s=spec.duration_s)
        params = qubitsim.QubitParams()
        start, stop, count = inputs.POOL_SWEEP_AXIS[self.size]

        def pool_sweep(workers: int):
            return qubitsim.sweep_return_loss(
                distortion.MismatchModel(15.0, 15.0, spec.length_m), np.linspace(start, stop, count),
                5e-9, params, qubitsim.XY_PAIR, "taps", workers,
            )

        self.pool_sweep = pool_sweep
        ops = []
        for rl in spec.rls_db:
            for method in inputs.ALLXY_METHODS:
                model = distortion.MismatchModel(rl, rl, spec.length_m)
                key = spec.key(rl, method)
                want = self.ref.get(key)

                def run(model=model, method=method):
                    return qubitsim.run_allxy(model, spec.duration_s, params, qubitsim.XY_PAIR, method)

                def check(r, full, want=want):
                    return _compare_fidelity(r, want)

                values = lambda r: [float(x) for x in r]
                ops.append(Op(f"run_allxy:{method}:{rl:g}", run, 1, check, values, key))
        return ops

    # ---------------------------------------------------------------- VNA

    def _vna_ops(self) -> list[Op]:
        vna = inputs.vna_inputs(self.seed, self.size, self.work / "inputs")
        self.vna = vna
        self.info.update(variant=self.seed % inputs.VNA_VARIANTS, points=int(vna.f_hz.size),
                         formats=vna.formats)
        variant_key = f"variant{self.seed % inputs.VNA_VARIANTS}"
        want_digests = self.ref.get(variant_key, {})
        plan = [
            ("cal", ["cal"], 3, self._check_cal),
            ("gate-atten", ["gate", "--preset", "atten"], 1, self._check_gate_atten),
            ("gate-connector", ["gate", "--preset", "connector"], 1, self._check_gate_connector),
            ("gate-through-short", ["gate", "--preset", "through-short"], 1, self._check_gate_short),
            ("loss-sqrt", ["extract-loss"], 1, self._check_loss("line_sqrt")),
            ("loss-flat", ["extract-loss"], 1, self._check_loss("line_flat")),
            ("uncertainty", ["uncertainty"], 1, self._check_uncertainty),
        ]
        ops = []
        for name, argv, items, oracle in plan:
            out = self.work / "out" / name
            argv = argv + ["--config", str(vna.configs[name]), "--out", str(out)]

            def run(argv=argv):
                return cli.main(argv)

            def check(code, full, name=name, out=out, oracle=oracle):
                if code != 0:
                    return [f"exit code {code}"]
                digests = output_digests(out)
                if name not in self.first_digests:
                    self.first_digests[name] = digests
                    ref = want_digests.get(name, {})
                    self.digest_mismatches += sum(ref.get(k) != v for k, v in digests.items())
                if not full:
                    same = digests == self.first_digests[name]
                    return [] if same else ["outputs differ from the first cycle's"]
                return oracle(out)

            values = lambda code, out=out: output_digests(out)
            ops.append(Op(name, run, items, check, values, f"{variant_key}/{name}", out))
        return ops

    def _midband(self) -> np.ndarray:
        f = self.vna.f_hz
        return (f > inputs.MIDBAND_HZ[0]) & (f < inputs.MIDBAND_HZ[1])

    def _check_cal(self, out: Path) -> list[str]:
        fails = []
        for stem in ("atten_raw", "conn_raw", "multi_raw"):
            err = float(np.max(np.abs(read_s1p(out / f"corrected_{stem}.s1p") - self.vna.truth[stem])))
            if not err < SOL_TOL:
                fails.append(f"SOL recovery of {stem}: max error {err:.3g} >= {SOL_TOL}")
        em = np.loadtxt(out / "error_model.csv", delimiter=",", skiprows=1)
        for k, name in enumerate(("e00", "e11", "delta_e")):
            got = em[:, 1 + 2 * k] + 1j * em[:, 2 + 2 * k]
            err = float(np.max(np.abs(got - self.vna.box[name])))
            if not err < ERROR_MODEL_TOL:
                fails.append(f"error model {name}: max error {err:.3g} >= {ERROR_MODEL_TOL}")
        return fails

    def _gated_midband(self, path: Path, level, what: str) -> list[str]:
        mid = self._midband()
        got = np.abs(read_s1p(path))[mid]
        want = np.broadcast_to(level, self.vna.f_hz.shape)[mid]
        err = float(np.max(np.abs(got - want) / want))
        return [] if err < GATE_REL_TOL else [f"{what}: gated mid-band error {err:.3%}"]

    def _check_gate_atten(self, out: Path) -> list[str]:
        fails = self._gated_midband(out / "gated_atten.s1p", self.vna.params["atten_a0"], "atten")
        below = self.vna.f_hz < 1.0 / 5e-9  # atten preset splices below 1/span
        spliced = read_s1p(out / "gated_atten.s1p")[below]
        err = float(np.max(np.abs(spliced - self.vna.truth["atten"][below])))
        if not err < 1e-12:
            fails.append(f"atten: low-frequency splice differs from input by {err:.3g}")
        return fails

    def _check_gate_connector(self, out: Path) -> list[str]:
        return self._gated_midband(out / "gated_conn.s1p", self.vna.params["conn_c0"], "connector")

    def _check_gate_short(self, out: Path) -> list[str]:
        level = np.abs(self.vna.truth["line_flat"])
        return self._gated_midband(out / "gated_line_flat.s1p", level, "through-short")

    def _check_loss(self, stem: str):
        def oracle(out: Path) -> list[str]:
            table = np.loadtxt(out / "insertion_loss.csv", delimiter=",", skiprows=1)
            if table.shape[0] != self.vna.f_hz.size:
                return [f"{stem}: {table.shape[0]} loss rows for {self.vna.f_hz.size} points"]
            mid = self._midband()
            err = float(np.max(np.abs(table[mid, 2] - self.vna.truth[f"{stem}_loss_db"][mid])))
            return [] if err < LOSS_TOL_DB else [f"{stem}: extracted loss off by {err:.4f} dB"]

        return oracle

    def _check_uncertainty(self, out: Path) -> list[str]:
        with open(out / "return_loss_table.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != len(UNC_TABLE_GHZ):
            return [f"uncertainty: {len(rows)} rows, expected {len(UNC_TABLE_GHZ)}"]
        f = self.vna.f_hz
        gamma = self.vna.truth["atten"]
        levels, sigmas = self.vna.truth["ecal_levels"], self.vna.truth["ecal_sigmas"]
        fails = []
        for row, f_ghz in zip(rows, UNC_TABLE_GHZ):
            s11 = abs(gamma[int(np.argmin(np.abs(f - f_ghz * 1e9)))])
            sigma = math.hypot(float(np.interp(-20 * math.log10(s11), levels, sigmas)),
                               self.vna.params["sigma_switch_var"])
            rl = -20 * math.log10(s11)
            want = {
                "freq_ghz": f_ghz,
                "s11_linear": s11,
                "sigma_rss": sigma,
                "rl_db": rl,
                "lower_db": rl + 20 * math.log10(s11 + sigma),
                "upper_db": -20 * math.log10(s11 - sigma) - rl if sigma < s11 else math.inf,
            }
            for col, w in want.items():
                g = float(row[col])
                if not (g == w or _close(g, w, TABLE_REL_TOL)):
                    fails.append(f"uncertainty {f_ghz} GHz {col}: {g!r} vs {w!r}")
        return fails


def read_s1p(path: Path) -> np.ndarray:
    """Complex values of a one-port RI Touchstone file, read with numpy alone."""
    text = Path(path).read_text()
    option = next(ln for ln in text.splitlines() if ln.startswith("#"))
    if option.split()[1:4] != ["Hz", "S", "RI"]:
        raise ValueError(f"{path}: unexpected option line {option!r}")
    data = np.loadtxt(path, comments=("!", "#"))
    return data[:, 1] + 1j * data[:, 2]


def output_digests(out: Path) -> dict[str, str]:
    """SHA-256 of every output except the manifest, which embeds input paths."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
        if p.name != "manifest.json"
    }
