"""Command-line front end for the calibration / gating / fidelity pipeline.

Each subcommand reads a JSON config, writes CSV (and Touchstone) outputs
plus a ``manifest.json`` recording the tool version and SHA-256 digests of
every input and output, so runs are reproducible byte for byte. Exit
codes: 0 success, 2 config error, 3 data error, 4 numeric failure.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .traces import GridError, _bad_byte_line, _check_sample_count
from .touchstone import (
    TouchstoneParseError,
    read_touchstone_file,
    write_touchstone,
)
from .solcal import CalibrationError, StandardsSet, apply_correction, solve_error_model
from .timegate import (
    GATE_PRESETS,
    GateError,
    GateSpec,
    apply_gate,
    extract_insertion_loss,
    insertion_loss_db,
)
from .uncertainty import (
    ErrorBudget,
    UncertaintyError,
    UncertaintyTable,
    combine_rss,
    format_return_loss,
    interp_ecal_sigma,
    to_return_loss,
)
from .distortion import C_VACUUM, DistortionError, MismatchModel, impulse_response_taps, distort
from .qubitsim import (
    GateOp,
    QubitParams,
    SimulationError,
    XY_PAIR,
    _fidelity_request,
    sweep_length,
    sweep_return_loss,
    synth_gate_pulse,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

DEFAULT_TABLE_GHZ = (1.0, 2.0, 4.0, 5.0, 8.0, 16.0)
CROSSING_THRESHOLDS = (1e-3, 1e-4)


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------- plumbing


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _read_text(path: Path) -> str:
    """The file's UTF-8 text; a byte that is not UTF-8 is a ConfigError naming its line and offset."""
    data = path.read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(
            f"{path}, line {_bad_byte_line(exc)}: byte 0x{data[exc.start]:02x} at offset {exc.start} is not UTF-8"
        ) from None


def _load_config(path_str: str) -> dict:
    path = Path(path_str)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        cfg = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: top-level JSON value must be an object")
    return cfg


_REQUIRED = object()
_KINDS = {  # kind -> (what the error message asks for, test of a non-null JSON value)
    # abs(v) <= max is false for NaN and inf, and compares a huge int without overflow
    float: ("a finite number", lambda v: type(v) in (int, float) and abs(v) <= sys.float_info.max),
    int: ("an integer", lambda v: type(v) is int),
    bool: ("true or false", lambda v: type(v) is bool),
    str: ("a string", lambda v: type(v) is str),
    dict: ("an object", lambda v: type(v) is dict),
    Path: ("the path of an existing file", lambda v: type(v) is str and Path(v).is_file()),
}


def _get(block: dict, key: str, kind, default=_REQUIRED, where: str = ""):
    """``block[key]`` checked against ``kind``; an absent or null key gives ``default``.

    ``kind`` is a key of ``_KINDS`` (a float or Path kind returns a float or a
    Path) or ``[kind]``, a list checked element by element. Errors name the
    dotted key, e.g. ``model.length_m`` or ``rows[2].s11``.
    """
    name = f"{where}.{key}" if where else key
    value = block[key] if key in block else None
    if value is None:
        if default is _REQUIRED:
            raise ConfigError(f"{name} is required")
        return default
    return _check(value, kind, name)


def _check(value, kind, name: str):
    if isinstance(kind, list):
        if not isinstance(value, list):
            raise ConfigError(f"{name} must be a list, got {value!r}")
        return [_check(v, kind[0], f"{name}[{i}]") for i, v in enumerate(value)]
    wanted, ok = _KINDS[kind]
    if not ok(value):
        raise ConfigError(f"{name} must be {wanted}, got {value!r}")
    return float(value) if kind is float else Path(value) if kind is Path else value


# A domain field -> the config key that sets it, where the two differ in name (and often in unit).
_CONFIG_KEYS = {"omega_q": "f_q_ghz", "dt_s": "dt_ps", "v_p": "v_p_over_c", "span_s": "span_ns",
                "s11_linear": "s11", "sigma_rss": "sigma", "duration_s": "duration_ns"}


def _build(prefix: str, cls, *args, keys=_CONFIG_KEYS, **kwargs):
    """``cls(*args, **kwargs)``; a domain type's or judge's rejection is a ConfigError after ``prefix``, a block's
    path (``"model."``) or a value's key (``"axis.start: "``), with the key from ``keys`` first if the config
    sets the field under another name."""
    try:
        return cls(*args, **kwargs)
    except (DistortionError, GateError, SimulationError, UncertaintyError) as exc:
        key = keys.get(str(exc).split(" ", 1)[0])  # every rejection starts with its field
        raise ConfigError(f"{prefix}{key}: {exc}" if key else f"{prefix}{exc}") from exc


def _write_manifest(out_dir: Path, command: str, inputs: dict[str, Path], outputs: list[Path]):
    manifest = {
        "tool": "cryocal",
        "version": __version__,
        "command": command,
        "inputs": {role: {"path": str(p), "sha256": _sha256(p)} for role, p in sorted(inputs.items())},
        "outputs": {p.name: _sha256(p) for p in outputs},
    }
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


_NUMBER = "%.9g"  # 9 significant digits keep the CSVs regression-stable; inf prints as inf


def _write_csv(path: Path, header: list[str], *columns):
    """Write equal-length columns (arrays or sequences) as CSV, one ``%``-format per row.

    A column of strings is written as text (``%s``), any other as numbers (``_NUMBER``).
    """
    columns = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns]
    row = ",".join("%s" if c and isinstance(c[0], str) else _NUMBER for c in columns)
    lines = [",".join(header)] + [row % r for r in zip(*columns)]
    path.write_text("\n".join(lines) + "\n")


# ------------------------------------------------------------- subcommands


def cmd_cal(cfg: dict, out: Path, args) -> tuple[dict[str, Path], list[Path]]:
    std_cfg = _get(cfg, "standards", dict)
    inputs: dict[str, Path] = {}
    traces = {}
    for std in ("short", "open", "load"):
        block = _get(std_cfg, std, dict, where="standards")
        for role in ("defined", "measured"):
            path = inputs[f"{std}.{role}"] = _get(block, role, Path, where=f"standards.{std}")
            traces[f"{role}_{std}"] = read_touchstone_file(path)
    duts = _get(cfg, "duts", [Path], [])
    first_of = {}  # stem -> index of its first DUT; each stem names one output file
    for i, dut_path in enumerate(duts):
        j = first_of.setdefault(dut_path.stem, i)
        if j != i:
            raise ConfigError(
                f"duts[{j}] ({duts[j]}) and duts[{i}] ({dut_path}) share the stem "
                f"{dut_path.stem!r}: both would be written to corrected_{dut_path.stem}.s1p"
            )
    model = solve_error_model(StandardsSet(**traces))

    error_csv = out / "error_model.csv"
    _write_csv(
        error_csv,
        ["freq_hz", "e00_re", "e00_im", "e11_re", "e11_im", "delta_e_re", "delta_e_im"],
        model.grid.frequencies,
        *(part for term in (model.e00, model.e11, model.delta_e) for part in (term.real, term.imag)),
    )
    outputs = [error_csv]

    for i, dut_path in enumerate(duts):
        inputs[f"dut[{i}]"] = dut_path
        corrected = apply_correction(model, read_touchstone_file(dut_path))
        out_path = out / f"corrected_{dut_path.stem}.s1p"
        out_path.write_text(write_touchstone(corrected))
        outputs.append(out_path)

    return inputs, outputs


def _gate_from_config(cfg: dict, preset_flag: str | None, fallback: str | None = None) -> GateSpec:
    """``--preset``, else the config's ``preset``, else its ``gate`` block (required without a ``fallback`` preset)."""
    name = preset_flag or _get(cfg, "preset", str, None)
    if name is None:
        block = _get(cfg, "gate", dict, _REQUIRED if fallback is None else None)
        if block is not None:
            return _build(
                "gate.", GateSpec,
                center_s=_get(block, "center_ns", float, where="gate") * 1e-9,
                span_s=_get(block, "span_ns", float, where="gate") * 1e-9,
                kaiser_beta=_get(block, "kaiser_beta", float, GateSpec.kaiser_beta, "gate"),
                splice_below_cutoff=_get(block, "splice", bool, GateSpec.splice_below_cutoff, "gate"),
            )
        name = fallback
    if name not in GATE_PRESETS:
        raise ConfigError(f"unknown gate preset {name!r}; choose from {sorted(GATE_PRESETS)}")
    return GATE_PRESETS[name]


def cmd_gate(cfg: dict, out: Path, args) -> tuple[dict[str, Path], list[Path]]:
    in_path = _get(cfg, "input", Path)
    gate = _gate_from_config(cfg, args.preset)
    gated = apply_gate(read_touchstone_file(in_path), gate)

    gated_path = out / f"gated_{in_path.stem}.s1p"
    gated_path.write_text(write_touchstone(gated))
    mags = np.abs(gated.values).tolist()
    rl_db = [-20.0 * math.log10(m) if m > 0 else math.inf for m in mags]
    rl_csv = out / "return_loss.csv"
    _write_csv(rl_csv, ["freq_hz", "s11_mag", "rl_db"], gated.grid.frequencies, mags, rl_db)

    return {"input": in_path}, [gated_path, rl_csv]


def cmd_extract_loss(cfg: dict, out: Path, args) -> tuple[dict[str, Path], list[Path]]:
    in_path = _get(cfg, "input", Path)
    gate = _gate_from_config(cfg, args.preset, "through-short")
    gated = apply_gate(read_touchstone_file(in_path), gate)
    s21 = extract_insertion_loss(gated)
    loss_csv = out / "insertion_loss.csv"
    _write_csv(loss_csv, ["freq_hz", "s21_mag", "loss_db"], gated.grid.frequencies, s21, insertion_loss_db(s21))
    return {"input": in_path}, [loss_csv]


def _read_ecal_table(path: Path) -> UncertaintyTable:
    """(s11_db, sigma_linear) rows; the first line is a header if none of its cells is a number.

    A cell is a number as ``np.loadtxt`` reads Touchstone records, not as ``float`` reads
    one: ``3_0`` and non-ASCII digits are not numbers."""
    lines = [(n, ln.strip()) for n, ln in enumerate(_read_text(path).splitlines(), 1) if ln.strip()]
    rows = []
    for k, (lineno, ln) in enumerate(lines):
        try:
            row = np.loadtxt([ln], delimiter=",", comments=None, ndmin=1).tolist()
        except ValueError:
            if k == 0 and not any(_is_number(cell) for cell in ln.split(",")):
                continue
            raise ConfigError(f"{path}, line {lineno}: non-numeric cell in {ln!r}") from None
        if len(row) != 2:
            raise ConfigError(f"{path}, line {lineno}: expected two columns (s11_db,sigma_linear), got {ln!r}")
        rows.append(row)
    return _build(f"{path}: ", UncertaintyTable, *np.array(rows).reshape(-1, 2).T)


def _is_number(cell: str) -> bool:
    try:
        return bool(cell.strip()) and np.loadtxt([cell], comments=None, ndmin=1).size == 1
    except ValueError:
        return False


def cmd_uncertainty(cfg: dict, out: Path, args) -> tuple[dict[str, Path], list[Path]]:
    inputs: dict[str, Path] = {}

    freqs_ghz = _get(cfg, "frequencies_ghz", [float], list(DEFAULT_TABLE_GHZ))
    if not freqs_ghz:
        raise ConfigError("frequencies_ghz must be a non-empty list")
    rows = _get(cfg, "rows", [dict], None)

    rows_out = []  # (freq_ghz, ReturnLossResult)
    if rows is not None:
        # Direct (s11, sigma) rows, bypassing trace + table lookup.
        for i, row in enumerate(rows):
            f_ghz, s11, sigma = (_get(row, k, float, where=f"rows[{i}]") for k in ("freq_ghz", "s11", "sigma"))
            rows_out.append((f_ghz, _build(f"rows[{i}].", to_return_loss, s11_linear=s11, sigma_rss=sigma)))
    else:
        in_path = inputs["input"] = _get(cfg, "input", Path)
        table_path = inputs["ecal_table"] = _get(cfg, "ecal_table", Path)
        sigma_var = _get(cfg, "sigma_switch_var", float)
        sigma_rep = _get(cfg, "sigma_switch_rep", float, ErrorBudget.sigma_switch_rep)
        include_rep = _get(cfg, "include_rep", bool, False)
        trace = read_touchstone_file(in_path)
        table = _read_ecal_table(table_path)
        freqs = trace.frequencies
        for f_ghz in freqs_ghz:
            f_hz = f_ghz * 1e9
            idx = int(np.argmin(np.abs(freqs - f_hz)))
            if abs(freqs[idx] - f_hz) > trace.grid.step_hz:
                raise UncertaintyError(f"no grid point near {f_ghz} GHz in {in_path}")
            s11 = float(abs(trace.values[idx]))
            if s11 == 0.0:
                raise UncertaintyError(f"|S11| is 0 at {f_ghz} GHz in {in_path}: no return-loss level to look up")
            level_db = -20.0 * math.log10(s11)
            budget = _build("", ErrorBudget, interp_ecal_sigma(table, level_db), sigma_var, sigma_rep)
            rows_out.append((f_ghz, to_return_loss(s11, combine_rss(budget, include_rep=include_rep))))

    results = [r for _, r in rows_out]
    table_csv = out / "return_loss_table.csv"
    _write_csv(
        table_csv,
        ["freq_ghz", "s11_linear", "sigma_rss", "rl_db", "upper_db", "lower_db", "display"],
        [f_ghz for f_ghz, _ in rows_out],
        *([getattr(r, k) for r in results] for k in ("s11_linear", "sigma_rss", "rl_db", "upper_db", "lower_db")),
        [format_return_loss(r) for r in results],
    )
    return inputs, [table_csv]


def _qubit_params(cfg: dict) -> QubitParams:
    block = _get(cfg, "qubit", dict, {})
    default = QubitParams()
    f_q_ghz = _get(block, "f_q_ghz", float, default.f_q / 1e9, "qubit")
    dt_ps = _get(block, "dt_ps", float, default.dt_s / 1e-12, "qubit")
    return _build("qubit.", QubitParams, omega_q=2.0 * math.pi * f_q_ghz * 1e9, dt_s=dt_ps * 1e-12)


def _mismatch_model(block: dict) -> MismatchModel:
    rl = _get(block, "rl_db", float, 15.0, "model")
    rls = {field: _get(block, field, float, None, "model") for field in ("rl1_db", "rl2_db")}
    # rl_db sets each element the block leaves out, so a rejection of that element names rl_db
    keys = {**_CONFIG_KEYS, **{field: "rl_db" for field, value in rls.items() if value is None}}
    return _build(
        "model.", MismatchModel, keys=keys,
        **{field: rl if value is None else value for field, value in rls.items()},
        length_m=_get(block, "length_m", float, where="model"),
        v_p=_get(block, "v_p_over_c", float, MismatchModel.v_p / C_VACUUM, "model") * C_VACUUM,
        max_reflections=_get(block, "max_reflections", int, MismatchModel.max_reflections, "model"),
    )


def _axis(cfg: dict, model: MismatchModel, fields: tuple[str, ...]) -> np.ndarray:
    """``axis.count`` points from start to stop; the model's rules are thresholds, so judging the ends judges all."""
    block = _get(cfg, "axis", dict)
    count = _get(block, "count", int, where="axis")
    ends = {end: _get(block, end, float, where="axis") for end in ("start", "stop")}
    if count < 1:
        raise ConfigError(f"axis.count must be an integer >= 1, got {count!r}")
    _check_sample_count(count, ConfigError, "axis.count")
    for end, value in ends.items():
        _build(f"axis.{end}: ", replace, model, **dict.fromkeys(fields, value))
    return np.linspace(ends["start"], ends["stop"], count)


def _crossing(axis: np.ndarray, dev: np.ndarray, threshold: float) -> float | None:
    """Log-interpolated axis value where the deviation, decreasing along the
    ascending axis, crosses threshold; a descending axis is scanned reversed."""
    order = np.argsort(axis, kind="stable")
    axis, dev = axis[order], dev[order]
    with np.errstate(divide="ignore"):
        ld = np.log10(np.maximum(dev, 1e-300))
    lt = math.log10(threshold)
    for i in range(len(axis) - 1):
        if (ld[i] - lt) * (ld[i + 1] - lt) <= 0 and dev[i] > dev[i + 1]:
            frac = (ld[i] - lt) / (ld[i] - ld[i + 1])
            return float(axis[i] + frac * (axis[i + 1] - axis[i]))
    return None


def cmd_fidelity(cfg: dict, out: Path, args) -> tuple[dict[str, Path], list[Path]]:
    params = _qubit_params(cfg)
    model = _mismatch_model(_get(cfg, "model", dict))
    sweep, fields = ((sweep_length, ("length_m",)) if args.mode == "sweep-length"
                     else (sweep_return_loss, ("rl1_db", "rl2_db")))
    axis = _axis(cfg, model, fields)
    duration_s = _get(cfg, "duration_ns", float, 5.0) * 1e-9
    pairs = _get(cfg, "pairs", [[str]], XY_PAIR)
    method = _get(cfg, "method", str, "taps")
    _build("", _fidelity_request, duration_s, params, pairs, method)

    result = sweep(model, axis, duration_s, params, pairs, method, args.threads)

    names = ["".join(pair) for pair in result.pairs]
    sweep_csv = out / f"{args.mode}.csv"
    # axis-major rows: every pair at the first axis value, then at the next
    _write_csv(
        sweep_csv, ["axis_value", "pair", "one_minus_f"],
        np.repeat(result.axis, len(names)), names * len(result.axis), result.deviation.ravel(),
    )
    outputs = [sweep_csv]

    if args.mode == "sweep-rl":
        # pair-major rows; a threshold that is never crossed leaves its cell empty
        crossings = [_crossing(result.axis, dev, thr) for dev in result.deviation.T for thr in CROSSING_THRESHOLDS]
        cross_csv = out / "crossings.csv"
        _write_csv(
            cross_csv, ["pair", "threshold", "rl_db"],
            [name for name in names for _ in CROSSING_THRESHOLDS], CROSSING_THRESHOLDS * len(names),
            ["" if rl is None else _NUMBER % rl for rl in crossings],
        )
        outputs.append(cross_csv)

    return {}, outputs


def cmd_pulse_synth(cfg: dict, out: Path, args) -> tuple[dict[str, Path], list[Path]]:
    params = _qubit_params(cfg)
    gate = _build("gate: ", GateOp, _get(cfg, "gate", str, "X"))
    duration_s = _get(cfg, "duration_ns", float, 5.0) * 1e-9
    _build("", _fidelity_request, duration_s, params, [[gate.kind]])
    amplitude = _get(cfg, "amplitude", float, None)
    model_block = _get(cfg, "model", dict, None)
    model = None if model_block is None else _mismatch_model(model_block)
    pulse = synth_gate_pulse(gate, duration_s, params, amplitude)
    if model is not None:
        pulse = distort(pulse, impulse_response_taps(model))
    pulse_csv = out / "pulse.csv"
    _write_csv(pulse_csv, ["time_s", "amplitude"], pulse.times, pulse.samples)
    return {}, [pulse_csv]


# ------------------------------------------------------------------ driver


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cryocal",
        description="S-parameter calibration, time gating, uncertainty, and qubit fidelity pipeline",
    )
    parser.add_argument("--version", action="version", version=f"cryocal {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def leaf(parent, name, help, handler, preset=False, threads=False):
        p = parent.add_parser(name, help=help)
        p.set_defaults(handler=handler, manifest_command=p.prog.removeprefix(f"{parser.prog} "))
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out", required=True, help="output directory")
        if preset:
            p.add_argument("--preset", default=None, help="gate preset name (overrides config)")
        if threads:
            p.add_argument("--threads", type=int, default=1, help="has no effect: sweeps run in one process")

    leaf(sub, "cal", "solve SOL error model and correct DUT traces", cmd_cal)
    leaf(sub, "gate", "apply a time gate to a reflection trace", cmd_gate, preset=True)
    leaf(sub, "extract-loss", "gated insertion loss from a shorted-line reflection", cmd_extract_loss, preset=True)
    leaf(sub, "uncertainty", "return-loss table with RSS error bars", cmd_uncertainty)

    fid = sub.add_parser("fidelity", help="gate-fidelity deviation sweeps")
    fid_sub = fid.add_subparsers(dest="mode", required=True)
    leaf(fid_sub, "sweep-length", "1-F versus line length", cmd_fidelity, threads=True)
    leaf(fid_sub, "sweep-rl", "1-F versus return loss", cmd_fidelity, threads=True)

    pulse = sub.add_parser("pulse", help="pulse utilities")
    pulse_sub = pulse.add_subparsers(dest="mode", required=True)
    leaf(pulse_sub, "synth", "synthesize a calibrated (optionally distorted) gate pulse", cmd_pulse_synth)

    return parser


_CONFIG_ERRORS = (ConfigError,)
_DATA_ERRORS = (TouchstoneParseError, GridError, GateError, UncertaintyError, DistortionError, OSError)
_NUMERIC_ERRORS = (CalibrationError, SimulationError, FloatingPointError)


def main(argv=None) -> int:
    """Load the config, create ``--out``, run the subcommand's handler and write
    ``manifest.json`` from the inputs and outputs it returns; errors map to exit codes."""
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args.config)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        inputs, outputs = args.handler(cfg, out, args)
        _write_manifest(out, args.manifest_command, {"config": Path(args.config), **inputs}, outputs)
        return EXIT_OK
    except _CONFIG_ERRORS as exc:
        print(f"cryocal: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _NUMERIC_ERRORS as exc:
        print(f"cryocal: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except _DATA_ERRORS as exc:
        print(f"cryocal: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except MemoryError as exc:  # a size numpy accepts but this host cannot hold
        detail = f": {exc}" if str(exc) else ""
        print(f"cryocal: out of memory: the run needs more memory than this host has{detail}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
