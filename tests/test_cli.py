import contextlib
import copy
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cryocal
from cryocal import (
    XY_PAIR,
    ComplexTrace,
    GateSpec,
    MismatchModel,
    QubitParams,
    forward_model,
    parse_touchstone,
    sweep_return_loss,
    write_touchstone,
)
from cryocal.cli import CROSSING_THRESHOLDS, _gate_from_config, _mismatch_model, _read_ecal_table, main
from cryocal.distortion import C_VACUUM

from conftest import (
    FILE_MUTATIONS,
    S1P_LINES,
    TOKEN_VALUES,
    aligned_grid,
    constant_error_model,
    cycling_pi_calibration,
    mutated_s1p,
    reflector_trace,
    shorted_line_trace,
)

WIDE = aligned_grid(start_hz=1e7, step_hz=2.5e6, count=10597)


def write_trace(path, trace):
    path.write_text(write_touchstone(trace))
    return str(path)


def run(argv):
    return main([str(a) for a in argv])


@pytest.fixture
def cal_setup(tmp_path):
    grid = aligned_grid(count=201)
    n = grid.count
    model = constant_error_model(grid, 0.1 + 0.02j, 0.2 - 0.05j, -0.79 + 0.01j)
    defs = {
        "short": ComplexTrace(grid=grid, values=np.full(n, -1.0 + 0j)),
        "open": ComplexTrace(grid=grid, values=np.full(n, 1.0 + 0j)),
        "load": ComplexTrace(grid=grid, values=np.full(n, 0.001 + 0j)),
    }
    std_cfg = {}
    for name, tr in defs.items():
        std_cfg[name] = {
            "defined": write_trace(tmp_path / f"{name}_def.s1p", tr),
            "measured": write_trace(tmp_path / f"{name}_meas.s1p", forward_model(model, tr)),
        }
    rng = np.random.default_rng(3)
    truth = ComplexTrace(
        grid=grid, values=0.5 * (rng.normal(size=n) + 1j * rng.normal(size=n)) / 2
    )
    dut_path = write_trace(tmp_path / "dut_raw.s1p", forward_model(model, truth))
    cfg_path = tmp_path / "cal.json"
    cfg_path.write_text(json.dumps({"standards": std_cfg, "duts": [dut_path]}))
    return cfg_path, truth


def test_cal_end_to_end(cal_setup, tmp_path):
    cfg_path, truth = cal_setup
    out = tmp_path / "out"
    assert run(["cal", "--config", cfg_path, "--out", out]) == 0
    corrected = parse_touchstone((out / "corrected_dut_raw.s1p").read_text(), 1)
    assert np.max(np.abs(corrected.values - truth.values)) < 1e-10
    assert (out / "error_model.csv").read_text().startswith("freq_hz,e00_re")


def test_cal_manifest_complete(cal_setup, tmp_path):
    cfg_path, _ = cal_setup
    out = tmp_path / "out"
    run(["cal", "--config", cfg_path, "--out", out])
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["tool"] == "cryocal"
    assert manifest["command"] == "cal"
    assert "short.defined" in manifest["inputs"]
    assert "dut[0]" in manifest["inputs"]
    for name in ("error_model.csv", "corrected_dut_raw.s1p"):
        assert name in manifest["outputs"]
        digest = manifest["outputs"][name]
        assert len(digest) == 64


def test_cal_rejects_duts_sharing_a_stem_before_solving(cal_setup, tmp_path, capsys, monkeypatch):
    # a/dut.s1p and b/dut.s1p would both be written to corrected_dut.s1p
    cfg_path, _ = cal_setup
    cfg = json.loads(cfg_path.read_text())
    duts = []
    for d in ("a", "b"):
        (tmp_path / d).mkdir()
        duts.append(str(tmp_path / d / "dut.s1p"))
        Path(duts[-1]).write_bytes(Path(cfg["duts"][0]).read_bytes())
    cfg_path.write_text(json.dumps(dict(cfg, duts=duts)))
    monkeypatch.setattr(cryocal.cli, "solve_error_model", lambda *a: pytest.fail("solved before checking the stems"))
    assert run(["cal", "--config", cfg_path, "--out", tmp_path / "o"]) == 2
    err = capsys.readouterr().err
    assert f"duts[0] ({duts[0]}) and duts[1] ({duts[1]})" in err and "corrected_dut.s1p" in err, err


def test_cal_missing_standard_is_config_error(tmp_path):
    cfg = tmp_path / "cal.json"
    cfg.write_text(
        json.dumps(
            {
                "standards": {
                    "short": {"defined": str(tmp_path / "nope.s1p"), "measured": str(tmp_path / "nope.s1p")},
                    "open": {"defined": "x", "measured": "x"},
                    "load": {"defined": "x", "measured": "x"},
                }
            }
        )
    )
    assert run(["cal", "--config", cfg, "--out", tmp_path / "o"]) == 2


def test_cal_degenerate_measurements_numeric_failure(tmp_path):
    grid = aligned_grid(count=21)
    n = grid.count
    defs = {
        "short": ComplexTrace(grid=grid, values=np.full(n, -1.0 + 0j)),
        "open": ComplexTrace(grid=grid, values=np.full(n, 1.0 + 0j)),
        "load": ComplexTrace(grid=grid, values=np.zeros(n)),
    }
    same = ComplexTrace(grid=grid, values=np.full(n, 0.3 + 0j))
    std_cfg = {
        name: {
            "defined": write_trace(tmp_path / f"{name}_def.s1p", tr),
            "measured": write_trace(tmp_path / f"{name}_meas.s1p", same),
        }
        for name, tr in defs.items()
    }
    cfg = tmp_path / "cal.json"
    cfg.write_text(json.dumps({"standards": std_cfg}))
    assert run(["cal", "--config", cfg, "--out", tmp_path / "o"]) == 4


def test_gate_preset_and_determinism(tmp_path):
    tr = reflector_trace(WIDE, [(0.05, 0.0), (0.9, 2.15e-9)])
    in_path = write_trace(tmp_path / "cable.s1p", tr)
    cfg = tmp_path / "gate.json"
    cfg.write_text(json.dumps({"input": in_path, "preset": "connector"}))
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert run(["gate", "--config", cfg, "--out", out1]) == 0
    assert run(["gate", "--config", cfg, "--out", out2]) == 0
    assert (out1 / "return_loss.csv").read_bytes() == (out2 / "return_loss.csv").read_bytes()
    gated = parse_touchstone((out1 / "gated_cable.s1p").read_text(), 1)
    mid = (gated.frequencies > 2e9) & (gated.frequencies < 20e9)
    np.testing.assert_allclose(np.abs(gated.values[mid]), 0.05, rtol=0.01)


def test_gate_atten_preset_splices_below_cutoff(tmp_path):
    tr = reflector_trace(WIDE, [(0.05, 0.0), (0.9, 2.15e-9)])
    in_path = write_trace(tmp_path / "atten.s1p", tr)
    cfg = tmp_path / "gate.json"
    cfg.write_text(json.dumps({"input": in_path}))
    out = tmp_path / "o"
    assert run(["gate", "--config", cfg, "--out", out, "--preset", "atten"]) == 0
    gated = parse_touchstone((out / "gated_atten.s1p").read_text(), 1)
    low = WIDE.frequencies < 200e6
    np.testing.assert_array_equal(gated.values[low], tr.values[low])


def test_extract_loss_pipeline(tmp_path):
    tr = shorted_line_trace(WIDE, 0.99)
    in_path = write_trace(tmp_path / "line.s1p", tr)
    cfg = tmp_path / "x.json"
    cfg.write_text(json.dumps({"input": in_path}))
    out = tmp_path / "o"
    assert run(["extract-loss", "--config", cfg, "--out", out]) == 0
    rows = (out / "insertion_loss.csv").read_text().splitlines()
    assert rows[0] == "freq_hz,s21_mag,loss_db"
    data = np.array([[float(x) for x in r.split(",")] for r in rows[1:]])
    mid = (data[:, 0] > 2e9) & (data[:, 0] < 20e9)
    assert np.max(np.abs(data[mid, 2] - 0.99)) < 0.05


def test_uncertainty_rows_mode(tmp_path):
    cfg = tmp_path / "u.json"
    cfg.write_text(
        json.dumps(
            {
                "rows": [
                    {"freq_ghz": 5, "s11": 0.019, "sigma": 0.006},
                    {"freq_ghz": 5, "s11": 0.022, "sigma": 0.006},
                    {"freq_ghz": 4, "s11": 0.003, "sigma": 0.006},
                ]
            }
        )
    )
    out = tmp_path / "o"
    assert run(["uncertainty", "--config", cfg, "--out", out]) == 0
    lines = (out / "return_loss_table.csv").read_text().splitlines()
    assert lines[1].endswith("35 +3/-2")
    assert lines[2].endswith("33 +3/-2")
    assert lines[3].endswith("*")  # lower bound only


def test_uncertainty_trace_mode(tmp_path):
    grid = aligned_grid(start_hz=1e9, step_hz=1e9, count=16)
    vals = np.full(grid.count, 0.019 + 0j)
    in_path = write_trace(tmp_path / "dut.s1p", ComplexTrace(grid=grid, values=vals))
    table = tmp_path / "ecal.csv"
    table.write_text("s11_db,sigma_linear\n0,0.002\n50,0.002\n")
    cfg = tmp_path / "u.json"
    cfg.write_text(
        json.dumps(
            {
                "input": in_path,
                "ecal_table": str(table),
                "sigma_switch_var": 0.005,
                "frequencies_ghz": [1, 2, 4, 5, 8],
            }
        )
    )
    out = tmp_path / "o"
    assert run(["uncertainty", "--config", cfg, "--out", out]) == 0
    lines = (out / "return_loss_table.csv").read_text().splitlines()
    assert len(lines) == 6
    first = lines[1].split(",")
    assert float(first[1]) == pytest.approx(0.019)
    assert float(first[2]) == pytest.approx(math.sqrt(0.002**2 + 0.005**2))


def test_uncertainty_include_rep_adds_the_repeatability_term(tmp_path):
    in_path = tmp_path / "ramp.s1p"
    in_path.write_text(s1p_records(range(1, 17)))  # |S11| = f / 1000 at f GHz
    table = tmp_path / "ecal.csv"
    table.write_text("s11_db,sigma_linear\n0,0.002\n70,0.009\n")  # sigma = 0.002 + 1e-4 per dB
    cfg = {"input": str(in_path), "ecal_table": str(table), "sigma_switch_var": 0.005,
           "sigma_switch_rep": 0.001, "include_rep": True, "frequencies_ghz": [1, 4, 16]}
    assert run_config(["uncertainty"], cfg, tmp_path) == (0, "")
    rows = [ln.split(",") for ln in (tmp_path / "out" / "return_loss_table.csv").read_text().splitlines()[1:]]
    assert [row[0] for row in rows] == ["1", "4", "16"]
    for f_ghz, row in zip((1, 4, 16), rows):
        ecal = 0.002 + 1e-4 * -20.0 * math.log10(f_ghz / 1000)
        assert float(row[2]) == pytest.approx(math.sqrt(ecal**2 + 0.005**2 + 0.001**2), rel=1e-8)
        assert float(row[2]) > math.sqrt(ecal**2 + 0.005**2) * (1 + 1e-3)


@pytest.mark.parametrize("include_rep", [True, False])
def test_negative_repeatability_is_config_error(tmp_path, include_rep):
    in_path = tmp_path / "ramp.s1p"
    in_path.write_text(s1p_records(range(1, 17)))
    cfg = dict(unc_config(tmp_path, in_path), sigma_switch_rep=-0.001, include_rep=include_rep, frequencies_ghz=[4])
    code, err = run_config(["uncertainty"], cfg, tmp_path)
    assert code == 2 and "sigma_switch_rep" in err and "Traceback" not in err, err


def unc_config(tmp_path, in_path):
    """The README ``unc.json`` keys, for a trace at ``in_path``."""
    table = tmp_path / "ecal.csv"
    table.write_text("s11_db,sigma_linear\n0,0.002\n50,0.002\n")
    return {"input": str(in_path), "ecal_table": str(table), "sigma_switch_var": 0.005,
            "frequencies_ghz": [1, 2, 4, 5, 8, 16]}


def test_uncertainty_zero_trace_is_data_error(tmp_path):
    grid = aligned_grid(start_hz=1e9, step_hz=1e9, count=16)
    in_path = write_trace(tmp_path / "zero.s1p", ComplexTrace(grid=grid, values=np.zeros(grid.count)))
    code, err = run_config(["uncertainty"], unc_config(tmp_path, in_path), tmp_path)
    assert code == 3 and "Traceback" not in err
    assert "1.0 GHz" in err and "zero.s1p" in err


def test_uncertainty_empty_frequencies_rejected(tmp_path):
    cfg = tmp_path / "u.json"
    cfg.write_text(json.dumps({"frequencies_ghz": [], "rows": []}))
    assert run(["uncertainty", "--config", cfg, "--out", tmp_path / "o"]) == 2


def test_fidelity_sweep_rl_outputs(tmp_path):
    cfg = tmp_path / "f.json"
    cfg.write_text(
        json.dumps(
            {
                "model": {"rl_db": 15, "length_m": 0.276},
                "axis": {"start": 12, "stop": 18, "count": 3},
                "duration_ns": 5,
            }
        )
    )
    out = tmp_path / "o"
    assert run(["fidelity", "sweep-rl", "--config", cfg, "--out", out, "--threads", 2]) == 0
    lines = (out / "sweep-rl.csv").read_text().splitlines()
    assert lines[0] == "axis_value,pair,one_minus_f"
    assert len(lines) == 4
    assert {l.split(",")[1] for l in lines[1:]} == {"".join(pair) for pair in XY_PAIR}  # the library's default
    devs = [float(l.split(",")[2]) for l in lines[1:]]
    assert devs[0] > devs[-1]
    cross = (out / "crossings.csv").read_text().splitlines()
    assert cross[0] == "pair,threshold,rl_db"
    assert len(cross) == 3


def test_fidelity_rl200_all_below_1e10(tmp_path):
    cfg = tmp_path / "f.json"
    cfg.write_text(
        json.dumps(
            {
                "model": {"rl_db": 200, "length_m": 0.276},
                "axis": {"start": 0.27, "stop": 0.28, "count": 2},
                "duration_ns": 5,
            }
        )
    )
    out = tmp_path / "o"
    assert run(["fidelity", "sweep-length", "--config", cfg, "--out", out]) == 0
    lines = (out / "sweep-length.csv").read_text().splitlines()[1:]
    assert all(float(l.split(",")[2]) < 1e-10 for l in lines)


def test_pulse_synth(tmp_path):
    cfg = tmp_path / "p.json"
    cfg.write_text(json.dumps({"gate": "X", "duration_ns": 5, "amplitude": 1.0}))
    out = tmp_path / "o"
    assert run(["pulse", "synth", "--config", cfg, "--out", out]) == 0
    lines = (out / "pulse.csv").read_text().splitlines()
    assert lines[0] == "time_s,amplitude"
    assert len(lines) == 10002  # 5 ns at dt/2 = 0.5 ps plus endpoint and header


def test_pulse_synth_whose_calibration_drifts_exits_4(tmp_path, capsys):
    # a 2.5 ns pi probe at a 10 ps step drifts by 1.8e-6 over the whole probe, 0.9e-6 over its half
    cfg = tmp_path / "p.json"
    cfg.write_text(json.dumps({"qubit": {"dt_ps": 10}, "gate": "X", "duration_ns": 2.5}))
    assert run(["pulse", "synth", "--config", cfg, "--out", tmp_path / "o"]) == 4
    assert "norm drift 1.824e-06 exceeds 1e-6" in capsys.readouterr().err


def test_malformed_json_reports_location(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{broken")
    assert run(["gate", "--config", cfg, "--out", tmp_path / "o"]) == 2
    assert "line 1" in capsys.readouterr().err


def test_unparseable_touchstone_is_data_error(tmp_path):
    bad = tmp_path / "bad.s1p"
    bad.write_text("# Hz S RI R 50\n1e9 0.1 zzz\n")
    cfg = tmp_path / "g.json"
    cfg.write_text(json.dumps({"input": str(bad), "preset": "connector"}))
    assert run(["gate", "--config", cfg, "--out", tmp_path / "o"]) == 3


def test_overflowing_db_touchstone_is_data_error(tmp_path, capsys):
    # 10 ** (1e6 / 20) overflows; the value is a data error, not a crash
    bad = tmp_path / "loud.s1p"
    bad.write_text("# Hz S DB R 50\n1e9 1e6 0\n2e9 0 0\n")
    cfg = tmp_path / "g.json"
    cfg.write_text(json.dumps({"input": str(bad), "preset": "connector"}))
    assert run(["gate", "--config", cfg, "--out", tmp_path / "o"]) == 3
    assert "non-finite" in capsys.readouterr().err


def test_overflowing_db_touchstone_raises_no_numpy_warning(tmp_path, capsys):
    bad = tmp_path / "loud.s1p"
    bad.write_text("# Hz S DB R 50\n1e9 1e6 0\n2e9 0 0\n")
    cfg = tmp_path / "g.json"
    cfg.write_text(json.dumps({"input": str(bad), "preset": "connector"}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(["gate", "--config", cfg, "--out", tmp_path / "o"])
    err = capsys.readouterr().err
    assert code == 3 and "non-finite" in err and "Warning" not in err


@pytest.mark.parametrize(
    "argv, cfg",
    [
        (["gate"], {"preset": "connector"}),
        (["extract-loss"], {}),
        (["pulse", "synth"], {"gate": "X", "duration_ns": 5, "amplitude": 1e305, "model": {"length_m": 0.276}}),
    ],
    ids=["gate", "extract-loss", "pulse-synth"],
)
def test_finite_input_whose_transform_overflows_is_one_data_error_line(argv, cfg, tmp_path, capsys):
    # every value is finite, but the time-domain transforms (gate, extract-loss) and the pulse's
    # H[x] (a pulse through a model) overflow; the finite-value checks report that, numpy warns nothing
    if argv[0] != "pulse":
        huge = tmp_path / "huge.s1p"
        huge.write_text("# Hz S RI R 50\n" + "".join(f"{k}e9 1e307 1e307\n" for k in range(1, 17)))
        cfg = {"input": str(huge), **cfg}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run([*argv, "--config", path, "--out", tmp_path / "o"])
    err = capsys.readouterr().err
    assert code == 3 and err.startswith("cryocal: data error: ") and err.count("\n") == 1, err


def test_fourier_response_window_without_samples_is_data_error(tmp_path, capsys):
    # a 1 um line needs a 0.08 ps response window, under one 1 ps sample
    cfg = tmp_path / "f.json"
    cfg.write_text(json.dumps({
        "qubit": {"f_q_ghz": 5.0, "dt_ps": 1.0},
        "model": {"rl_db": 15.0, "length_m": 1e-6, "v_p_over_c": 0.7, "max_reflections": 5},
        "axis": {"start": 6.0, "stop": 20.0, "count": 2},
        "duration_ns": 5.0,
        "pairs": [["X", "Y"]],
        "method": "fourier",
    }))
    code = run(["fidelity", "sweep-rl", "--config", cfg, "--out", tmp_path / "o"])
    err = capsys.readouterr().err
    assert code == 3 and "window_s" in err and "f_max_hz" in err and "Traceback" not in err


def test_unknown_preset_is_config_error(tmp_path):
    tr = reflector_trace(aligned_grid(count=64), [(0.5, 1e-9)])
    in_path = write_trace(tmp_path / "t.s1p", tr)
    cfg = tmp_path / "g.json"
    cfg.write_text(json.dumps({"input": in_path, "preset": "bogus"}))
    assert run(["gate", "--config", cfg, "--out", tmp_path / "o"]) == 2


def test_import_loads_no_scipy():
    src = str(Path(cryocal.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import cryocal, cryocal.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_cli_module_runs_as_a_script():
    src = str(Path(cryocal.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-m", "cryocal.cli", "--version"], capture_output=True, text=True, env=env)
    assert (out.returncode, out.stdout, out.stderr) == (0, "cryocal 0.1.0\n", ""), out


def fidelity_config(tmp_path, **overrides):
    cfg = tmp_path / "f.json"
    base = {"model": {"rl_db": 15, "length_m": 0.276}, "axis": {"start": 12, "stop": 18, "count": 2}}
    cfg.write_text(json.dumps({**base, **overrides}))
    return cfg


def test_cli_defaults_are_the_library_types_own():
    assert _mismatch_model({"length_m": 0.276}) == MismatchModel(15.0, 15.0, 0.276)
    # 3 * 1e-9 is the CLI's ns -> s conversion; it is one ulp above the literal 3e-9
    assert _gate_from_config({"gate": {"center_ns": 0, "span_ns": 3}}, None) == GateSpec(0.0, 3 * 1e-9)


def test_fidelity_unknown_gate_name_is_config_error(tmp_path, capsys):
    cfg = fidelity_config(tmp_path, pairs=[["X", "Z"]])
    assert run(["fidelity", "sweep-rl", "--config", cfg, "--out", tmp_path / "o"]) == 2
    assert "pairs" in capsys.readouterr().err


@pytest.mark.parametrize("count", ["x", 0, -1, 2.5, True])
def test_fidelity_bad_axis_count_is_config_error(tmp_path, capsys, count):
    cfg = fidelity_config(tmp_path, axis={"start": 12, "stop": 18, "count": count})
    assert run(["fidelity", "sweep-rl", "--config", cfg, "--out", tmp_path / "o"]) == 2
    assert "axis.count" in capsys.readouterr().err


def test_non_ascii_touchstone_is_data_error(tmp_path, capsys):
    bad = tmp_path / "bad.s1p"
    bad.write_bytes("# Hz S RI R 50\n! caf\u00e9\n1e9 0.1 0\n2e9 0.1 0\n".encode("latin-1"))
    cfg = tmp_path / "g.json"
    cfg.write_text(json.dumps({"input": str(bad), "preset": "connector"}))
    assert run(["gate", "--config", cfg, "--out", tmp_path / "o"]) == 3
    err = capsys.readouterr().err
    assert "line 2" in err and "bad.s1p" in err


def test_cal_parse_error_names_the_standard_file(cal_setup, tmp_path, capsys):
    cfg_path, _ = cal_setup
    measured = Path(json.loads(cfg_path.read_text())["standards"]["open"]["measured"])
    measured.write_text(measured.read_text().replace("R 50", "R nan", 1))
    assert run(["cal", "--config", cfg_path, "--out", tmp_path / "o"]) == 3
    err = capsys.readouterr().err
    assert f"{measured}, line 1: reference impedance must be a finite positive resistance" in err, err


def test_infinite_last_frequency_is_data_error_naming_the_file(tmp_path, capsys):
    bad = tmp_path / "inf.s1p"
    bad.write_text("# Hz S RI R 50\n1e9 0.1 0\ninf 0.1 0\n")
    cfg = tmp_path / "g.json"
    cfg.write_text(json.dumps({"input": str(bad), "preset": "connector"}))
    assert run(["gate", "--config", cfg, "--out", tmp_path / "o"]) == 3
    err = capsys.readouterr().err
    assert f"{bad}, frequencies must be finite" in err and "Traceback" not in err, err


def test_cal_overflowing_db_standard_names_the_file(cal_setup, tmp_path, capsys):
    cfg_path, _ = cal_setup
    measured = Path(json.loads(cfg_path.read_text())["standards"]["short"]["measured"])
    measured.write_text("# Hz S DB R 50\n1e9 1e6 0\n2e9 0 0\n")
    assert run(["cal", "--config", cfg_path, "--out", tmp_path / "o"]) == 3
    err = capsys.readouterr().err
    assert f"{measured}, trace contains non-finite values" in err and "Traceback" not in err, err


def test_ecal_bad_byte_line_follows_splitlines(valid, tmp_path):
    # \r ends a line both for the row numbers and for the bad byte's line
    argv, cfg = valid[1]["uncertainty-trace"]
    path = tmp_path / "ecal.csv"
    path.write_bytes(b"s11_db,sigma_linear\r0,0.002\r5\xff0,0.002\r")
    code, err = run_config(argv, dict(cfg, ecal_table=str(path)), tmp_path)
    assert code == 2 and "ecal.csv, line 3: byte 0xff at offset 29 is not UTF-8" in err, err


def test_ecal_table_without_header_keeps_exponent_first_row(tmp_path):
    table = tmp_path / "ecal.csv"
    table.write_text("-4e1,0.003\n-10,0.002\n-5,0.002\n")
    assert list(_read_ecal_table(table).s11_db) == [-40.0, -10.0, -5.0]


# ------------------------------------------------ config checks and fuzzing

DROP = object()


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """Small valid (argv, config) per subcommand, with the files they name."""
    d = tmp_path_factory.mktemp("valid")
    grid = aligned_grid(count=64)
    box = constant_error_model(grid, 0.1 + 0.02j, 0.2 - 0.05j, -0.79 + 0.01j)
    standards = {}
    for name, gamma in (("short", -1.0), ("open", 1.0), ("load", 0.001)):
        tr = ComplexTrace(grid=grid, values=np.full(grid.count, gamma + 0j))
        standards[name] = {
            "defined": write_trace(d / f"{name}_def.s1p", tr),
            "measured": write_trace(d / f"{name}_meas.s1p", forward_model(box, tr)),
        }
    wide = aligned_grid(start_hz=2.5e7, step_hz=2.5e7, count=800)
    cable = write_trace(d / "cable.s1p", reflector_trace(wide, [(0.05, 0.0), (0.9, 2.15e-9)]))
    line = write_trace(d / "line.s1p", shorted_line_trace(wide, 0.99))
    ecal = d / "ecal.csv"
    ecal.write_text("s11_db,sigma_linear\n0,0.002\n50,0.002\n")
    qubit = {"f_q_ghz": 5.0, "dt_ps": 1.0}
    model = {"rl_db": 15, "length_m": 0.276, "v_p_over_c": 0.7, "max_reflections": 5}
    return d, {
        "cal": (["cal"], {"standards": standards, "duts": [standards["open"]["measured"]]}),
        "gate": (["gate"], {"input": cable, "gate": {"center_ns": 0, "span_ns": 3, "kaiser_beta": 6, "splice": False}}),
        "extract-loss": (["extract-loss"], {"input": line, "preset": "through-short"}),
        "uncertainty-rows": (["uncertainty"], {"rows": [{"freq_ghz": 5, "s11": 0.019, "sigma": 0.006}]}),
        "uncertainty-trace": (
            ["uncertainty"],
            {"input": cable, "ecal_table": str(ecal), "sigma_switch_var": 0.005, "sigma_switch_rep": 0.001,
             "include_rep": False, "frequencies_ghz": [1, 5]},
        ),
        "fidelity": (
            ["fidelity", "sweep-rl"],
            {"qubit": qubit, "model": model, "axis": {"start": 12, "stop": 18, "count": 2},
             "duration_ns": 5, "pairs": [["X", "Y"]], "method": "taps"},
        ),
        "pulse": (["pulse", "synth"], {"qubit": qubit, "gate": "X", "duration_ns": 5, "amplitude": 1e9, "model": model}),
    }


def mutated(cfg, path, value):
    """Copy of ``cfg`` with the key at ``path`` set to ``value``, or removed for DROP."""
    cfg = copy.deepcopy(cfg)
    node = cfg
    for key in path[:-1]:
        node = node[key]
    if value is DROP:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return cfg


def key_paths(node, prefix=()):
    """Every key path of a JSON tree, blocks and list elements included."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from key_paths(value, prefix + (key,))


def run_config(argv, cfg, work):
    path = work / "config.json"
    path.write_text(json.dumps(cfg))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([*argv, "--config", str(path), "--out", str(work / "out")])
    return code, err.getvalue()


def test_pulse_model_with_a_vanishing_direct_tap_is_config_error(valid, tmp_path):
    # rl_db = 1e-17 rounds the reflection magnitude to 1.0: the element reflects
    # totally, its through-attenuation (1 - a)(1 - b) is 0, and MismatchModel rejects it
    argv, cfg = valid[1]["pulse"]
    code, err = run_config(argv, dict(cfg, model=dict(cfg["model"], rl_db=1e-17)), tmp_path)
    assert code == 2 and "model.rl_db: rl1_db = 1e-17 dB rounds the reflection magnitude to 1.0" in err, err
    assert "Traceback" not in err, err


@pytest.mark.parametrize("method", ["taps", "fourier"])
def test_fidelity_model_that_reflects_totally_is_config_error(valid, tmp_path, method):
    # rejected where the model is built, before either method builds its response
    _, cfg = valid[1]["fidelity"]
    cfg = dict(cfg, method=method, model=dict(cfg["model"], rl2_db=1e-17), axis={"start": 0.27, "stop": 0.28, "count": 2})
    code, err = run_config(["fidelity", "sweep-length"], cfg, tmp_path)
    assert code == 2 and "model.rl2_db = 1e-17 dB rounds the reflection magnitude to 1.0" in err, err
    assert "Traceback" not in err, err


# (subcommand, changed keys, exit code): each run asks for more samples than numpy
# can allocate, a request numpy rejects before it allocates anything
OVERSIZED = [
    ("pulse", {("duration_ns",): 1e30}, 2),
    ("pulse", {("qubit", "dt_ps"): 1e-300}, 2),
    ("fidelity", {("model", "length_m"): 1e300}, 3),
    ("fidelity", {("model", "v_p_over_c"): 1e-300}, 3),
    ("fidelity", {("model", "length_m"): 1e300, ("method",): "fourier"}, 3),
    ("fidelity", {("axis", "count"): 10**20}, 2),
    ("fidelity", {("model", "max_reflections"): 10**20}, 2),
]


@pytest.mark.parametrize("name,changes,code", OVERSIZED)
def test_oversized_sample_count_is_an_error_naming_it(valid, tmp_path, name, changes, code):
    argv, cfg = valid[1][name]
    for path, value in changes.items():
        cfg = mutated(cfg, path, value)
    got, err = run_config(argv, cfg, tmp_path)
    assert got == code and "samples, more than numpy can allocate" in err and "Traceback" not in err, err


def test_oversized_axis_count_names_the_key(valid, tmp_path):
    argv, cfg = valid[1]["fidelity"]
    got, err = run_config(argv, mutated(cfg, ("axis", "count"), 10**20), tmp_path)
    assert got == 2 and err == "cryocal: config error: axis.count needs 1e+20 samples, more than numpy can allocate\n", err


@pytest.mark.parametrize(
    "name,changes,count",
    [("fidelity", {("duration_ns",): 1e300}, "4e+303"), ("fidelity", {("qubit", "dt_ps"): 1e-290}, "2e+294"),
     ("fidelity", {("duration_ns",): 1e300, ("pairs",): [["X", "Y90", "Y"]]}, "6e+303"),
     ("pulse", {("duration_ns",): 1e300}, "2e+303")],
    ids=["fidelity-duration", "fidelity-dt", "fidelity-three-gates", "pulse-duration"],
)
def test_oversized_drive_names_duration_ns(valid, tmp_path, name, changes, count):
    # the longest gate sequence's drive, judged with the request before anything is calibrated
    argv, cfg = valid[1][name]
    for path, value in changes.items():
        cfg = mutated(cfg, path, value)
    got, err = run_config(argv, cfg, tmp_path)
    assert got == 2 and err.startswith("cryocal: config error: duration_ns: duration_s = "), err
    assert err.endswith(f" needs {count} samples, more than numpy can allocate\n"), err


def test_calibration_that_does_not_converge_is_a_numeric_failure(tmp_path, monkeypatch):
    cycling_pi_calibration(monkeypatch)
    got, err = run_config(["pulse", "synth"], {"gate": "X", "duration_ns": 5}, tmp_path)
    assert (got, err) == (4, "cryocal: numeric failure: calibration did not converge in 20 Newton steps\n")


def test_out_of_memory_is_a_numeric_failure_not_a_traceback(valid, tmp_path, monkeypatch):
    # a size numpy accepts but the host cannot hold; the allocator's refusal is
    # raised by a stand-in, so the test allocates nothing
    def refuse(*args):
        raise MemoryError("Unable to allocate 4.22 TiB for an array with shape (580000000001,) and data type float64")

    monkeypatch.setattr(cryocal.cli, "synth_gate_pulse", refuse)
    argv, cfg = valid[1]["pulse"]
    got, err = run_config(argv, cfg, tmp_path)
    assert got == 4 and "Traceback" not in err, err
    assert err.startswith("cryocal: out of memory: the run needs more memory than this host has: Unable to allocate 4.22 TiB")


@pytest.mark.parametrize("name", ["cal", "gate", "extract-loss", "uncertainty-rows", "uncertainty-trace", "fidelity", "pulse"])
def test_small_configs_are_valid(valid, name, tmp_path):
    argv, cfg = valid[1][name]
    assert run_config(argv, cfg, tmp_path) == (0, "")
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    config = tmp_path / "config.json"
    assert manifest["command"] == " ".join(argv)
    assert manifest["inputs"]["config"] == {"path": str(config), "sha256": hashlib.sha256(config.read_bytes()).hexdigest()}


# (subcommand, key path, bad value, text the message must contain)
BAD_VALUES = [
    ("fidelity", ("duration_ns",), "x", "duration_ns"),
    ("fidelity", ("duration_ns",), 0, "duration_ns"),
    ("fidelity", ("duration_ns",), math.nan, "duration_ns"),
    ("fidelity", ("duration_ns",), 10**400, "duration_ns"),
    ("fidelity", ("method",), "foo", "method"),
    ("fidelity", ("pairs",), [], "pairs"),
    ("fidelity", ("pairs",), [[]], "pairs"),
    ("fidelity", ("model", "rl_db"), -1, "model.rl_db"),
    ("fidelity", ("model",), [1], "model"),
    ("fidelity", ("model", "length_m"), -1, "length_m"),
    ("fidelity", ("model", "length_m"), math.inf, "model.length_m"),
    ("fidelity", ("model", "length_m"), True, "model.length_m"),
    ("fidelity", ("model", "length_m"), "0.276", "model.length_m"),
    ("fidelity", ("model", "v_p_over_c"), 2, "model.v_p_over_c"),
    ("fidelity", ("model", "max_reflections"), "x", "model.max_reflections"),
    ("fidelity", ("model", "max_reflections"), 2.7, "model.max_reflections"),
    ("fidelity", ("qubit", "dt_ps"), 100, "qubit.dt_ps"),
    ("fidelity", ("qubit", "dt_ps"), 0, "qubit.dt_ps"),
    ("fidelity", ("qubit", "f_q_ghz"), 1e300, "qubit.f_q_ghz"),
    ("fidelity", ("axis", "start"), "a", "axis.start"),
    ("fidelity", ("axis", "start"), -5, "axis.start"),
    ("fidelity", ("axis", "start"), 1e-17, "axis.start"),
    ("pulse", ("gate",), "Z", "gate"),
    ("pulse", ("amplitude",), "x", "amplitude"),
    ("pulse", ("duration_ns",), 0.001, "duration_ns"),
    ("gate", ("input",), 5, "input"),
    ("gate", ("gate", "span_ns"), "x", "gate.span_ns"),
    ("gate", ("gate", "span_ns"), 0, "gate.span_ns"),
    ("gate", ("gate", "splice"), "false", "gate.splice"),
    ("gate", ("gate", "kaiser_beta"), 1000, "gate.kaiser_beta"),
    ("uncertainty-rows", ("rows",), [1], "rows[0]"),
    ("uncertainty-rows", ("rows", 0, "s11"), "x", "rows[0].s11"),
    ("uncertainty-rows", ("rows", 0, "s11"), -0.1, "rows[0].s11"),
    ("uncertainty-rows", ("rows", 0, "s11"), 0, "rows[0].s11"),
    ("uncertainty-rows", ("rows", 0, "sigma"), -0.006, "rows[0].sigma"),
    ("uncertainty-trace", ("include_rep",), 1, "include_rep"),
    ("uncertainty-trace", ("sigma_switch_var",), True, "sigma_switch_var"),
    ("cal", ("standards",), 5, "standards"),
]


@pytest.mark.parametrize(
    "name,path,value,text", BAD_VALUES, ids=[f"{n}:{'.'.join(map(str, p))}={v!r:.12}" for n, p, v, _ in BAD_VALUES]
)
def test_bad_config_value_is_config_error(valid, tmp_path, name, path, value, text):
    argv, cfg = valid[1][name]
    code, err = run_config(argv, mutated(cfg, path, value), tmp_path)
    assert code == 2 and "Traceback" not in err
    assert "config error" in err and text in err


# (subcommand, key path, bad value, message after "config error: "): qubitsim's request judge and
# MismatchModel reject each value, and the CLI names its key before anything is calibrated
BAD_REQUESTS = [
    ("fidelity", ("pairs",), [], "pairs must be non-empty"),
    ("fidelity", ("pairs",), [[]], "pairs must be non-empty"),
    ("fidelity", ("pairs",), [["X", "Z"]], "pairs must be non-empty"),
    ("fidelity", ("method",), "foo", "method must be 'taps' or 'fourier', got 'foo'"),
    ("fidelity", ("duration_ns",), 0, "duration_ns: duration_s must exceed 10 integrator steps"),
    ("pulse", ("duration_ns",), 0.001, "duration_ns: duration_s must exceed 10 integrator steps"),
    ("fidelity", ("model", "rl_db"), -1, "model.rl_db: rl1_db must be > 0 dB, got -1.0"),
]


@pytest.mark.parametrize(
    "name,path,value,message", BAD_REQUESTS, ids=[f"{n}:{'.'.join(map(str, p))}={v!r:.12}" for n, p, v, _ in BAD_REQUESTS]
)
def test_bad_request_value_is_named_before_calibrating(valid, tmp_path, monkeypatch, name, path, value, message):
    monkeypatch.setattr(cryocal.qubitsim, "calibrated_amplitudes", lambda *a: pytest.fail("calibrated a rejected request"))
    argv, cfg = valid[1][name]
    cfg = {key: v for key, v in cfg.items() if key != "amplitude"}  # so the pulse is calibrated too
    with pytest.raises(pytest.fail.Exception, match="calibrated a rejected request"):
        run_config(argv, cfg, tmp_path)  # the unchanged config reaches calibration
    code, err = run_config(argv, mutated(cfg, path, value), tmp_path)
    assert code == 2 and f"cryocal: config error: {message}" in err and "Traceback" not in err, err


@pytest.mark.parametrize(
    "mode,end,value,message",
    [
        ("sweep-rl", "start", 1e-17, "axis.start: rl1_db = 1e-17 dB rounds the reflection magnitude to 1.0"),
        ("sweep-length", "stop", -1, "axis.stop: length_m must be finite and > 0, got -1.0"),
    ],
    ids=["rl-start-total-reflection", "length-stop-negative"],
)
def test_swept_axis_end_is_judged_by_the_model(valid, tmp_path, monkeypatch, mode, end, value, message):
    # the template model judges both ends as the mode's swept fields, before any sweep runs
    sweep = "sweep_length" if mode == "sweep-length" else "sweep_return_loss"
    monkeypatch.setattr(cryocal.cli, sweep, lambda *a: pytest.fail("swept an axis the model rejects"))
    _, cfg = valid[1]["fidelity"]
    axis = {"start": 0.27, "stop": 0.28, "count": 2} if mode == "sweep-length" else cfg["axis"]
    code, err = run_config(["fidelity", mode], dict(cfg, axis=dict(axis, **{end: value})), tmp_path)
    assert code == 2 and f"config error: {message}" in err and "Traceback" not in err, err


def test_missing_config_file_is_config_error(tmp_path, capsys):
    assert run(["gate", "--config", tmp_path / "absent.json", "--out", tmp_path / "o"]) == 2
    err = capsys.readouterr().err
    assert f"config file not found: {tmp_path / 'absent.json'}" in err and "Traceback" not in err, err


def test_top_level_json_array_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "list.json"
    cfg.write_text('[{"input": "x.s1p"}]\n')
    assert run(["gate", "--config", cfg, "--out", tmp_path / "o"]) == 2
    err = capsys.readouterr().err
    assert f"{cfg}: top-level JSON value must be an object" in err and "Traceback" not in err, err


def test_ecal_row_with_three_cells_is_config_error(valid, tmp_path):
    argv, cfg = valid[1]["uncertainty-trace"]
    table = tmp_path / "ecal.csv"
    table.write_text("s11_db,sigma_linear\n0,0.002\n50,0.002,7\n")
    code, err = run_config(argv, dict(cfg, ecal_table=str(table)), tmp_path)
    assert code == 2 and "Traceback" not in err, err
    assert f"{table}, line 3: expected two columns (s11_db,sigma_linear), got '50,0.002,7'" in err, err


def test_non_utf8_config_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "g.json"
    cfg.write_bytes(b'{"input": "x.s1p",\n "preset": "conn\xffector"}\n')
    assert run(["gate", "--config", cfg, "--out", tmp_path / "o"]) == 2
    err = capsys.readouterr().err
    assert "g.json, line 2: byte 0xff at offset 35 is not UTF-8" in err and "Traceback" not in err


def test_non_numeric_ecal_cell_is_config_error(valid, tmp_path):
    argv, cfg = valid[1]["uncertainty-trace"]
    table = tmp_path / "ecal.csv"
    table.write_text("s11_db,sigma_linear\n0,0.002\n\n50,x\n")
    code, err = run_config(argv, dict(cfg, ecal_table=str(table)), tmp_path)
    assert code == 2 and "ecal.csv, line 4" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "row", ["3_0,0.002", "30,0.00_2", "\u0663\u0660,0.002"], ids=["separator", "fraction-separator", "arabic-indic"]
)
def test_ecal_cell_outside_the_touchstone_number_grammar_is_config_error(valid, tmp_path, row):
    # Python's float reads 30, 0.002 and 30; the Touchstone grammar reads none of them
    argv, cfg = valid[1]["uncertainty-trace"]
    table = tmp_path / "ecal.csv"
    table.write_text(f"s11_db,sigma_linear\n0,0.002\n{row}\n50,0.002\n", encoding="utf-8")
    code, err = run_config(argv, dict(cfg, ecal_table=str(table)), tmp_path)
    assert code == 2 and f"{table}, line 3: non-numeric cell in {row!r}" in err and "Traceback" not in err, err


@pytest.mark.parametrize(
    "first", ["3_0,0.002", "s11_db,0.002", "30,sigma"], ids=["separator", "one-header-cell", "numeric-first-cell"]
)
def test_ecal_first_line_with_a_numeric_cell_is_a_row_not_a_header(valid, tmp_path, first):
    # a header has no numeric cell, so a first line with one is a row, judged like any other
    argv, cfg = valid[1]["uncertainty-trace"]
    table = tmp_path / "ecal.csv"
    table.write_text(f"{first}\n10,0.003\n50,0.002\n")
    code, err = run_config(argv, dict(cfg, ecal_table=str(table)), tmp_path)
    assert code == 2 and f"{table}, line 1: non-numeric cell in {first!r}" in err and "Traceback" not in err, err


@pytest.mark.parametrize("header", ["s11_db,sigma_linear", "s11_db,,sigma", "s11 db, sigma linear"])
def test_ecal_first_line_without_a_numeric_cell_is_a_header(tmp_path, header):
    table = tmp_path / "ecal.csv"
    table.write_text(f"{header}\n10,0.003\n50,0.002\n")
    assert list(_read_ecal_table(table).s11_db) == [10.0, 50.0]


FUZZ_VALUES = (DROP, None, "x", True, [1], {"a": 1}, math.nan, math.inf, -math.inf, -1, 0, 1e300, 1e-300)


@pytest.mark.parametrize("name", ["cal", "gate", "extract-loss", "uncertainty-rows", "uncertainty-trace", "fidelity", "pulse"])
@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_mutated_config_keeps_exit_code_contract(valid, name, data):
    # One field is dropped, nulled, given another type or a NaN, infinite,
    # negative, zero, huge or tiny value; none of these raises the work a run does.
    work, configs = valid
    argv, cfg = configs[name]
    path = data.draw(st.sampled_from(list(key_paths(cfg))), label="path")
    value = data.draw(st.sampled_from(FUZZ_VALUES), label="value")
    code, err = run_config(argv, mutated(cfg, path, value), work)
    assert code in (0, 2, 3, 4) and "Traceback" not in err


# ------------------------------------------------------- input-file fuzzing

@pytest.fixture(scope="module")
def s1p_work(tmp_path_factory):
    return tmp_path_factory.mktemp("s1p")


def test_unmutated_s1p_is_valid(s1p_work):
    in_path = s1p_work / "valid.s1p"
    in_path.write_text("\n".join(S1P_LINES) + "\n")
    assert run_config(["gate"], {"input": str(in_path), "preset": "connector"}, s1p_work) == (0, "")
    assert run_config(["uncertainty"], unc_config(s1p_work, in_path), s1p_work) == (0, "")


@pytest.mark.parametrize("kind", FILE_MUTATIONS)
@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_mutated_s1p_keeps_exit_code_contract(s1p_work, kind, data):
    in_path = s1p_work / "trace.s1p"
    in_path.write_bytes(mutated_s1p(kind, data))
    for argv, cfg in ((["gate"], {"input": str(in_path), "preset": "connector"}),
                      (["uncertainty"], unc_config(s1p_work, in_path))):
        code, err = run_config(argv, cfg, s1p_work)
        assert code in (0, 2, 3, 4) and "Traceback" not in err, (argv, err)


def s1p_records(freqs_ghz):
    """A one-port RI file with |S11| = f / 1000 at each f GHz, i.e. 0.004 at 4 GHz."""
    return "\n".join(["# Hz S RI R 50"] + [f"{f}e9 {f / 1000:g} 0" for f in freqs_ghz]) + "\n"


def test_uncertainty_non_uniform_trace_reads_the_requested_points(tmp_path):
    # 1-16 GHz without the 3 GHz record: the fitted grid's 4 GHz point is not a record
    in_path = tmp_path / "gap.s1p"
    in_path.write_text(s1p_records([k for k in range(1, 17) if k != 3]))
    cfg = dict(unc_config(tmp_path, in_path), frequencies_ghz=[4, 8])
    assert run_config(["uncertainty"], cfg, tmp_path) == (0, "")
    lines = (tmp_path / "out" / "return_loss_table.csv").read_text().splitlines()
    assert [ln.split(",")[:2] for ln in lines[1:]] == [["4", "0.004"], ["8", "0.008"]]


@pytest.mark.parametrize("last", ["inf", "nan"])
def test_non_finite_frequency_is_data_error(tmp_path, last):
    in_path = tmp_path / "bad.s1p"
    in_path.write_text(s1p_records(range(1, 16)) + f"{last} 0.016 0\n")
    for argv, cfg in ((["gate"], {"input": str(in_path), "preset": "connector"}),
                      (["uncertainty"], dict(unc_config(tmp_path, in_path), frequencies_ghz=[1, 4, 8]))):
        code, err = run_config(argv, cfg, tmp_path)
        assert code == 3 and "finite" in err and "Traceback" not in err, (argv, err)


@pytest.mark.parametrize("table", ["s11_db,sigma_linear\n0,0.002\n50,nan\n", "0,inf\n50,inf\n", "0,0.002\ninf,0.002\n"])
def test_non_finite_ecal_entry_is_config_error(valid, tmp_path, table):
    argv, cfg = valid[1]["uncertainty-trace"]
    path = tmp_path / "ecal.csv"
    path.write_text(table)
    code, err = run_config(argv, dict(cfg, ecal_table=str(path)), tmp_path)
    assert code == 2 and "finite" in err and "Traceback" not in err


ECAL_LINES = ["s11_db,sigma_linear", "0,0.002", "10,0.003", "30,0.002", "50,0.002"]
ECAL_MUTATIONS = ("drop", "duplicate", "swap", "token", "non-ascii")


@pytest.mark.parametrize("kind", ECAL_MUTATIONS)
@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_mutated_ecal_table_keeps_exit_code_contract(s1p_work, kind, data):
    # One row of the ECal table is dropped, duplicated or swapped with
    # another, or one cell (header included) becomes a TOKEN_VALUES entry,
    # or one byte 0x80-0xFF, which alone is never UTF-8, is inserted.
    lines = list(ECAL_LINES)
    i = data.draw(st.integers(0 if kind in ("token", "non-ascii") else 1, len(lines) - 1), label="line")
    if kind == "non-ascii":
        at = data.draw(st.integers(0, len(lines[i])), label="at")
        lines[i] = lines[i][:at] + chr(data.draw(st.integers(0x80, 0xFF), label="byte")) + lines[i][at:]
    elif kind == "drop":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(i, lines[i])
    elif kind == "swap":
        j = data.draw(st.integers(1, len(lines) - 1), label="other")
        lines[i], lines[j] = lines[j], lines[i]
    elif kind == "token":
        cells = lines[i].split(",")
        cells[data.draw(st.integers(0, 1), label="cell")] = data.draw(st.sampled_from(TOKEN_VALUES), label="value")
        lines[i] = ",".join(cells)
    in_path = s1p_work / "ecal_dut.s1p"
    in_path.write_text("\n".join(S1P_LINES) + "\n")
    table = s1p_work / "ecal_mutated.csv"
    table.write_bytes(("\n".join(lines) + "\n").encode("latin-1"))
    cfg = dict(unc_config(s1p_work, in_path), ecal_table=str(table))
    code, err = run_config(["uncertainty"], cfg, s1p_work)
    assert code in (0, 2, 3, 4) and "Traceback" not in err, err
    if kind == "non-ascii":
        assert code == 2 and f"ecal_mutated.csv, line {i + 1}: byte" in err, err


# ------------------------------------------------------ CSV text contract


def test_empty_rows_give_a_header_only_table(tmp_path):
    assert run_config(["uncertainty"], {"rows": []}, tmp_path) == (0, "")
    text = (tmp_path / "out" / "return_loss_table.csv").read_text()
    assert text == "freq_ghz,s11_linear,sigma_rss,rl_db,upper_db,lower_db,display\n"


def test_row_whose_worse_bound_overflows_is_a_config_error(tmp_path):
    cfg = {"rows": [{"freq_ghz": 5, "s11": 1e308, "sigma": 1e308}]}
    code, err = run_config(["uncertainty"], cfg, tmp_path)
    assert (code, err) == (2, "cryocal: config error: rows[0].sigma: sigma_rss must be >= 0 with s11_linear + sigma_rss "
                              "finite, got 1e+308\n")


def test_zero_reflection_has_infinite_return_loss(tmp_path):
    grid = aligned_grid(start_hz=2.5e7, step_hz=2.5e7, count=64)
    in_path = write_trace(tmp_path / "zero.s1p", ComplexTrace(grid=grid, values=np.zeros(grid.count)))
    assert run_config(["gate"], {"input": in_path, "preset": "connector"}, tmp_path) == (0, "")
    lines = (tmp_path / "out" / "return_loss.csv").read_text().splitlines()
    assert lines[0] == "freq_hz,s11_mag,rl_db"
    assert lines[1:] == [f"{'%.9g' % f},0,inf" for f in grid.frequencies]


def test_lower_bound_only_row_has_infinite_upper_bar(tmp_path):
    cfg = {"rows": [{"freq_ghz": 4, "s11": 0.003, "sigma": 0.006}]}
    assert run_config(["uncertainty"], cfg, tmp_path) == (0, "")
    row = (tmp_path / "out" / "return_loss_table.csv").read_text().splitlines()[1].split(",")
    assert row[:3] == ["4", "0.003", "0.006"]
    assert row[4] == "inf" and row[6] == "50 +inf/-10*"


def test_two_pair_sweep_rows_follow_the_in_process_result(tmp_path):
    pairs = [["X", "Y"], ["X90", "Y90"]]
    cfg = {"model": {"length_m": 0.276}, "axis": {"start": 30, "stop": 40, "count": 2}, "duration_ns": 5, "pairs": pairs}
    assert run_config(["fidelity", "sweep-rl"], cfg, tmp_path) == (0, "")
    model = MismatchModel(rl1_db=15.0, rl2_db=15.0, length_m=0.276, v_p=0.7 * C_VACUUM, max_reflections=5)
    params = QubitParams(2.0 * math.pi * 5.0 * 1e9, 1.0 * 1e-12)
    result = sweep_return_loss(model, np.linspace(30.0, 40.0, 2), 5e-9, params, pairs)
    sweep = (tmp_path / "out" / "sweep-rl.csv").read_text().splitlines()
    assert sweep[1:] == [  # axis-major
        "%.9g,%s,%.9g" % (value, "".join(pair), result.deviation[i, j])
        for i, value in enumerate(result.axis) for j, pair in enumerate(pairs)
    ]
    assert np.all(result.deviation < min(CROSSING_THRESHOLDS))  # so no threshold is crossed
    cross = (tmp_path / "out" / "crossings.csv").read_text().splitlines()
    assert cross[1:] == ["%s,%.9g," % ("".join(pair), thr) for pair in pairs for thr in CROSSING_THRESHOLDS]


def write_moved(path, trace, moved):
    """Write the trace, with its 6 GHz record moved to 6.5 GHz if ``moved``.

    First point, last point and count stay, so the fitted grid does too.
    """
    if moved:
        f = trace.grid.frequencies
        f[5] = 6.5e9
        trace = ComplexTrace(trace.grid, trace.values, freq_hz_raw=f)
    return write_trace(path, trace)


@pytest.mark.parametrize("moved", ["dut", "all"])
def test_cal_non_uniform_trace_is_data_error(tmp_path, moved):
    grid = aligned_grid(start_hz=1e9, step_hz=1e9, count=16)
    box = constant_error_model(grid, 0.1 + 0.02j, 0.2 - 0.05j, -0.79 + 0.01j)
    standards = {}
    for name, gamma in (("short", -1.0), ("open", 1.0), ("load", 0.001)):
        tr = ComplexTrace(grid=grid, values=np.full(grid.count, gamma + 0j))
        standards[name] = {
            "defined": write_moved(tmp_path / f"{name}_def.s1p", tr, moved == "all"),
            "measured": write_moved(tmp_path / f"{name}_meas.s1p", forward_model(box, tr), moved == "all"),
        }
    dut = ComplexTrace(grid=grid, values=np.full(grid.count, 0.3 + 0j))
    dut_path = write_moved(tmp_path / "dut.s1p", forward_model(box, dut), True)
    code, err = run_config(["cal"], {"standards": standards, "duts": [dut_path]}, tmp_path)
    assert code == 3 and "non-uniform" in err and "Traceback" not in err, err


def test_descending_rl_axis_gives_the_same_crossings(tmp_path):
    crossings = []
    for start, stop in ((6, 20), (20, 6)):  # count 8: exact 2 dB steps either way
        work = tmp_path / f"{start}-{stop}"
        work.mkdir()
        cfg = {"model": {"length_m": 0.276}, "axis": {"start": start, "stop": stop, "count": 8}, "duration_ns": 5}
        assert run_config(["fidelity", "sweep-rl"], cfg, work) == (0, "")
        crossings.append((work / "out" / "crossings.csv").read_bytes())
    assert crossings[0] == crossings[1]
    assert not any(line.endswith(b",") for line in crossings[0].splitlines())  # both thresholds crossed


def test_extract_loss_of_zero_reflection_is_infinite_without_warning(tmp_path):
    grid = aligned_grid()
    in_path = write_trace(tmp_path / "zero.s1p", ComplexTrace(grid=grid, values=np.zeros(grid.count)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, err = run_config(["extract-loss"], {"input": in_path}, tmp_path)
    assert code == 0 and "Warning" not in err, err
    lines = (tmp_path / "out" / "insertion_loss.csv").read_text().splitlines()
    assert lines[1:] == [f"{'%.9g' % f},0,inf" for f in grid.frequencies]
