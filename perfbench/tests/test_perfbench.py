"""Tests of the benchmark itself: the spec, the result schema, tiny runs.

No test bounds wall time. Each tiny run is one cycle of the workload on
the smallest inputs, in a fresh interpreter, as the benchmark is run.
"""
import copy
import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
REFERENCE = json.loads((BENCH / "reference.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SEED = 3

_runs = {}


def bench(workload: str, trace: int, repeat: int = 0):
    """(result, info) of a tiny one-cycle run; cached per arguments."""
    key = (workload, trace, repeat)
    if key not in _runs:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(SEED),
             "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        info_tag, info = lines[-2].split(" ", 1)
        assert info_tag == "perfbench-info"
        _runs[key] = json.loads(lines[-1]), json.loads(info)
    return _runs[key]


def test_spec_follows_the_naming_rules():
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [w["name"] for w in SPEC["workloads"]] + [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert all(UNIT.fullmatch(m["unit"]) for m in metrics)
    assert all(m["better"] in ("lower", "higher") for m in metrics)
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert set(run.EXACT_COUNTS) <= {m["name"] for m in SPEC["per_layer"]}


def _check_schema(result, expected):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for m in expected:
        got = result["metrics"][m["name"]]
        assert set(got) == {"value", "unit"} and got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    result, info = bench(workload, trace=0)
    _check_schema(result, SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert info["env"]["nproc"] >= 1 and info["env"]["numpy"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(workload):
    result, info = bench(workload, trace=1)
    _check_schema(result, SPEC["per_layer"])
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["error_rate"] == 0
    # Per-layer self times plus the unattributed rest make up the traced wall time.
    layers = sum(info["layer_self_ms_per_cycle"].values()) + m["bench.unattributed_ms"]
    assert layers == pytest.approx(info["traced_wall_ms_per_cycle"], rel=1e-3, abs=0.05)
    if workload == "vna-cal-cli":
        assert m["touchstone.values_parsed"] > 0 and m["qubitsim.evolve_calls"] == 0
    else:
        assert m["qubitsim.evolves_per_point"] == 2.0 and m["touchstone.values_parsed"] == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_work_counts_repeat_exactly(workload):
    a, _ = bench(workload, trace=1)
    b, _ = bench(workload, trace=1, repeat=1)
    for name in run.EXACT_COUNTS:
        assert a["metrics"][name] == b["metrics"][name], name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_wrong_result_after_the_first_operation_fails_the_run(workload, tmp_path):
    """Every operation of the first cycle is checked against its oracle, not just the first."""
    import workloads

    reference = copy.deepcopy(REFERENCE)
    wl = workloads.Workload(workload, SEED, "tiny", tmp_path, reference)
    if workload == "vna-cal-cli":
        bad = "loss-flat"
        wl.vna.truth["line_flat_loss_db"] = wl.vna.truth["line_flat_loss_db"] + 1.0
    else:
        bad = wl.ops[-1].name
        table = reference[workload]["tiny"]
        table[wl.ops[-1].ref_key] = [v * (1 + 1e-4) for v in table[wl.ops[-1].ref_key]]
        wl = workloads.Workload(workload, SEED, "tiny", tmp_path, reference)
    assert wl.ops[0].name != bad
    loop = run.measure(wl, 0, probe=None)
    result = run.result({}, loop.tally)
    assert result["correct"] is False
    assert (result["attempted"], result["failed"]) == (len(wl.ops), 1)
    assert loop.tally.failures[0].startswith(bad + ":")


def test_tracer_restores_every_binding():
    import cryocal
    from cryocal import cli, qubitsim, touchstone, traces

    before = (cli.read_touchstone_file, qubitsim.evolve, qubitsim.distort, cryocal.parse_touchstone,
              traces.ComplexTrace.__dict__["__post_init__"])
    text = "# Hz S RI R 50\n1 0.5 0\n2 0.5 0\n"
    tr = Tracer()
    tr.install()
    try:
        assert cli.read_touchstone_file is not before[0]
        assert qubitsim.distort is not before[2]
        touchstone.parse_touchstone(text, 1)
    finally:
        tr.uninstall()
    after = (cli.read_touchstone_file, qubitsim.evolve, qubitsim.distort, cryocal.parse_touchstone,
             traces.ComplexTrace.__dict__["__post_init__"])
    assert all(x is y for x, y in zip(before, after))
    names = [s[0] for s in tr.spans]
    assert names[0] == "touchstone.parse_touchstone"
    assert "traces.ComplexTrace.__post_init__" in names
    assert tr.spans[0][4] == {"values": 6, "bytes": len(text)}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
