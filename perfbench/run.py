"""cryocal benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; cryocal is imported from its ``src``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Untraced runs
(``--trace 0``) report the end-to-end metrics of BENCHMARK.json; traced runs
report the per-layer ones. The line before it carries the machine, the
inputs, sample counts and, when traced, self time per layer and function.
See README.md in this directory for the metric definitions.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from speed import Clock, Probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# Fresh interpreters per set-up timing (untraced) and per import split (traced).
IMPORT_REPEATS = {"full": 3, "tiny": 1}
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10

# Per-layer metrics computed from call arguments and results, not clocks:
# two traced runs of one seed must report them identically.
EXACT_COUNTS = (
    "qubitsim.evolve_calls", "qubitsim.rk4_steps", "qubitsim.evolves_per_point",
    "qubitsim.calibrate_evolves_per_amplitude", "distortion.fft_len",
    "touchstone.values_parsed", "touchstone.values_written", "touchstone.bytes_parsed",
    "touchstone.bytes_written", "timegate.fft_len", "cli.bytes_written",
    "cli.digest_mismatches", "bench.spans_per_cycle",
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: smallest inputs, for the benchmark's own tests")
    return p.parse_args(argv)


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        # The benchmark changes no machine setting: CPU frequency is not
        # pinned and file caches are not dropped between runs.
        "cpu_frequency_pinned": False,
        "caches_dropped": False,
    }


def run_op(op, full: bool, clock: Clock) -> list[str]:
    """Time one operation on ``clock``, then check its result. Returns the failures."""
    try:
        result = clock.time(op.run)
    except (Exception, SystemExit) as exc:  # a failed operation is counted, the run goes on
        return [f"{op.name}: {type(exc).__name__}: {exc}"]
    try:
        fails = op.check(result, full)
    except Exception as exc:  # a check that cannot read the output fails it
        fails = [f"check raised {type(exc).__name__}: {exc}"]
    return [f"{op.name}: {m}" for m in fails]


def tail(latencies_s: list[float]) -> dict:
    """Highest listed percentile with at least ten samples beyond it."""
    import numpy as np

    n = len(latencies_s)
    for p in TAIL_PERCENTILES:
        if n * (1.0 - p / 100.0) >= TAIL_MIN_BEYOND:
            return {"ms": float(np.percentile(latencies_s, p)) * 1e3, "pct": p, "samples": n}
    return {"ms": 0.0, "pct": 0.0, "samples": n}


def out_bytes(op) -> int:
    return sum(p.stat().st_size for p in op.out_dir.iterdir()) if op.out_dir else 0


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def add(self, fails: list[str]):
        self.attempted += 1
        if fails:
            self.failed += 1
            self.failures.extend(fails[:3])


@dataclass
class Loop:
    """What one measured loop over a workload left behind."""

    plain: Clock
    traced: Clock = field(default_factory=Clock)
    tally: Tally = field(default_factory=Tally)
    cycles: int = 0
    first_cycle_spans: int = 0
    cli_bytes: int = 0


def measure(wl, seconds: float, probe: Probe | None, tracer=None) -> Loop:
    """Run whole cycles of the workload's operations until ``seconds`` have passed.

    Every operation of the first cycle is checked against its oracle; later
    cycles must reproduce the first cycle's outputs. With a tracer, each
    operation also runs traced, alternating which of its two runs goes first.
    """
    loop = Loop(Clock(probe))
    t_start = time.perf_counter()
    while True:
        first = loop.cycles == 0
        order = (False,) if tracer is None else (False, True) if loop.cycles % 2 == 0 else (True, False)
        for op in wl.ops:
            for with_trace in order:
                if with_trace:
                    tracer.install()
                    try:
                        fails = run_op(op, first, loop.traced)
                    finally:
                        tracer.uninstall()
                else:
                    fails = run_op(op, first, loop.plain)
                loop.tally.add(fails)
            if first:
                loop.cli_bytes += out_bytes(op)
        if first and tracer is not None:
            loop.first_cycle_spans = len(tracer.spans)
        loop.cycles += 1
        if time.perf_counter() - t_start >= seconds:
            return loop


def untraced_run(wl, seconds: float, size: str, probe: Probe) -> tuple[dict, dict, Tally]:
    import startup

    startup.warm_up(SRC)
    setup = startup.import_seconds(SRC, IMPORT_REPEATS[size], probe)
    loop = measure(wl, seconds, probe)
    clock, tally = loop.plain, loop.tally
    lat, n = clock.raw, len(wl.ops)
    cycles = [sum(lat[i:i + n]) for i in range(0, len(lat), n)]
    raw = {
        "setup_s": statistics.median(setup.raw),
        "results_per_s": wl.items_per_cycle / statistics.median(cycles),
        "op_ms_p50": statistics.median(lat) * 1e3,
    }
    metrics = {
        "setup_s": (raw["setup_s"] * setup.factor, "s"),
        "results_per_s": (raw["results_per_s"] / clock.factor, "1/s"),
        "op_ms_p50": (raw["op_ms_p50"] * clock.factor, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "success_rate": (1.0 - tally.failed / tally.attempted, "ratio"),
    }
    info = {
        "samples": {"setup_s": len(setup.raw), "op_ms_p50": len(lat), "results_per_s": len(cycles),
                    "probes": len(clock.probes)},
        "op_ms_tail": tail([t * clock.factor for t in lat]),
        "speed_factor": {"setup_s": setup.factor, "run": clock.factor},
        "unscaled": raw,
    }
    return metrics, info, tally


def traced_run(wl, seconds: float, size: str, probe: Probe) -> tuple[dict, dict, Tally]:
    """Each operation runs twice, untraced and traced, in alternating order."""
    import numpy as np
    import startup
    from tracer import SpanSet, Tracer, layer_of

    startup.warm_up(SRC)
    imports = startup.import_breakdown_ms(SRC, IMPORT_REPEATS[size])
    tr = Tracer()
    loop = measure(wl, seconds, probe, tr)
    plain, tally, cycles = loop.plain, loop.tally, loop.cycles

    pool_speedup = 0.0
    if hasattr(wl, "pool_sweep"):
        t0 = time.perf_counter()
        one = wl.pool_sweep(1)
        t1 = time.perf_counter()
        two = wl.pool_sweep(2)
        t2 = time.perf_counter()
        same = np.array_equal(one.deviation, two.deviation)
        tally.add([] if same else ["sweep_return_loss: 2 workers differ from 1 worker"])
        pool_speedup = (t1 - t0) / (t2 - t1)

    spans = tr.spans
    whole = SpanSet(spans, 0, len(spans))
    first = SpanSet(spans, 0, loop.first_cycle_spans)
    ms = lambda ns: ns / 1e6 / cycles
    layer_self = whole.self_ns_by(layer_of)
    traced_s = sum(loop.traced.raw)
    roots_ns = sum(s[3] - s[2] for s in spans if s[1] == -1)

    evolves = first.count("qubitsim.evolve")
    cal_calls = first.count("qubitsim.calibrate_amplitude")
    cal_evolves = first.count("qubitsim.evolve", under="qubitsim.calibrate_amplitude")
    points = wl.items_per_cycle if wl.name != "vna-cal-cli" else 0
    steps_all = whole.work("qubitsim.evolve", "rk4_steps")
    op_tail = tail([t * plain.factor for t in plain.raw])

    metrics = {
        "qubitsim.evolve_self_ms": (ms(whole.self_ns("qubitsim.evolve")), "ms"),
        "qubitsim.evolve_calls": (evolves, "count"),
        "qubitsim.rk4_steps": (first.work("qubitsim.evolve", "rk4_steps"), "count"),
        "qubitsim.ns_per_rk4_step": (whole.self_ns("qubitsim.evolve") / steps_all if steps_all else 0.0, "ns"),
        "qubitsim.evolves_per_point": ((evolves - cal_evolves) / points if points else 0.0, "ratio"),
        "qubitsim.calibrate_ms": (ms(whole.inclusive_ns("qubitsim.calibrate_amplitude")), "ms"),
        "qubitsim.calibrate_evolves_per_amplitude": (cal_evolves / cal_calls if cal_calls else 0.0, "ratio"),
        "qubitsim.run_allxy_self_ms": (ms(whole.self_ns("qubitsim.run_allxy")), "ms"),
        "qubitsim.pool_speedup_2w": (pool_speedup, "ratio"),
        "distortion.distort_ms": (ms(whole.inclusive_ns("distortion.distort")), "ms"),
        "distortion.fourier_response_ms": (ms(whole.inclusive_ns("distortion.impulse_response_fourier")), "ms"),
        "distortion.convolve_ms": (ms(whole.inclusive_ns("distortion.distort_with_response")), "ms"),
        "distortion.fft_len": (max(first.work(n, "fft_len", max) for n in (
            "distortion.distort", "distortion.impulse_response_fourier", "distortion.distort_with_response")), "count"),
        "touchstone.parse_ms": (ms(whole.inclusive_ns("touchstone.parse_touchstone")), "ms"),
        "touchstone.write_ms": (ms(whole.inclusive_ns("touchstone.write_touchstone")), "ms"),
        "touchstone.values_parsed": (first.work("touchstone.parse_touchstone", "values"), "count"),
        "touchstone.values_written": (first.work("touchstone.write_touchstone", "values"), "count"),
        "touchstone.bytes_parsed": (first.work("touchstone.parse_touchstone", "bytes"), "B"),
        "touchstone.bytes_written": (first.work("touchstone.write_touchstone", "bytes"), "B"),
        "traces.validate_ms": (ms(layer_self.get("traces", 0)), "ms"),
        "solcal.solve_ms": (ms(whole.inclusive_ns("solcal.solve_error_model")), "ms"),
        "solcal.correct_ms": (ms(whole.inclusive_ns("solcal.apply_correction")), "ms"),
        "timegate.gate_ms": (ms(whole.inclusive_ns("timegate.apply_gate")), "ms"),
        "timegate.fft_len": (first.work("timegate.apply_gate", "fft_len", max), "count"),
        "timegate.extract_loss_ms": (ms(whole.inclusive_ns(
            "timegate.extract_insertion_loss", "timegate.insertion_loss_db")), "ms"),
        "uncertainty.table_ms": (ms(layer_self.get("uncertainty", 0)), "ms"),
        "cli.self_ms": (ms(layer_self.get("cli", 0)), "ms"),
        "cli.bytes_written": (loop.cli_bytes, "B"),
        "cli.digest_mismatches": (wl.digest_mismatches, "count"),
        "setup.import_numpy_ms": (imports["numpy"], "ms"),
        "setup.import_scipy_ms": (imports["scipy"], "ms"),
        "setup.import_cryocal_self_ms": (imports["cryocal"], "ms"),
        "bench.trace_overhead_pct": ((traced_s - sum(plain.raw)) / sum(plain.raw) * 100.0, "%"),
        "bench.unattributed_ms": ((traced_s * 1e9 - roots_ns) / 1e6 / cycles, "ms"),
        "bench.spans_per_cycle": (len(first.spans), "count"),
        "op_ms_tail": (op_tail["ms"], "ms"),
        "op_ms_tail.pct": (op_tail["pct"], "%"),
        "op.samples": (op_tail["samples"], "count"),
        "error_rate": (tally.failed / tally.attempted, "ratio"),
    }
    # traces, uncertainty and cli report their layer self time as
    # validate_ms, table_ms and self_ms above.
    for layer in ("touchstone", "solcal", "timegate", "distortion", "qubitsim"):
        metrics[f"{layer}.self_ms"] = (ms(layer_self.get(layer, 0)), "ms")

    by_fn = sorted(whole.self_ns_by().items(), key=lambda kv: -kv[1])
    info = {
        "traced_cycles": cycles,
        "layer_self_ms_per_cycle": {k: round(ms(v), 3) for k, v in sorted(layer_self.items(), key=lambda kv: -kv[1])},
        "top_functions_self_ms_per_cycle": {k: round(ms(v), 3) for k, v in by_fn[:8]},
        "traced_wall_ms_per_cycle": round(traced_s * 1e3 / cycles, 3),
    }
    WORK.mkdir(exist_ok=True)
    spans_path = WORK / f"spans-{wl.name}-seed{wl.seed}.json"
    spans_path.write_text(json.dumps({"fields": ["name", "parent", "start_ns", "end_ns", "work"], "spans": spans}))
    info["spans_file"] = str(spans_path.relative_to(ROOT))
    return metrics, info, tally


def result(metrics: dict, tally: Tally) -> dict:
    """The last line of a run: every check passed, or not, and the metrics."""
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cryocal" / "__init__.py").is_file():
        print(f"perfbench: no cryocal sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import cryocal
    import workloads

    if not Path(cryocal.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"perfbench: imported cryocal from {cryocal.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}",
              file=sys.stderr)
        return 2
    reference = json.loads((HERE / "reference.json").read_text())

    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        wl = workloads.Workload(args.workload, args.seed, args.size, work, reference)
        run = traced_run if args.trace else untraced_run
        with Probe() as probe:
            metrics, info, tally = run(wl, args.seconds, args.size, probe)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    info.update(workload=args.workload, seed=args.seed, size=args.size, inputs=wl.info,
                env=environment(), failures=tally.failures[:20])
    print("perfbench-info " + json.dumps(info, sort_keys=True))
    print(json.dumps(result(metrics, tally)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
