"""Spans around the public functions of each cryocal module.

``Tracer.install`` replaces every public function of the traced modules,
every ``__post_init__`` validator and public classmethod of their classes,
and every other name in the package bound to one of those functions (such
as the names ``cli`` imports), with a wrapper that records one span:
``[name, parent index, start ns, end ns, work]``. ``work`` holds exact
counts computed from the call's arguments and result. Spans stay in memory
until the benchmark writes them out; ``uninstall`` restores the originals.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("touchstone", "traces", "solcal", "timegate", "uncertainty", "distortion", "qubitsim", "cli")

NAME, PARENT, START, END, WORK = range(5)


# --------------------------------------------------------- work counters


def _bind(fn, args, kwargs):
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _rk4_steps(fn, args, kwargs, result):
    a = _bind(fn, args, kwargs)
    wf, params = a["waveform"], a["params"]
    m = int(round(params.dt_s / wf.dt_s))
    return {"rk4_steps": (wf.samples.size - 1) // m}


def _fourier_len(fn, args, kwargs, result):
    a = _bind(fn, args, kwargs)
    return {"fft_len": 2 * int(round(a["window_s"] * a["f_max_hz"]))}


def _convolve_len(fn, args, kwargs, result):
    a = _bind(fn, args, kwargs)
    return {"fft_len": a["pulse"].samples.size + a["h"].values.size - 1}


def _analytic_len(fn, args, kwargs, result):
    # distort() builds the analytic signal (one FFT pair of the pulse length)
    # only when some tap delay falls between samples.
    a = _bind(fn, args, kwargs)
    dt = a["pulse"].dt_s
    frac = any(abs(d - round(d / dt) * dt) > 1e-18 for d, _ in a["h"].taps)
    return {"fft_len": a["pulse"].samples.size if frac else 0}


def _gate_len(fn, args, kwargs, result):
    grid = _bind(fn, args, kwargs)["trace"].grid
    n0 = int(round(grid.start_hz / grid.step_hz))
    return {"fft_len": 2 * (n0 + grid.count - 1)}


def _parsed(fn, args, kwargs, result):
    a = _bind(fn, args, kwargs)
    ports = a["expected_ports"]
    return {"values": result.grid.count * (1 + 2 * ports * ports), "bytes": len(a["text"])}


def _written(fn, args, kwargs, result):
    trace = _bind(fn, args, kwargs)["trace"]
    cols = 1 if hasattr(trace, "values") else 4
    return {"values": trace.grid.count * (1 + 2 * cols), "bytes": len(result)}


COUNTERS = {
    "qubitsim.evolve": _rk4_steps,
    "distortion.impulse_response_fourier": _fourier_len,
    "distortion.distort_with_response": _convolve_len,
    "distortion.distort": _analytic_len,
    "timegate.apply_gate": _gate_len,
    "timegate.to_time_domain": _gate_len,
    "touchstone.parse_touchstone": _parsed,
    "touchstone.write_touchstone": _written,
}


# ----------------------------------------------------------------- tracer


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, 0, 0, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if counter is not None:
                rec[WORK] = counter(fn, args, kwargs, result)
            return result

        return wrapper

    def _patch(self, owner, attr: str, new):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self):
        if self._restore:
            raise RuntimeError("tracer already installed")
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"cryocal.{layer}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj):
                    self._wrap_class(layer, obj)
        # Rebind every package-level name that refers to a wrapped function.
        for modname, mod in list(sys.modules.items()):
            if modname != "cryocal" and not modname.startswith("cryocal."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in wrappers:
                    self._patch(mod, attr, wrappers[id(obj)])

    def _wrap_class(self, layer: str, cls):
        for attr, obj in list(vars(cls).items()):
            name = f"{layer}.{cls.__name__}.{attr}"
            if attr == "__post_init__" and inspect.isfunction(obj):
                self._patch(cls, attr, self._wrap(name, obj))
            elif not attr.startswith("_") and isinstance(obj, classmethod):
                self._patch(cls, attr, classmethod(self._wrap(name, obj.__func__)))

    def uninstall(self):
        while self._restore:
            owner, attr, obj = self._restore.pop()
            setattr(owner, attr, obj)


# --------------------------------------------------------------- analysis


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def self_times(spans: list[list], lo: int = 0, hi: int | None = None) -> list[int]:
    """Self time (ns) of each span in spans[lo:hi]: duration minus children."""
    hi = len(spans) if hi is None else hi
    own = [s[END] - s[START] for s in spans[lo:hi]]
    for i in range(lo, hi):
        p = spans[i][PARENT]
        if p >= lo:
            own[p - lo] -= spans[i][END] - spans[i][START]
    return own


class SpanSet:
    """Aggregates over a slice of the span list."""

    def __init__(self, spans: list[list], lo: int, hi: int):
        self.spans = spans[lo:hi]
        self.lo = lo
        self.own = self_times(spans, lo, hi)

    def _ancestors(self, i: int):
        p = self.spans[i][PARENT]
        while p >= self.lo:
            yield self.spans[p - self.lo][NAME]
            p = self.spans[p - self.lo][PARENT]

    def count(self, name: str, under: str | None = None) -> int:
        """Spans with this name, optionally only those inside a span named ``under``."""
        return sum(
            s[NAME] == name and (under is None or under in self._ancestors(i))
            for i, s in enumerate(self.spans)
        )

    def inclusive_ns(self, *names: str) -> int:
        """Total duration of the outermost spans with one of these names."""
        total = 0
        for i, s in enumerate(self.spans):
            if s[NAME] in names and not any(a in names for a in self._ancestors(i)):
                total += s[END] - s[START]
        return total

    def self_ns(self, name: str) -> int:
        return sum(t for s, t in zip(self.spans, self.own) if s[NAME] == name)

    def self_ns_by(self, key=lambda name: name) -> dict[str, int]:
        """Self time summed per ``key(span name)``: per function by default."""
        out: dict[str, int] = defaultdict(int)
        for s, t in zip(self.spans, self.own):
            out[key(s[NAME])] += t
        return dict(out)

    def work(self, name: str, key: str, reduce=sum) -> int:
        vals = [s[WORK][key] for s in self.spans if s[NAME] == name and s[WORK]]
        return reduce(vals) if vals else 0
