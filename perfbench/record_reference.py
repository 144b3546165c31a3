"""Record reference.json: 1-F values and CLI output digests of this checkout.

    python3 perfbench/record_reference.py

Runs every configuration a seed can select, at both input sizes, once, and
writes the results the benchmark's checks compare against. The VNA
workload's oracle checks must pass while recording. Re-record only when a
change to the physics is meant to move the 1-F values; say so where the
change is described.
"""
from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import workloads  # noqa: E402

SEED_SEARCH = 10_000


def seeds_covering(key_of, count: int) -> dict[str, int]:
    """The first seed that selects each distinct configuration."""
    found: dict[str, int] = {}
    for seed in range(SEED_SEARCH):
        found.setdefault(key_of(seed), seed)
        if len(found) == count:
            return found
    raise RuntimeError(f"only {len(found)} of {count} configurations reachable")


def main() -> int:
    work = ROOT / ".perfbench_work" / "record"
    shutil.rmtree(work, ignore_errors=True)
    reference: dict = {name: {} for name in workloads.WORKLOADS}
    failures = []
    for size in inputs.SIZES:
        plan = {
            "allxy-60ns": seeds_covering(
                lambda s: repr(inputs.allxy_inputs(s, size)),
                len(inputs.ALLXY_LENGTHS_M) * len(inputs.ALLXY_RL_SETS[size])),
            "vna-cal-cli": {f"variant{v}": v for v in range(inputs.VNA_VARIANTS)},
        }
        for name, seeds in plan.items():
            table = reference[name].setdefault(size, {})
            for seed in seeds.values():
                wl = workloads.Workload(name, seed, size, work / f"{name}-{seed}", {})
                for op in wl.ops:
                    result = op.run()
                    if name == "vna-cal-cli":
                        failures += [f"{name} seed {seed} {op.name}: {m}" for m in op.check(result, True)]
                        variant, opname = op.ref_key.split("/")
                        table.setdefault(variant, {})[opname] = op.values(result)
                    else:
                        table[op.ref_key] = op.values(result)
                print(f"{size} {name} seed {seed}: {len(wl.ops)} operations", flush=True)
            shutil.rmtree(work, ignore_errors=True)
    for msg in failures:
        print(msg, file=sys.stderr)
    if failures:
        return 1
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
