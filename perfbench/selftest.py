"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

1. A reference value perturbed by ten times its tolerance is reported as a
   mismatch, and the unperturbed value is not, on every workload that
   checks against recorded values.
2. A traced run of each workload reports every per-layer metric mapped to
   that workload with a nonzero value, plus the tracing overhead, and
   prints exactly the per-layer metrics of BENCHMARK.json in their units.

Exits 0 when every check holds.
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads as wl  # noqa: E402

# per-layer metrics that must be nonzero on each workload (README table)
MAPPED = {
    "scaling": (
        "evroutine.enumerate.calls", "evroutine.enumerate.s", "evroutine.enumerate.terminals",
        "lpo.p3.calls", "lpo.p3.memo_entries", "lpo.p3.memo_hit_ratio", "lpo.p3.self_s",
        "lpo.f_alpha.calls", "lpo.f_alpha.self_s", "lpo.fit.calls", "lpo.fit.s",
    ),
    "queries": (
        "evroutine.enumerate.calls", "evroutine.enumerate.s", "lpo.phase1.calls",
        "lpo.phase1.s", "lpo.p_fl.s", "bounds.resolve_bound.s",
    ),
    "trees": ("lpo.tree.build_s", "lpo.tree.nodes", "mc.simulate.s", "mc.simulate.trials",
              "trials_per_s"),
    "audit": (
        "core.apply_measurement.calls", "core.apply_measurement.s", "bounds.tau.calls",
        "bounds.tau.s", "bounds.gamma.calls", "bounds.gamma.s", "mc.monotone_fuzz.self_s",
        "mc.oracle.calls", "mc.oracle.s", "checks_per_s",
    ),
}
OVERHEAD = ("trace.wall_s", "trace.untraced_wall_s", "trace.overhead_frac")


def _shift_all(values: list | dict, by: float) -> None:
    for key in (range(len(values)) if isinstance(values, list) else values):
        if isinstance(values[key], (list, dict)):
            _shift_all(values[key], by)
        elif values[key] is not None:
            values[key] += by


# workload -> (the reference table its checks read, tolerance)
PERTURBED = {
    "scaling": (lambda r: r["scaling"], wl.VALUE_TOL),
    "queries": (lambda r: r["queries"]["p_lpo"], wl.VALUE_TOL),
    "trees": (lambda r: r["trees"], wl.TREE_TOL),
}


def perturbed_reference_is_caught(reference: dict) -> list[str]:
    """Run the first op of each workload, check it against the recorded
    reference, then shift every recorded value by ten times the tolerance
    and check the same output again."""
    problems = []
    for workload, (table, tol) in PERTURBED.items():
        ref = copy.deepcopy(reference)
        op = wl.WORKLOADS[workload](7, ref).ops[0]
        out = op.run()
        if op.check(out) is not None:
            problems.append(f"{workload}: {op.check(out)}")
        _shift_all(table(ref), 10 * tol)
        message = op.check(out)
        if message is None:
            problems.append(f"{workload}: reference shifted by {10 * tol:g} not caught")
        else:
            print(f"caught as intended: {message}")
    return problems


def spans_fire() -> list[str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        manifest = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    problems = []
    for workload, names in MAPPED.items():
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
             "--seed", "1", "--seconds", "1", "--trace", "1"],
            cwd=ROOT, capture_output=True, text=True, timeout=300,
        )
        if proc.returncode != 0:
            problems.append(f"{workload}: traced run exited with {proc.returncode}")
            continue
        result = json.loads(proc.stdout.splitlines()[-1])
        metrics = result["metrics"]
        printed = {name: m["unit"] for name, m in metrics.items()}
        if printed != manifest:
            problems.append(f"{workload}: per-layer metrics differ from BENCHMARK.json: "
                            f"{sorted(set(printed.items()) ^ set(manifest.items()))}")
        if not result["correct"]:
            problems.append(f"{workload}: {result['failed']} of {result['attempted']} ops failed")
        for name in names + OVERHEAD:
            value = metrics.get(name, {}).get("value")
            if not value:
                problems.append(f"{workload}: per-layer metric {name} is {value!r}")
        print(f"{workload}: {len(names)} mapped metrics nonzero, tracing overhead "
              f"{metrics['trace.overhead_frac']['value']:+.1%}")
    return problems


def main() -> int:
    with open(os.path.join(HERE, "reference.json")) as fh:
        ref = json.load(fh)
    problems = perturbed_reference_is_caught(ref) + spans_fire()
    for p in problems:
        print("PROBLEM:", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
