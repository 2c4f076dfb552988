"""The wdistill benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the engine is imported from ``src``.
Every pass runs the workload's fixed op list in a fresh interpreter, so
solver memos start empty.  Passes repeat while the next one would, on
average, end within S seconds.  Times are scaled to reference-host
seconds by a calibration unit timed between ops (see README.md).

With ``--trace 0`` every pass is untraced and the end-to-end metrics are
printed.  With ``--trace 1`` untraced and traced passes alternate: the
traced passes give the per-layer metrics, and the difference between the
two kinds is reported as the tracing overhead.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("scaling", "queries", "trees", "audit")
MIN_PASSES = 3
TAIL_BEYOND = 10        # the tail percentile leaves this many ops above it
BUDGET_S = 150          # start no pass that could end after this
PASS_TIMEOUT_S = 170
# Seconds the worker's calibration unit takes on the reference host.  Every
# time a pass measures is scaled by this over the unit's time around it
# (see README.md).  Never change it: it fixes the unit of every recorded time.
REFERENCE_CALIBRATION_S = 0.008
CALIBRATION_WINDOW_S = 0.5


def run_pass(workload: str, seed: int, index: int, traced: bool) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("W_DISTILL_THREADS", None)  # simulate runs on one worker
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, WORKER, workload, str(seed), str(index), "1" if traced else "0",
         repr(spawned)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=PASS_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"a {workload} pass exited with code {proc.returncode}")
    out = json.loads(proc.stdout.splitlines()[-1])
    out["traced"] = traced
    scale_times(out)
    return out


def op_scales(out: dict) -> list[float]:
    """For each op, REFERENCE_CALIBRATION_S over the mean calibration time
    near it: every calibration that started within CALIBRATION_WINDOW_S of
    the op, and at least the last one before it and the first one after."""
    at, cal = out["calibration_at"], out["calibration_s"]
    scales = []
    for start, elapsed in zip(out["op_at"], out["op_s"]):
        before = bisect.bisect_right(at, start) - 1
        lo = min(before, bisect.bisect_left(at, start - CALIBRATION_WINDOW_S))
        hi = max(before + 1,
                 bisect.bisect_right(at, start + elapsed + CALIBRATION_WINDOW_S) - 1)
        scales.append(REFERENCE_CALIBRATION_S / statistics.fmean(cal[lo:hi + 1]))
    return scales


def scale_times(out: dict) -> None:
    """Turn a pass's measured times into reference-host seconds: ops by
    op_scales, set-up by the three calibrations taken right after it, span
    totals by the pass's median calibration."""
    cal = out["calibration_s"]
    out["raw_wall_s"] = sum(out["op_s"])
    out["op_s"] = [t * f for t, f in zip(out["op_s"], op_scales(out))]
    out["setup_s"] *= REFERENCE_CALIBRATION_S / statistics.median(cal[:3])
    out["scale"] = REFERENCE_CALIBRATION_S / statistics.median(cal)
    for span in out.get("spans", {}).values():
        span[1] *= out["scale"]
        span[2] *= out["scale"]


def run_passes(workload: str, seed: int, seconds: int, trace: bool) -> list[dict]:
    """Run passes until the next one would end, on average, past ``seconds``."""
    passes: list[dict] = []
    longest = 0.0
    start = time.monotonic()
    while True:
        elapsed = time.monotonic() - start
        enough = len(passes) >= (2 if trace else MIN_PASSES)
        if enough and (elapsed + elapsed / len(passes) / 2 >= seconds
                       or elapsed + longest > BUDGET_S):
            return passes
        began = time.monotonic()
        passes.append(run_pass(workload, seed, len(passes), trace and len(passes) % 2 == 1))
        longest = max(longest, time.monotonic() - began)


def tail_percentile(ops_per_pass: int) -> float:
    """The highest percentile with TAIL_BEYOND ops above it in a run of
    MIN_PASSES passes.  It is fixed per workload, so that runs with more
    passes, and faster commits, report the same point of the distribution."""
    return 100.0 * (1.0 - TAIL_BEYOND / (MIN_PASSES * ops_per_pass))


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def tail_mean(values: list[float], q: float) -> float:
    """Mean of the values above the q-th percentile: the slowest
    1 - q/100 of them, and at least one.  It moves with every op in the
    tail, where a single percentile rests on one op."""
    beyond = max(1, round(len(values) * (1.0 - q / 100.0)))
    return statistics.fmean(sorted(values)[-beyond:])


def per_op_medians(passes: list[dict]) -> list[float]:
    """Each op's median time over the passes; ops are matched by their
    index in the workload's op list, since every pass runs another order."""
    times: dict[int, list[float]] = {}
    for p in passes:
        for i, t in zip(p["order"], p["op_s"]):
            times.setdefault(i, []).append(t)
    return [statistics.median(v) for v in times.values()]


def end_to_end(passes: list[dict]) -> dict:
    wall = statistics.median(sum(p["op_s"]) for p in passes)
    ops = len(passes[0]["op_s"])
    pooled = [t for p in passes for t in p["op_s"]]
    return {
        "setup_s": (statistics.median(p["setup_s"] for p in passes), "s"),
        "wall_s": (wall, "s"),
        "ops_per_s": (ops / wall, "1/s"),
        "op_p50_ms": (1e3 * statistics.median(per_op_medians(passes)), "ms"),
        "op_tail_ms": (1e3 * tail_mean(pooled, tail_percentile(ops)), "ms"),
        "peak_rss_mb": (statistics.median(p["rss_mb"] for p in passes), "MB"),
    }


# per-layer metric -> (span name, field), where field indexes the span's
# [calls, s, self_s, units]; per_layer derives the others.  Every metric is
# printed on every workload: a layer a workload does not call reads 0.
SPAN_METRICS = {
    "evroutine.enumerate.calls": ("evroutine.enumerate", 0),
    "evroutine.enumerate.s": ("evroutine.enumerate", 1),
    "evroutine.enumerate.terminals": ("evroutine.enumerate", 3),
    "lpo.p3.calls": ("lpo.p3", 0),
    "lpo.p3.self_s": ("lpo.p3", 2),
    "lpo.f_alpha.calls": ("lpo.f_alpha", 0),
    "lpo.f_alpha.self_s": ("lpo.f_alpha", 2),
    "lpo.fit.calls": ("lpo.fit", 0),
    "lpo.fit.s": ("lpo.fit", 1),
    "lpo.phase1.calls": ("lpo.phase1", 0),
    "lpo.phase1.s": ("lpo.phase1", 1),
    "lpo.p_fl.s": ("lpo.p_fl", 1),
    "bounds.resolve_bound.s": ("bounds.resolve_bound", 1),
    "lpo.tree.build_s": ("lpo.tree.build", 1),
    "mc.simulate.s": ("mc.simulate", 1),
    "core.apply_measurement.calls": ("core.apply_measurement", 0),
    "core.apply_measurement.s": ("core.apply_measurement", 1),
    "bounds.tau.calls": ("bounds.tau", 0),
    "bounds.tau.s": ("bounds.tau", 1),
    "bounds.gamma.calls": ("bounds.gamma", 0),
    "bounds.gamma.s": ("bounds.gamma", 1),
    "mc.monotone_fuzz.self_s": ("mc.monotone_fuzz", 2),
    "mc.oracle.calls": ("mc.oracle", 0),
    "mc.oracle.s": ("mc.oracle", 1),
}
NO_SPAN = [0, 0.0, 0.0, 0]   # a span that never fired, or whose target is absent


def per_layer(passes: list[dict]) -> tuple[dict, list[str]]:
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    med = statistics.median
    spans = {name: [med(p["spans"][name][i] for p in traced) for i in range(4)]
             for name in traced[0]["spans"]}
    counts = {k: med(p["counts"].get(k, 0) for p in traced) for k in traced[0]["counts"]}
    metrics: dict = {}
    for metric, (span, field) in SPAN_METRICS.items():
        metrics[metric] = (spans.get(span, NO_SPAN)[field],
                           "s" if field in (1, 2) else "count")

    entries = counts.get("lpo.p3.memo_entries", 0)
    calls = spans.get("lpo.p3", NO_SPAN)[0]
    metrics["lpo.p3.memo_entries"] = (entries, "count")
    metrics["lpo.p3.memo_hit_ratio"] = ((calls - entries) / calls if calls else 0.0, "ratio")
    metrics["lpo.tree.nodes"] = (counts.get("lpo.tree.nodes", 0), "count")
    trials = counts.get("mc.simulate.trials", 0)
    sim_s = spans.get("mc.simulate", NO_SPAN)[1]
    metrics["mc.simulate.trials"] = (trials, "count")
    metrics["trials_per_s"] = (trials / sim_s if sim_s else 0.0, "1/s")

    plain_wall = med(sum(p["op_s"]) for p in plain)
    traced_wall = med(sum(p["op_s"]) for p in traced)
    checks = med(p["counts"].get("checks", 0) for p in plain)
    metrics["checks_per_s"] = (checks / plain_wall, "1/s")
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.untraced_wall_s"] = (plain_wall, "s")
    metrics["trace.overhead_frac"] = (traced_wall / plain_wall - 1.0, "ratio")
    return metrics, traced[0]["absent"]


def environment(args, passes: list[dict]) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "passes": len(passes), "ops_per_pass": len(passes[0]["op_s"]),
        "python": passes[0]["python"], "numpy": passes[0]["numpy"],
        "nproc": os.cpu_count(), "cpu": cpu,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "wdistill", "__init__.py")):
        print(f"no wdistill sources under {ROOT}/src: run from the root of a checkout",
              file=sys.stderr)
        return 2

    passes = run_passes(args.workload, args.seed, args.seconds, bool(args.trace))
    attempted = sum(len(p["op_s"]) for p in passes)
    failed = sum(p["failed"] for p in passes)
    print("env:", json.dumps(environment(args, passes)))
    print(f"times are in reference-host seconds: scaled by a median "
          f"{statistics.median(p['scale'] for p in passes):.4f}; median unscaled op time of "
          f"a pass {statistics.median(p['raw_wall_s'] for p in passes):.6g} s")
    for p in passes:
        for message in p["failures"]:
            print("FAILED:", message)

    print(f"failed_frac = {failed}/{attempted}")
    if args.trace:
        metrics, absent = per_layer(passes)
        if absent:
            print("absent (no such name to wrap):", ", ".join(absent))
    else:
        metrics = end_to_end(passes)
        n = len(passes[0]["op_s"])
        q = tail_percentile(n)
        pooled = [t for p in passes for t in p["op_s"]]
        print(f"op_tail_ms is the mean above p{q:.3f} of {attempted} ops "
              f"({len(passes)} passes of {n}); p{q:.3f} itself is "
              f"{1e3 * percentile(pooled, q):.6g} ms")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
