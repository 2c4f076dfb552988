"""One pass of a workload in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD SEED PASS TRACED SPAWN_TIME

SPAWN_TIME is the parent's ``time.monotonic()`` just before it started
this process (the clock is system-wide on Linux), so ``setup_s`` covers
interpreter start, the import, input generation and loading the reference
values.  The op order is drawn from SEED and PASS, so that the passes of a
run average over orders: with a shared solver, which op pays for filling
the memo depends on the order.

Prints one JSON object with the per-op times in run order, that order as
indices into the workload's op list, the calibration times, the output
checks and, when TRACED is 1, the span statistics.

Between ops, at least every CALIBRATE_EVERY_S, the pass times a fixed
piece of interpreter work that does not use the engine.  The parent
scales the pass's times by it, so that a host that is slower for a while
(other tenants, frequency changes) does not read as a slower engine.
"""

from __future__ import annotations

import json
import os
import platform
import random
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)

import numpy  # noqa: E402
import wdistill  # noqa: E402

from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

CALIBRATE_EVERY_S = 0.1
_KEYS = [(i % 31, i % 7) for i in range(64)]
_MEMBERS = frozenset(range(0, 64, 3))


def calibration_unit() -> float:
    """Seconds taken by fixed interpreter work that does not use the engine:
    dict updates under tuple keys, set membership and float arithmetic, then
    an integer loop.  On the host of the baseline in README.md, this mix
    slowed down in the same proportion as the engine when the host did."""
    start = time.perf_counter()
    memo: dict = {}
    acc = 0.0
    for i in range(12000):
        key = _KEYS[i & 63]
        memo[key] = memo.get(key, 0.0) + (i * 0.37) ** 0.5
        if (i & 63) in _MEMBERS:
            acc += 1.0 / (1.0 + acc)
    total = 0
    for i in range(40000):
        total += i * i % 7
    return time.perf_counter() - start


def main(argv: list[str]) -> int:
    workload, seed, pass_index = argv[0], int(argv[1]), int(argv[2])
    traced, spawned = argv[3] == "1", float(argv[4])
    if not os.path.abspath(wdistill.__file__).startswith(SRC + os.sep):
        print(f"wdistill imported from {wdistill.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "reference.json")) as fh:
        ref = json.load(fh)
    tracer = None
    if traced:
        tracer = Tracer()
        tracer.install()
    work = WORKLOADS[workload](seed, ref)
    order = list(range(len(work.ops)))
    random.Random(f"perfbench/order/{seed}/{pass_index}").shuffle(order)
    setup_s = time.monotonic() - spawned

    origin = time.perf_counter()
    op_s, op_at, failures, counts = [], [], [], {}
    calibration_s, calibration_at = [], []

    def calibrate():
        calibration_at.append(time.perf_counter() - origin)
        calibration_s.append(calibration_unit())

    for _ in range(3):
        calibrate()
    for op in (work.ops[i] for i in order):
        start = time.perf_counter()
        op_at.append(start - origin)
        try:
            out, err = op.run(), None
        except Exception as exc:  # a raising op is counted as failed, the pass goes on
            out, err = None, f"{op.name}: {type(exc).__name__}: {exc}"
        op_s.append(time.perf_counter() - start)
        if err is None:
            try:
                err = op.check(out)
                for key, value in op.work(out).items():
                    counts[key] = counts.get(key, 0) + value
            except Exception as exc:
                err = f"{op.name}: checking raised {type(exc).__name__}: {exc}"
        if err is not None:
            failures.append(err)
        del out
        if time.perf_counter() - origin - calibration_at[-1] >= CALIBRATE_EVERY_S:
            calibrate()
    calibrate()
    for key, value in work.final().items():
        counts[key] = counts.get(key, 0) + value

    result = {
        "setup_s": setup_s,
        "op_s": op_s,
        "op_at": op_at,
        "order": order,
        "calibration_s": calibration_s,
        "calibration_at": calibration_at,
        "failed": len(failures),
        "failures": failures[:5],
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "counts": counts,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        result["spans"] = tracer.stats
        result["absent"] = tracer.absent
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
