"""Spans around calls into each layer, recorded from outside the package.

A name is wrapped where the caller looks it up, not where it is defined:
``lpo`` imports ``enumerate_ev`` and ``mc`` imports ``apply_measurement``
by name, so wrapping the defining module would record no calls at all.
A target that no longer exists is listed as absent, so that a zero for
its metrics is not mistaken for a layer that was never called.

Spans are aggregated as they close: per name the call count, the time
spent with no enclosing span of the same name (so recursion is not counted
twice), and self time, which is the span's duration minus the part its
child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import time

# (module, attribute path, span name)
TARGETS = (
    ("wdistill.lpo", "enumerate_ev", "evroutine.enumerate"),
    ("wdistill.lpo", "fit_polynomial", "lpo.fit"),
    ("wdistill.lpo", "phase1_distribution", "lpo.phase1"),
    ("wdistill.lpo", "PhaseThreeSolver.p3", "lpo.p3"),
    ("wdistill.lpo", "PhaseThreeSolver.f_alpha", "lpo.f_alpha"),
    ("wdistill.lpo", "p_fl", "lpo.p_fl"),
    ("wdistill.lpo", "build_protocol_tree", "lpo.tree.build"),
    ("wdistill.bounds", "resolve_bound", "bounds.resolve_bound"),
    ("wdistill.bounds", "tau", "bounds.tau"),
    ("wdistill.bounds", "gamma", "bounds.gamma"),
    ("wdistill.mc", "apply_measurement", "core.apply_measurement"),
    ("wdistill.core", "apply_measurement", "core.apply_measurement"),
    ("wdistill.mc", "simulate", "mc.simulate"),
    ("wdistill.mc", "monotone_fuzz", "mc.monotone_fuzz"),
    ("wdistill.mc", "statevector_oracle", "mc.oracle"),
)

# span results whose size is counted as work: span name -> size function
SIZES = {"evroutine.enumerate": len}


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}   # name -> [calls, s, self_s, units]
        self.absent: list[str] = []
        self._stack: list[list] = []       # open spans: [name, start, child_s]
        self._depth: dict[str, int] = {}

    def install(self) -> None:
        """Replace every target by a traced wrapper."""
        for module_name, path, name in TARGETS:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for p in parents:
                owner = getattr(owner, p, None)
            fn = getattr(owner, attr, None) if owner is not None else None
            if not callable(fn):
                self.absent.append(f"{module_name}.{path}")
                continue
            setattr(owner, attr, self.wrap(name, fn))
            self.stats.setdefault(name, [0, 0.0, 0.0, 0])

    def wrap(self, name: str, fn):
        size = SIZES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close()
            if size is not None:
                self.stats[name][3] += size(out)
            return out

        return traced

    def open(self, name: str) -> None:
        self._depth[name] = self._depth.get(name, 0) + 1
        self._stack.append([name, time.perf_counter(), 0.0])

    def close(self) -> None:
        name, start, child_s = self._stack.pop()
        elapsed = time.perf_counter() - start
        st = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        st[0] += 1
        st[2] += elapsed - child_s
        depth = self._depth[name]
        if depth == 1:
            st[1] += elapsed
        self._depth[name] = depth - 1
        if self._stack:
            self._stack[-1][2] += elapsed
