"""Acceptance checks runnable from the command line or the test suite.

Each criterion reruns the quantitative claims the package is built
around, at pinned tolerances and sample sizes.  Results are returned as
data so callers can render or filter them; nothing here prints.

For six-party disjoint pairs the quoted 2/5 is the value of the
subset-averaging baseline ``p_fl`` and is checked as such; the protocol
itself reaches 8/15 at the uniform state, and ``bounds.tau6`` is checked
against the recursion on sorted states.  ``docs/decisions.md`` records
the analysis behind both values.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import bounds as bounds_mod
from . import mc as mc_mod
from .core import ConfigGraph, WState, graph_catalog, standard_w
from .lpo import (
    PhaseThreeSolver,
    build_protocol_tree,
    p_fl,
    paw_closed_form,
)

SQRT3 = math.sqrt(3.0)

VALUE_TOL = 1e-8
ALPHA_TOL_ACCEPT = 1e-6
ORACLE_TOL = 1e-10
FUZZ_TOL = 1e-10


@dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    details: tuple[str, ...]
    elapsed: float

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "elapsed_seconds": self.elapsed,
            "details": list(self.details),
        }


class _Checker:
    def __init__(self):
        self.details: list[str] = []
        self.ok = True

    def check(self, label: str, passed: bool, note: str = ""):
        self.ok &= bool(passed)
        suffix = f" ({note})" if note else ""
        self.details.append(f"{'pass' if passed else 'FAIL'}: {label}{suffix}")


def _close(a: float, b: float, tol: float = VALUE_TOL) -> bool:
    return abs(a - b) <= tol


def paper_values(quick: bool = False, seed: int = 0) -> CriterionResult:
    """Criterion 1: exact values, tolerance 1e-8, under one second."""
    t0 = time.perf_counter()
    c = _Checker()
    solver = PhaseThreeSolver()

    wedge = graph_catalog("wedge")
    rep = solver.p3(tuple(wedge.labels), wedge.edges)
    c.check("P3(W3, wedge) = 2/3", _close(rep.value, 2.0 / 3.0), f"got {rep.value:.12g}")

    tri = graph_catalog("triangle")
    c.check(
        "P_LPO(W3, triangle) = 1",
        _close(solver.p_lpo(standard_w(tri.labels), tri), 1.0),
    )

    for name, expect in [
        ("II", 0.75), ("III-a", 2.0 / 3.0), ("III-b", 2.0 / 3.0),
        ("III-c", 2.0 / 3.0), ("IV", 5.0 / 6.0), ("V", 1.0),
    ]:
        g = graph_catalog(name)
        got = solver.p_lpo(standard_w(g.labels), g)
        c.check(f"P_LPO(W4, {name}) = {expect:.6g}", _close(got, expect), f"got {got:.12g}")

    paw = graph_catalog("VI")
    got = solver.p_lpo(standard_w(paw.labels), paw)
    c.check("P_LPO(W4, VI) = (3+sqrt(3))/6", _close(got, (3.0 + SQRT3) / 6.0), f"got {got:.12g}")
    rep = solver.p3(tuple(paw.labels), paw.edges)
    c.check(
        "argmax alpha for (W4, VI) = (sqrt(3)-1)/2",
        abs(rep.argmax_alpha - (SQRT3 - 1.0) / 2.0) <= ALPHA_TOL_ACCEPT,
        f"got {rep.argmax_alpha:.10g}",
    )
    c.check("P_FL(W4, VI) = 3/4", _close(p_fl(paw), 0.75))

    w4 = standard_w(("A", "B", "C", "D"))
    c.check("tau(W4) = 2/3", _close(bounds_mod.tau(w4, graph_catalog("III-c")).value, 2.0 / 3.0))
    c.check("gamma(W4) = 5/6", _close(bounds_mod.gamma(w4, graph_catalog("IV")).value, 5.0 / 6.0))

    pairs6 = graph_catalog("pairs", 6)
    got = solver.p_lpo(standard_w(pairs6.labels), pairs6)
    c.check("P_LPO(W6, pairs) = 8/15", _close(got, 8.0 / 15.0), f"got {got:.12g}")
    got = p_fl(pairs6)
    c.check(
        "P_FL(W6, pairs) = 2/5",
        _close(got, 0.4),
        f"got {got:.12g}; the quoted 2/5 is the baseline's value; see docs/decisions.md",
    )

    for n in range(2, 6):
        lpo_v, sep_v = bounds_mod.pairs_comparison(n)
        c.check(
            f"pairs comparison N={n}",
            _close(lpo_v, 2.0 / (2 * n - 1)) and _close(sep_v, math.sqrt(1.0 / n)),
        )

    elapsed = time.perf_counter() - t0
    c.check("runtime < 1 s", elapsed < 1.0, f"{elapsed:.3f}s")
    return CriterionResult("paper-values", c.ok, tuple(c.details), elapsed)


def closed_forms(quick: bool = False, seed: int = 1) -> CriterionResult:
    """Criterion 2: engine agreement with printed formulas and bound
    tightness at x0 = 0, 1e-8 over random states."""
    t0 = time.perf_counter()
    c = _Checker()
    solver = PhaseThreeSolver()
    rng = np.random.default_rng(seed)
    count = 60 if quick else 1000

    def sorted_state(n, labels):
        return WState(np.sort(rng.dirichlet(np.ones(n)))[::-1], labels)

    wedge = graph_catalog("wedge")
    tri = graph_catalog("triangle")
    worst_w = worst_t = 0.0
    for _ in range(count):
        st = sorted_state(3, wedge.labels)
        a, b, d = st.components
        worst_w = max(worst_w, abs(solver.p_lpo(st, wedge) - (2 * b + 2 * d - 2 * b * d / a)))
        worst_t = max(worst_t, abs(solver.p_lpo(st, tri) - (2 * b + 2 * d - b * d / a)))
    c.check("two-edge three-party formula", worst_w <= VALUE_TOL, f"worst {worst_w:.2e}")
    c.check("three-edge three-party formula", worst_t <= VALUE_TOL, f"worst {worst_t:.2e}")

    # the printed paw-graph polynomial pins edges AB, AC, AD, BD
    paw = ConfigGraph(("A", "B", "C", "D"), [("A", "B"), ("A", "C"), ("A", "D"), ("B", "D")])
    worst = 0.0
    for _ in range(count):
        st = sorted_state(4, paw.labels)
        worst = max(worst, abs(solver.p_lpo(st, paw) - paw_closed_form(st.components)))
    c.check("paw-graph four-party polynomial", worst <= VALUE_TOL, f"worst {worst:.2e}")

    pairs6 = graph_catalog("pairs", 6)
    worst = 0.0
    for _ in range(count):
        st = sorted_state(6, pairs6.labels)
        worst = max(worst, abs(solver.p_lpo(st, pairs6) - bounds_mod.tau6(st)))
    c.check(
        "six-party disjoint-pairs polynomial",
        worst <= VALUE_TOL,
        f"worst {worst:.2e}; see docs/decisions.md",
    )

    for name in ("I", "I'", "I''"):
        g = graph_catalog(name)
        worst = 0.0
        for _ in range(count):
            st = sorted_state(4, g.labels)  # star center A holds the max
            rep = bounds_mod.bound_config(st, g)
            worst = max(worst, abs(solver.p_lpo(st, g) - rep.value))
        c.check(f"tightness {name}", worst <= VALUE_TOL, f"worst {worst:.2e}")

    for name, fn in [
        ("II", bounds_mod.bound_config),
        ("III-a", bounds_mod.tau), ("III-b", bounds_mod.tau), ("III-c", bounds_mod.tau),
        ("IV", bounds_mod.gamma),
        ("V", bounds_mod.bound_config),
    ]:
        g = graph_catalog(name)
        worst = 0.0
        for _ in range(count):
            st = WState(rng.dirichlet(np.ones(4)), g.labels)
            worst = max(worst, abs(solver.p_lpo(st, g) - fn(st, g).value))
        c.check(f"tightness {name}", worst <= VALUE_TOL, f"worst {worst:.2e}")

    elapsed = time.perf_counter() - t0
    c.check("runtime < 30 s", elapsed < 30.0, f"{elapsed:.1f}s")
    return CriterionResult("closed-forms", c.ok, tuple(c.details), elapsed)


def oracle_equivalence(quick: bool = False, seed: int = 2) -> CriterionResult:
    """Criterion 3: component update vs the dense state-vector oracle."""
    t0 = time.perf_counter()
    c = _Checker()
    rng = np.random.default_rng(seed)
    count = 500 if quick else 10_000
    worst = 0.0
    for _ in range(count):
        n = int(rng.integers(2, 9))
        st = mc_mod.random_w_state(rng, n)
        m = mc_mod.random_measurement(rng, st.labels[int(rng.integers(n))])
        fast = mc_mod.apply_measurement(st, m)
        slow = mc_mod.statevector_oracle(st, m)
        for (p, s1), (q, s2) in zip(fast, slow):
            worst = max(worst, abs(p - q))
            if s1 is not None and s2 is not None:
                worst = max(
                    worst, max(abs(a - b) for a, b in zip(s1.components, s2.components))
                )
                worst = max(worst, abs(s1.x0 - s2.x0))
    c.check(
        f"{count} random (state, measurement) pairs agree",
        worst <= ORACLE_TOL,
        f"worst {worst:.2e}",
    )
    elapsed = time.perf_counter() - t0
    c.check("runtime < 60 s", elapsed < 60.0, f"{elapsed:.1f}s")
    return CriterionResult("oracle-equivalence", c.ok, tuple(c.details), elapsed)


def monotone_fuzz_all(quick: bool = False, seed: int = 3) -> list[CriterionResult]:
    """Criterion 4: no monotone rises above 1e-10 under weak measurements."""
    n_states = 300 if quick else 10_000
    n_meas = 5 if quick else 10
    out = []
    for i, fid in enumerate(("kt_i", "kt_0", "tau", "gamma")):
        t0 = time.perf_counter()
        c = _Checker()
        worst = mc_mod.monotone_fuzz(fid, n_states, n_meas, weak_radius=0.05, seed=seed + i)
        c.check(
            f"{fid}: {n_states} states x {n_meas} weak measurements",
            worst <= FUZZ_TOL,
            f"max increase {worst:.2e}",
        )
        elapsed = time.perf_counter() - t0
        c.check("runtime < 30 s", elapsed < 30.0, f"{elapsed:.1f}s")
        out.append(CriterionResult(f"monotone-fuzz/{fid}", c.ok, tuple(c.details), elapsed))
    return out


def monte_carlo(quick: bool = False, seed: int = 4) -> CriterionResult:
    """Criterion 5: simulated trees match their analytic values."""
    t0 = time.perf_counter()
    c = _Checker()
    solver = PhaseThreeSolver()
    trials = 10 ** 5 if quick else 10 ** 6
    for name, supremum in (("IV", 5.0 / 6.0), ("triangle", 1.0)):
        g = graph_catalog(name)
        tree = build_protocol_tree(standard_w(g.labels), g, epsilon=1e-3, loop_cap=60, solver=solver)
        analytic = tree.analytic_value()
        c.check(
            f"{name}: analytic tree value within 2e-3 of {supremum:.6g}",
            abs(analytic - supremum) <= 2e-3,
            f"analytic {analytic:.8f}",
        )
        res = mc_mod.simulate(tree, trials, seed=seed)
        se = math.sqrt(analytic * (1.0 - analytic) / trials) or 1e-12
        z = (res.success_rate - analytic) / se
        c.check(
            f"{name}: empirical success within 3 sigma over {trials} trials",
            abs(z) <= 3.0,
            f"rate {res.success_rate:.6f}, z {z:+.2f}",
        )
    elapsed = time.perf_counter() - t0
    return CriterionResult("monte-carlo", c.ok, tuple(c.details), elapsed)


def w_target_bound_sweep(quick: bool = False, seed: int = 5) -> CriterionResult:
    """Criterion 6: the standard-W conversion bound stays below N t and
    hits 1 exactly at t = 1/N."""
    t0 = time.perf_counter()
    c = _Checker()
    points = 100 if quick else 1000
    for n in range(3, 9):
        ts = np.linspace(0.0, 1.0 / n, points + 1)[1:-1]
        vals = np.array([bounds_mod.w_target_bound(n, float(t)) for t in ts])
        c.check(f"N={n}: bound < N t on the open interval", bool(np.all(vals < n * ts)))
        at_edge = bounds_mod.w_target_bound(n, 1.0 / n)
        c.check(f"N={n}: bound(1/N) = 1", abs(at_edge - 1.0) <= 1e-12, f"got {at_edge:.15g}")
    elapsed = time.perf_counter() - t0
    return CriterionResult("w-target-bound", c.ok, tuple(c.details), elapsed)


def reference_constants(quick: bool = False, seed: int = 6) -> CriterionResult:
    """Criterion 7: separable-operations numbers stay cited constants."""
    t0 = time.perf_counter()
    c = _Checker()
    ref = bounds_mod.SEP_REFERENCES
    c.check(
        "paw-graph separable value registered as 5/6",
        abs(ref["paw-W4"]["value"] - 5.0 / 6.0) < 1e-15,
    )
    c.check(
        "references are marked as not computed",
        all("not computed" in entry["source"] for entry in ref.values()),
    )
    g = graph_catalog("VI")
    rep = bounds_mod.resolve_bound(standard_w(g.labels), g)
    c.check(
        "report for the paw graph quotes the reference constant",
        rep is not None and "reference" in rep.bound_name and abs(rep.value - 5.0 / 6.0) < 1e-15,
    )
    elapsed = time.perf_counter() - t0
    return CriterionResult("reference-constants", c.ok, tuple(c.details), elapsed)


_PRODUCERS = (
    ("paper-values", paper_values),
    ("closed-forms", closed_forms),
    ("oracle-equivalence", oracle_equivalence),
    ("monotone-fuzz", monotone_fuzz_all),
    ("monte-carlo", monte_carlo),
    ("w-target-bound", w_target_bound_sweep),
    ("reference-constants", reference_constants),
)


def run(filters: list[str] | None = None, quick: bool = False, seed: int = 0) -> list[CriterionResult]:
    """Run the acceptance criteria, optionally filtered by name prefix."""
    results: list[CriterionResult] = []
    for idx, (name, producer) in enumerate(_PRODUCERS):
        if filters and not any(name.startswith(f) or f.startswith(name) for f in filters):
            continue
        out = producer(quick=quick, seed=seed + 10 * idx)
        out = out if isinstance(out, list) else [out]
        if filters:
            out = [r for r in out if any(r.name.startswith(f) for f in filters)]
        results.extend(out)
    return results
