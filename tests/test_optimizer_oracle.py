"""The alpha optimizer against the numpy.polynomial optimizer it replaced.

``reference_optimize``, ``reference_objective_value`` and
``reference_power_coefficients`` are the earlier forms of
:meth:`wdistill.lpo.PhaseThreeSolver._optimize`,
:func:`wdistill.lpo._objective_value` and
:func:`wdistill.lpo._power_coefficients`, copied unchanged: they build the
slope numerator with ``polyder``, ``polymul`` and ``polysub``, find its
roots with ``polyroots``, and sum the objective's terms with the built-in
``sum`` over arrays.  The engine's direct numpy calls must give
repr-identical reports and objective values, so both run in one process
on the same numpy.

The solver optimizes each distinct ``(terms, has_loop, n)`` once and
shares the report between the shapes that meet it.  Every optimized memo
entry must be repr-equal to a fresh :meth:`~wdistill.lpo.PhaseThreeSolver._optimize`
on its own masks, and a planted table keyed by the terms alone, which
hands a loop-free shape the ``loop_order`` of another size, must fail
that check.
"""

import math
from dataclasses import replace

import numpy as np
import numpy.polynomial.polynomial
import numpy.polynomial.polyutils
import pytest
from numpy.polynomial import polynomial as nppoly

from wdistill import ConfigGraph, PhaseThreeSolver, graph_catalog, standard_w
from wdistill.core import InternalConsistencyError, _adjacency
from wdistill.lpo import LIMIT_EDGE, OptimizationReport, _objective_value

from test_walk_oracle import FIXED_PRESETS, family_graph

RANDOM_TERM_SETS = 1500


# ---------------------------------------------------------------------------
# the numpy.polynomial optimizer


def reference_power_coefficients(terms) -> np.ndarray:
    parts: dict[int, list[float]] = {}
    for c, e, v in terms:
        for i in range(v + 1):
            parts.setdefault(e + i, []).append((-1) ** i * math.comb(v, i) * c)
    return nppoly.polytrim([math.fsum(parts.get(d, ())) for d in range(max(parts) + 1)])


def reference_objective_value(terms, has_loop: bool, m: int, alpha):
    a = np.asarray(alpha, dtype=float)
    if not has_loop:
        return sum(c * a**e * (1.0 - a) ** v for c, e, v in terms)
    total = sum(c * a**e * (1.0 - a) ** (v - 1) for c, e, v in terms)
    return total / nppoly.polyval(a, np.ones(m))


def reference_optimize(adj, terms) -> OptimizationReport:
    m = len(adj) - 1
    has_loop = all(adj)  # an isolated party never loops
    for c, e, v in terms:
        if e + v > m or (has_loop and v < 1):
            raise InternalConsistencyError(
                f"cycle function on the subgraph {adj} has the term a^{e} (1 - a)^{v}"
            )
    if has_loop:
        # d/da (q / s) has the numerator q's - qs', q = f / (1 - a),
        # s = 1 + a + ... + a^(m-1)
        q = reference_power_coefficients([(c, e, v - 1) for c, e, v in terms])
        s = np.ones(m)
        slope = nppoly.polysub(
            nppoly.polymul(nppoly.polyder(q), s), nppoly.polymul(q, nppoly.polyder(s))
        )
    else:
        slope = nppoly.polyder(reference_power_coefficients(terms))
    # companion-matrix eigenvalues: real roots come back with zero
    # imaginary part, the others in conjugate pairs
    roots = nppoly.polyroots(slope)
    roots = roots[roots.imag == 0].real
    points = np.array([0.0, *roots[(roots > 0.0) & (roots < 1.0)], 1.0])
    vals = reference_objective_value(terms, has_loop, m, points)
    best = int(np.argmax(vals))
    x_star, v_star = float(points[best]), float(vals[best])
    v_zero, v_end = float(vals[0]), float(vals[-1])
    tol = 1e-12 * max(1.0, abs(v_star), abs(v_zero), abs(v_end))
    attained_at_limit = False
    if v_zero >= max(v_star, v_end) - tol:  # prefer alpha = 0 on a plateau
        x_star, v_star = 0.0, v_zero
    elif v_end >= v_star - tol or x_star >= 1.0 - LIMIT_EDGE:
        x_star, v_star = 1.0, v_end
        attained_at_limit = True
    value = min(1.0, max(0.0, float(v_star)))
    return OptimizationReport(value, x_star, attained_at_limit, tuple(terms), "", has_loop, m)


# ---------------------------------------------------------------------------
# helpers


def fields(report, f_polynomial):
    return repr((
        report.value, report.argmax_alpha, report.attained_at_limit, report.terms, f_polynomial,
        report.has_loop, report.loop_order,
    ))


def mismatches(solver):
    """The optimized memo entries of ``solver`` whose report differs from
    the reference optimizer's on the same terms."""
    bad = []
    for adj, (report, _) in solver._memo.items():
        if len(adj) > 2 and any(adj):
            want = reference_optimize(adj, report.terms)
            want_poly = tuple(float(c) for c in reference_power_coefficients(want.terms))
            if fields(report, report.f_polynomial) != fields(want, want_poly):
                bad.append(adj)
    return bad


def fresh_mismatches(solver):
    """The optimized memo entries of ``solver`` whose report is not
    repr-equal to a fresh ``_optimize`` on the entry's masks and terms."""
    fresh = PhaseThreeSolver()
    return [
        adj for adj, (report, _) in solver._memo.items()
        if len(adj) > 2 and any(adj) and repr(report) != repr(fresh._optimize(adj, report.terms))
    ]


class TermsKeyedTable(dict):
    """A planted fault: an optimizer table that files each report under
    the terms alone, so that shapes of other sizes share it."""

    def get(self, key, default=None):
        return super().get(key[0], default)

    def __setitem__(self, key, value):
        super().__setitem__(key[0], value)


def oracle_graphs():
    graphs = [graph_catalog(name) for name in FIXED_PRESETS]
    graphs += [family_graph(f, n) for f in ("complete", "cycle", "path") for n in range(5, 11)]
    graphs.append(graph_catalog("pairs", 12))
    return graphs


def random_terms(rng, m, has_loop):
    """A cycle function on m + 1 parties as the solver writes it: one
    monomial per (e, v), sorted, e + v <= m, and v >= 1 on a looping node."""
    slots = [(e, v) for e in range(m + 1) for v in range(1 if has_loop else 0, m - e + 1)]
    picks = sorted(rng.choice(len(slots), size=rng.integers(1, len(slots) + 1), replace=False))
    coeffs = rng.random(len(picks))
    coeffs[rng.random(len(picks)) < 0.1] = 0.0
    return [(float(c), *slots[i]) for c, i in zip(coeffs, picks)]


def masks(m, has_loop):
    """Neighbour masks on m + 1 parties: a cycle, or a path with an
    isolated party 0."""
    n = m + 1
    if has_loop:
        return tuple((1 << (i - 1) % n) | (1 << (i + 1) % n) for i in range(n))
    return (0,) + tuple((1 << i - 1 if i > 1 else 0) | (1 << i + 1 if i < n - 1 else 0) for i in range(1, n))


# ---------------------------------------------------------------------------
# tests


def test_every_memo_entry_matches_the_reference_optimizer():
    solver = PhaseThreeSolver()
    for g in oracle_graphs():
        solver.p_lpo(standard_w(g.labels), g)
    assert sum(len(adj) > 2 and any(adj) for adj in solver._memo) > 150
    assert mismatches(solver) == []


def test_a_wrong_loop_order_fails_the_reference_check(monkeypatch):
    # a planted fault: the report keeps its value and argmax but names the
    # wrong loop order, which OptimizationReport.objective divides by
    optimize = PhaseThreeSolver._optimize

    def off_by_one(self, adj, terms):
        report = optimize(self, adj, terms)
        return replace(report, loop_order=report.loop_order + 1)

    monkeypatch.setattr(PhaseThreeSolver, "_optimize", off_by_one)
    solver = PhaseThreeSolver()
    for g in oracle_graphs():
        solver.p_lpo(standard_w(g.labels), g)
    assert mismatches(solver)


def test_every_memo_entry_is_a_fresh_optimization():
    solver = PhaseThreeSolver()
    for g in oracle_graphs():
        solver.p_lpo(standard_w(g.labels), g)
    assert fresh_mismatches(solver) == []


def test_each_distinct_cycle_function_is_optimized_once(monkeypatch):
    keys = []
    optimize = PhaseThreeSolver._optimize

    def counting(self, adj, terms):
        keys.append((tuple(terms), all(adj), len(adj)))
        return optimize(self, adj, terms)

    monkeypatch.setattr(PhaseThreeSolver, "_optimize", counting)
    g = family_graph("cycle", 8)
    solver = PhaseThreeSolver()
    solver.p_lpo(standard_w(g.labels), g)
    optimized = [adj for adj in solver._memo if len(adj) > 2 and any(adj)]
    assert len(keys) == len(set(keys)) == 22 < len(optimized)


def test_a_table_keyed_by_terms_alone_fails_the_fresh_check():
    # a 4-clique and two isolated parties: the whole graph and its subset
    # A, B, E (one edge, one isolated party) both have the terms
    # 2/3 (1 - a) + 2/3 a and no loop, at n = 6 and n = 3
    g = ConfigGraph(tuple("ABCDEF"), [(a, b) for a in "ABCD" for b in "ABCD" if a < b])
    terms = ((2 / 3, 0, 1), (2 / 3, 1, 0))
    for planted in (False, True):
        solver = PhaseThreeSolver()
        if planted:
            solver._optimized = TermsKeyedTable()
        reports = [solver.p3(labels, g.edges) for labels in (g.labels, ("A", "B", "E"))]
        assert [(r.terms, r.has_loop) for r in reports] == [(terms, False)] * 2
        assert bool(fresh_mismatches(solver)) is planted


def test_random_term_sets_match_the_reference_optimizer():
    rng = np.random.default_rng(18)
    solver = PhaseThreeSolver()
    for _ in range(RANDOM_TERM_SETS):
        m = int(rng.integers(2, 10))
        has_loop = bool(rng.integers(2))
        adj, terms = masks(m, has_loop), random_terms(rng, m, has_loop)
        got, want = solver._optimize(adj, terms), reference_optimize(adj, terms)
        want_poly = tuple(float(c) for c in reference_power_coefficients(terms))
        assert fields(got, got.f_polynomial) == fields(want, want_poly), (adj, terms)
        points = (0.0, float(rng.random()), 1.0)
        for alpha in (*points, np.array(points)):
            got_value = _objective_value(terms, has_loop, m, alpha)
            assert repr(got_value) == repr(reference_objective_value(terms, has_loop, m, alpha)), (terms, alpha)


def test_the_rotated_companion_matrix_fails_the_oracle(monkeypatch):
    # numpy 1.x's polyroots took the eigenvalues of the companion matrix
    # rotated by half a turn; on cycle:7 that moves the argmax of
    # A|B|C|E|F[AB,BC,EF] from 0.4743464554549037 to 0.47434645545490345,
    # which no value pinned to 1e-12 can see
    g = family_graph("cycle", 7)
    eigvals = np.linalg.eigvals
    with monkeypatch.context() as patched:
        patched.setattr(np.linalg, "eigvals", lambda a: eigvals(a[::-1, ::-1]))
        solver = PhaseThreeSolver()
        solver.p_lpo(standard_w(g.labels), g)
    assert _adjacency(tuple("ABCEF"), g.edges) in mismatches(solver)


def test_the_optimizer_calls_no_numpy_polynomial_function(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("numpy.polynomial was called")

    for module in (numpy.polynomial.polynomial, numpy.polynomial.polyutils):
        for name in dir(module):
            if not name.startswith("__") and callable(getattr(module, name)):
                monkeypatch.setattr(module, name, refuse)
    for g in (family_graph("cycle", 7), family_graph("path", 7), graph_catalog("VI")):
        report = PhaseThreeSolver().p3(g.labels, g.edges)
        assert len(report.f_polynomial) > 1
    with pytest.raises(AssertionError):
        nppoly.polyroots([1.0, 2.0, 1.0])
