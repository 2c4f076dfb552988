import gc
import json
import math
import re
import sys
import types
from dataclasses import replace

import numpy as np
import pytest

from wdistill import lpo as lpo_mod
from wdistill import (
    ConfigGraph,
    DistillationError,
    Epr,
    FAILURE,
    Failure,
    InvalidInputError,
    InvalidPartyError,
    PreconditionError,
    Residual,
    WState,
    apply_measurement,
    build_protocol_tree,
    ev_tree,
    f_alpha,
    g6_weak_improvement,
    graph_catalog,
    p3,
    p_fl,
    p_lpo,
    paw_closed_form,
    phase1_distribution,
    phase1_measurement,
    phase1_success_probability,
    random_w_state,
    simulate,
    standard_w,
    statevector_oracle,
)
from wdistill.core import _adjacency, _members, _restrict_edges
from wdistill.evroutine import X0_TOL, enumerate_ev
from wdistill.lpo import MAX_LOOP_CAP, DecisionNode, PhaseThreeSolver, ProtocolTree, TruncationLeaf, _peel_step
from wdistill.verify import ORACLE_TOL

from test_walk_oracle import (
    FIXED_PRESETS,
    TREE_CAPS,
    TREE_EPSILON,
    family_graph,
    named_graph,
    reference_peel_walk,
    tree_states,
)

SQRT3 = math.sqrt(3.0)


@pytest.fixture(scope="module")
def solver():
    return PhaseThreeSolver()


# ---------------------------------------------------------------------------
# phase I


def test_phase1_probability_worked_example():
    s = WState([0.3, 0.3, 0.2])
    expected = 0.48 / (0.8 + math.sqrt(0.28))
    assert phase1_success_probability(s) == pytest.approx(expected, abs=1e-9)
    m = phase1_measurement(s)
    assert m.is_complete()
    (p1, s1), (p2, s2) = apply_measurement(s, m)
    assert p1 == pytest.approx(expected, abs=1e-9)
    # outcome 1 cancels x0, outcome 2 zeroes the measuring party
    assert s1.x0 == pytest.approx(0.0, abs=1e-12)
    assert s1.components == pytest.approx(tuple(c / 0.8 for c in s.components), abs=1e-9)
    assert s2.component(m.party) == 0.0
    assert s2.x0 > 0.0
    # the dense-amplitude oracle agrees outcome by outcome
    for (p, a), (q, b) in zip(apply_measurement(s, m), statevector_oracle(s, m)):
        assert p == pytest.approx(q, abs=1e-12)
        assert a.components == pytest.approx(b.components, abs=1e-10)


def test_phase1_probability_approaches_one_as_x0_vanishes():
    for x0 in (1e-3, 1e-6, 1e-9):
        s = WState([(1 - x0) / 3] * 3)
        assert phase1_success_probability(s) > 1.0 - 3 * math.sqrt(x0)


def test_phase1_requires_positive_x0():
    with pytest.raises(PreconditionError):
        phase1_measurement(standard_w("ABC"))


def test_phase1_with_no_entangled_party():
    s = WState([0.0, 0.0])
    assert phase1_success_probability(s) == 0.0
    with pytest.raises(PreconditionError):
        phase1_measurement(s)


def test_phase1_distribution_identity_on_x0_zero():
    g = graph_catalog("triangle")
    s = standard_w(g.labels)
    d = phase1_distribution(s, g)
    assert d.probability(Residual(s, g)) == pytest.approx(1.0)


def test_phase1_distribution_two_party_matches_oracle():
    s = WState([0.5, 0.3], ("A", "B"))
    g = ConfigGraph("AB", [("A", "B")])
    m = phase1_measurement(s)
    (p1, s1), (p2, s2) = statevector_oracle(s, m)
    d = phase1_distribution(s, g)
    res = [(t, p) for t, p in d.items() if isinstance(t, Residual)]
    assert len(res) == 1
    term, prob = res[0]
    assert prob == pytest.approx(p1, abs=1e-10)
    assert term.state.components == pytest.approx(s1.components, abs=1e-10)
    # the other branch is a two-party product state, hence failure
    assert d.probability(FAILURE) == pytest.approx(p2, abs=1e-10)


def test_phase1_distribution_product_state_fails():
    s = WState([0.4, 0.0, 0.0])
    g = graph_catalog("triangle")
    assert phase1_distribution(s, g).probability(FAILURE) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# the cycle function and its optimizer


def enumerated_f_alpha(solver, labels, edges, alpha):
    """The cycle function f at one alpha, found without the walk that the
    solver reads f from: the peel-off measurement's children, the outcome-1
    child run through the numeric equal-or-vanish enumeration, each subset
    reached other than ``labels`` weighted by its value."""
    labels = tuple(labels)
    edges = _restrict_edges(frozenset(edges), labels)
    adj = _adjacency(labels, edges)
    full = (1 << len(labels)) - 1
    _, ((p_alpha, y), *rest) = _peel_step(adj, full, alpha)
    total = 0.0
    for p, comps in rest:
        total += p * solver.p3(tuple(l for l, c in zip(labels, comps) if c > 0.0), edges).value
    for term, lam in enumerate_ev(y, adj, full).items():
        if term is not FAILURE and term != full:
            total += p_alpha * lam * solver.p3(_members(labels, term), edges).value
    return total


def assert_f_alpha_is(solver, g, a, want):
    """f at ``a`` on all of ``g``, read off the report and enumerated, is
    ``want``."""
    assert f_alpha(g.labels, g, a, solver) == pytest.approx(want, abs=1e-12)
    assert enumerated_f_alpha(solver, g.labels, g.edges, a) == pytest.approx(want, abs=1e-12)


def test_f_alpha_two_edge_three_party(solver):
    g = graph_catalog("wedge")
    for a in (0.0, 0.2, 0.5, 0.8):
        assert_f_alpha_is(solver, g, a, (2 / 3) * (1 - a) + (2 / 3) * (1 - a) * a)


def test_f_alpha_paw_rational_identity(solver):
    g = graph_catalog("VI")
    for a in (0.1, 0.45, 0.9):
        assert_f_alpha_is(solver, g, a, (1 - a**3) * (0.75 + a + a * a / 2) / (1 + a + a * a))


def test_f_alpha_five_edge_rational_identity(solver):
    g = graph_catalog("IV")
    for a in (0.15, 0.5, 0.85):
        assert_f_alpha_is(solver, g, a, (1 - a**3) * (0.75 + a + 0.75 * a * a) / (1 + a + a * a))


def test_f_alpha_constant_when_least_party_isolated(solver):
    # one pair plus an isolated node: both branches reach the same pair
    g = ConfigGraph("ABC", [("B", "C")])
    for a in (0.0, 0.3, 0.7):
        assert_f_alpha_is(solver, g, a, 2 / 3)


def test_f_alpha_domain(solver):
    g = graph_catalog("VI")
    with pytest.raises(PreconditionError):
        f_alpha(("A", "B"), g, 0.5, solver)
    for a in (-0.1, 1.1, float("nan")):
        with pytest.raises(DistillationError):
            f_alpha(g.labels, g, a, solver)
    assert f_alpha(g.labels, g, 1.0, solver) == 0.0


def test_p3_three_party_values(solver):
    wedge = p3(("A", "B", "C"), graph_catalog("wedge"), solver)
    assert wedge.value == pytest.approx(2 / 3, abs=1e-10)
    assert wedge.argmax_alpha == 0.0
    assert not wedge.attained_at_limit
    tri = p3(("A", "B", "C"), graph_catalog("triangle"), solver)
    assert tri.value == pytest.approx(1.0, abs=1e-10)
    assert tri.attained_at_limit and tri.argmax_alpha == 1.0


def test_p3_paw_interior_maximum(solver):
    rep = p3(("A", "B", "C", "D"), graph_catalog("VI"), solver)
    assert rep.value == pytest.approx((3 + SQRT3) / 6, abs=1e-10)
    assert rep.argmax_alpha == pytest.approx((SQRT3 - 1) / 2, abs=1e-12)
    assert not rep.attained_at_limit


@pytest.mark.parametrize(
    "name,value",
    [("IV", 5 / 6), ("III-a", 2 / 3), ("III-b", 2 / 3), ("III-c", 2 / 3), ("V", 1.0)],
)
def test_p3_four_party_values(solver, name, value):
    g = graph_catalog(name)
    assert p3(g.labels, g, solver).value == pytest.approx(value, abs=1e-10)


def test_p3_rejects_a_party_outside_the_graph():
    # Z used to count as an isolated node, which gave 2/3
    g = graph_catalog("VI")
    with pytest.raises(InvalidPartyError):
        p3(("A", "B", "Z"), g)
    with pytest.raises(InvalidPartyError):
        f_alpha(("A", "B", "Z"), g, 0.5)
    assert p3(("A", "B", "C"), g).value == 1.0  # a triangle


def test_p3_rejects_a_repeated_party():
    # a repeated party used to give 0.0
    g = graph_catalog("VI")
    with pytest.raises(InvalidInputError):
        p3(("A", "A", "B"), g)
    with pytest.raises(InvalidInputError):
        f_alpha(("A", "A", "B"), g, 0.5)
    with pytest.raises(InvalidPartyError):  # the unknown party is named first
        p3(("Z", "Z", "B"), g)


@pytest.mark.parametrize("method", ["p3", "p3_diagnostic"])
def test_the_solver_rejects_a_repeated_party(method):
    # the solver's own entries used to give 0.667 and {'A': 1.0} on
    # ("A", "A", "B") and file A|A|B[AB] in the audit trail
    solver = PhaseThreeSolver()
    with pytest.raises(InvalidInputError, match=re.escape("duplicate parties in ('A', 'A', 'B')")):
        getattr(solver, method)(["A", "A", "B"], graph_catalog("triangle").edges)
    assert solver.reports() == []


def test_p3_trivial_cases(solver):
    assert p3(("A", "B"), ConfigGraph("AB", [("A", "B")]), solver).value == 1.0
    assert p3(("A", "B"), ConfigGraph("AB", []), solver).value == 0.0
    assert p3(("A", "B", "C"), ConfigGraph("ABC", []), solver).value == 0.0


def test_p3_polynomial_reproduces_fresh_samples(solver):
    for name in ("VI", "IV", "III-b"):
        g = graph_catalog(name)
        rep = p3(g.labels, g, solver)
        coef = np.asarray(rep.f_polynomial)
        for a in np.linspace(0.02, 0.95, 100):
            direct = enumerated_f_alpha(solver, g.labels, g.edges, float(a))
            assert np.polynomial.polynomial.polyval(a, coef) == pytest.approx(
                direct, abs=1e-10
            )


def test_p3_report_objective_evaluates_anywhere(solver):
    g = graph_catalog("VI")
    rep = p3(g.labels, g, solver)
    for a in (0.0, 0.3, 0.7, 0.95):
        want = enumerated_f_alpha(solver, g.labels, g.edges, a) / (1 - a ** 3)
        assert rep.objective(a) == pytest.approx(want, abs=1e-10)
    assert rep.objective(rep.argmax_alpha) == pytest.approx(rep.value, abs=1e-10)


def test_p3_diagnostic_reports_all_least_parties(solver):
    g = graph_catalog("III-a")  # all nodes have degree one
    values = solver.p3_diagnostic(tuple(g.labels), g.edges)
    assert set(values) == set(g.labels)
    assert max(values.values()) == pytest.approx(min(values.values()), abs=1e-10)


def test_p3_argmax_is_a_critical_point():
    # every interior optimum is a zero of the objective's slope, so the
    # central difference there is second order in h
    h = 1e-5
    graphs = [graph_catalog(name) for name in FIXED_PRESETS]
    graphs += [graph_catalog("complete", 5), graph_catalog("pairs", 6)]
    graphs += [
        ConfigGraph("ABCDE", [("A", "B"), ("B", "C"), ("C", "D"), ("D", "E"), ("A", "E")]),
        ConfigGraph("ABCDEF", [("A", "B"), ("B", "C"), ("C", "D"), ("D", "E"), ("E", "F")]),
    ]
    interior = 0
    for g in graphs:
        solver = PhaseThreeSolver()
        solver.p_lpo(standard_w(g.labels), g)
        for rep in solver.reports():
            a = rep.argmax_alpha
            if rep.attained_at_limit or a == 0.0:
                continue
            interior += 1
            slope = (rep.objective(a + h) - rep.objective(a - h)) / (2 * h)
            assert abs(slope) <= 1e-9, (rep.subgraph_key, a, slope)
    assert interior > 0


def test_walked_cycle_function_equals_f_alpha():
    # f as the report's monomials against the numeric enumeration at
    # random alphas, on every optimized node below each graph
    rng = np.random.default_rng(12)
    graphs = [graph_catalog(name) for name in FIXED_PRESETS]
    graphs += [family_graph(f, n) for f in ("complete", "cycle", "path") for n in range(3, 9)]
    graphs += [family_graph("pairs", n) for n in (4, 6, 8)]
    checked = 0
    for g in graphs:
        solver = PhaseThreeSolver()
        solver.p_lpo(standard_w(g.labels), g)
        for (labels, masks), rep in solver.audit().items():
            if len(labels) < 3 or not any(masks):
                continue
            for a in rng.uniform(0.0, 1.0, 3):
                walked = f_alpha(labels, g, a, solver)
                assert walked == pytest.approx(enumerated_f_alpha(solver, labels, g.edges, a), abs=1e-12)
            checked += 1
    assert checked > 500


def edge_key(labels, edges) -> str:
    """A subset's name from its labels and its edge set, as the audit
    trail names it."""
    es = ",".join(f"{a}{b}" for a, b in sorted(edges))
    return f"{'|'.join(labels)}[{es}]"


class LabelKeyedSolver(PhaseThreeSolver):
    """Reference solver that recurses on labelled subsets: its memo is
    keyed by labels and edges, so that no relabelled copy of a shape
    reuses another's solve, and each cycle function is read off the label
    walk ``reference_peel_walk`` that the mask walk replaced.  Its
    ``p_lpo`` goes through the label objects: each phase-I ``Residual``
    is valued as a state and graph of its own, and each equal-or-vanish
    terminal, named, through ``p3``."""

    def p_lpo(self, state, graph):
        if state.x0 > X0_TOL:
            total = 0.0
            for term, p in phase1_distribution(state, graph).items():
                if isinstance(term, Residual):
                    total += p * self.p_lpo(term.state, term.graph)
            return total
        edges, full = frozenset(graph.edges), (1 << state.n) - 1
        total = 0.0
        for term, lam in enumerate_ev(state.components, _adjacency(state.labels, edges), full).items():
            if term is not FAILURE:
                total += lam * self.p3(_members(state.labels, term), edges).value
        return total

    def p3(self, labels, edges):
        labels = tuple(labels)
        edges = _restrict_edges(frozenset(edges), labels)
        key = (labels, edges)
        if key not in self._labelled:
            self._labelled[key] = replace(self._label_solve(labels, edges), subgraph_key=edge_key(labels, edges))
        return self._labelled[key]

    def _label_solve(self, labels, edges):
        n = len(labels)
        if n <= 2 or not edges:
            return PhaseThreeSolver()._solve(_adjacency(labels, edges))[0]
        parts = {}
        for term, e, v in reference_peel_walk(labels, edges):
            if len(term) < n:
                parts.setdefault((e, v), []).append(len(term) * self.p3(term, edges).value)
        terms = [(math.fsum(cs) / n, e, v) for (e, v), cs in sorted(parts.items())]
        return self._optimize(_adjacency(labels, edges), terms)

    def reports(self):
        return sorted(self._labelled.values(), key=lambda r: (-len(r.subgraph_key), r.subgraph_key))


def equivalence_graphs():
    graphs = [graph_catalog(name) for name in FIXED_PRESETS]
    graphs += [family_graph(f, n) for f in ("complete", "cycle", "path") for n in range(3, 9)]
    graphs += [family_graph("pairs", n) for n in (4, 6, 8)]
    # catalog labels "1".."10" sort differently as strings than by index
    graphs.append(graph_catalog("pairs", 10))
    # labels out of alphabetical order
    for f in ("cycle", "path"):
        g = family_graph(f, 6)
        mapping = dict(zip(g.labels, reversed(g.labels)))
        graphs.append(ConfigGraph(g.labels, [(mapping[a], mapping[b]) for a, b in g.edges]))
    return graphs


def equivalence_states(g, rng):
    """The standard W state and three x0 > 0 states: one on the graph's
    label order, one on a random permutation of it, where positions and
    tie-breaks follow the state's order, and one with a weight just above
    ``ZERO_COMPONENT``, near the clamp of the phase-I residuals."""
    comps = [tuple(float(c) for c in rng.dirichlet(np.ones(g.n + 1))[: g.n]) for _ in range(3)]
    tiny = list(comps[2])
    tiny[int(rng.integers(g.n))] = float(rng.uniform(1e-14, 3e-14))
    return [
        standard_w(g.labels),
        WState(comps[0], g.labels),
        WState(comps[1], tuple(str(l) for l in rng.permutation(g.labels))),
        WState(tiny, g.labels),
    ]


@pytest.mark.parametrize("shared", [True, False], ids=["shared", "fresh"])
def test_shape_memo_matches_label_keyed_reference(shared):
    # the shape-keyed memo reuses one solve for every relabelled copy; the
    # values and the audit trail must be those of a solver that never does
    rng = np.random.default_rng(5)
    fast, slow = PhaseThreeSolver(), LabelKeyedSolver()
    for g in equivalence_graphs():
        if not shared:
            fast, slow = PhaseThreeSolver(), LabelKeyedSolver()
        for state in equivalence_states(g, rng):
            assert repr(fast.p_lpo(state, g)) == repr(slow.p_lpo(state, g)), g
        want = [r.to_json() for r in slow.reports()]
        assert repr([r.to_json() for r in fast.reports()]) == repr(want), g
    assert len(fast._memo) < len(want)


REAL_COVER = lpo_mod._cover


def cover_without_smaller_children(memo, adj):
    """A planted fault: :func:`wdistill.lpo._cover` without the children
    one party smaller."""
    return [entry for entry in REAL_COVER(memo, adj) if entry[0].bit_count() < len(adj) - 1]


def cover_without_last_entry(memo, adj):
    """A planted fault: :func:`wdistill.lpo._cover` without its last entry."""
    return REAL_COVER(memo, adj)[:-1]


def audit_mismatch():
    """The first graph of :func:`equivalence_graphs` whose audit trail at
    the standard W state differs from :class:`LabelKeyedSolver`'s, or None."""
    for g in equivalence_graphs():
        fast, slow = PhaseThreeSolver(), LabelKeyedSolver()
        w = standard_w(g.labels)
        fast.p_lpo(w, g)
        slow.p_lpo(w, g)
        if [r.to_json() for r in fast.reports()] != [r.to_json() for r in slow.reports()]:
            return g
    return None


@pytest.mark.parametrize("fault", [cover_without_smaller_children, cover_without_last_entry])
def test_the_audit_check_catches_a_planted_cover_fault(monkeypatch, fault):
    assert audit_mismatch() is None
    monkeypatch.setattr(lpo_mod, "_cover", fault)
    assert audit_mismatch() is not None


def test_complete_ten_top_node_coefficients_are_exact(solver):
    g = graph_catalog("complete", 10)
    rep = p3(g.labels, g, solver)
    want = [9 / 10, 9 / 10, -18 / 5, 42 / 5, -63 / 5, 63 / 5, -42 / 5, 18 / 5, -9 / 10, -9 / 10]
    assert len(rep.f_polynomial) == len(want)
    for got, exact in zip(rep.f_polynomial, want):
        assert got == pytest.approx(exact, abs=1e-12)


def test_complete_graphs_always_succeed(solver):
    for n in range(2, 13):
        g = graph_catalog("complete", n)
        assert p_lpo(standard_w(g.labels), g, solver) == pytest.approx(1.0, abs=1e-13)


def test_p3_invariant_under_relabeling_all_four_node_graphs():
    # exhaustive over the 63 nonempty four-node edge sets, sampled perms
    rng = np.random.default_rng(31)
    labels = ("A", "B", "C", "D")
    pairs = [(labels[i], labels[j]) for i in range(4) for j in range(i + 1, 4)]
    for mask in range(1, 1 << 6):
        edges = [pairs[i] for i in range(6) if mask >> i & 1]
        base = PhaseThreeSolver().p3(labels, frozenset(edges)).value
        for _ in range(3):
            perm = list(labels)
            rng.shuffle(perm)
            mapping = dict(zip(labels, perm))
            e2 = frozenset(tuple(sorted((mapping[a], mapping[b]))) for a, b in edges)
            assert PhaseThreeSolver().p3(labels, e2).value == pytest.approx(
                base, abs=1e-10
            )


def test_p3_five_node_tie_break_can_matter():
    # with five parties the equally-least-connected choices can lead to
    # structurally different subproblems; the diagnostic exposes the
    # spread and the lowest-index rule is what the reported value uses
    labels = ("A", "B", "C", "D", "E")
    edges = frozenset({("A", "D"), ("B", "E"), ("D", "E"), ("C", "D")})
    solver = PhaseThreeSolver()
    diag = solver.p3_diagnostic(labels, edges)
    assert set(diag) == {"A", "B", "C"}
    assert max(diag.values()) - min(diag.values()) > 0.01
    assert solver.p3(labels, edges).value == pytest.approx(diag["A"], abs=1e-10)


@pytest.mark.parametrize("labels,edges", [
    (tuple(graph_catalog("III-a").labels), graph_catalog("III-a").edges),
    (tuple("ABCDE"), frozenset({("A", "D"), ("B", "E"), ("D", "E"), ("C", "D")})),
], ids=["III-a", "five-party"])
def test_p3_diagnostic_solves_in_the_shape_memo(labels, edges):
    # each choice is the value of a fresh solver with that party named
    # first, and the audit trail of the queries before does not change
    solver = PhaseThreeSolver()
    assert solver.p3_diagnostic(labels, edges) and solver.reports() == []
    g = ConfigGraph(labels, edges)
    solver.p_lpo(standard_w(labels), g)
    before = json.dumps([r.to_json() for r in solver.reports()])
    diag = solver.p3_diagnostic(labels, edges)
    assert json.dumps([r.to_json() for r in solver.reports()]) == before
    for k, value in diag.items():
        assert value == PhaseThreeSolver().p3((k, *(l for l in labels if l != k)), edges).value, k


def test_p_lpo_at_w_depends_on_how_parties_are_named():
    # a 3-path plus a disjoint edge: the lowest-named least-connected
    # party is on the edge in one naming and an end of the path in the
    # other, and the peel-off takes the lowest-named one
    w = standard_w("ABCDE")
    on_edge = ConfigGraph("ABCDE", [("A", "B"), ("C", "D"), ("D", "E")])
    on_path = ConfigGraph("ABCDE", [("A", "B"), ("B", "C"), ("D", "E")])
    assert repr(p_lpo(w, on_edge)) == "0.5666666666666667"
    assert repr(p_lpo(w, on_path)) == "0.5867593829772402"
    for g in (on_edge, on_path):
        values = set(PhaseThreeSolver().p3_diagnostic(g.labels, g.edges).values())
        assert values == {0.5666666666666667, 0.5867593829772402}


# ---------------------------------------------------------------------------
# whole-protocol values


def test_p_lpo_three_party_worked_examples(solver):
    s = WState([0.5, 0.3, 0.2])
    assert p_lpo(s, graph_catalog("wedge"), solver) == pytest.approx(0.76, abs=1e-10)
    assert p_lpo(s, graph_catalog("triangle"), solver) == pytest.approx(0.88, abs=1e-10)


def reachable_solvers(module):
    """PhaseThreeSolver instances reachable from the module's namespace,
    without entering other modules or their classes and functions."""
    found, seen, todo = [], set(), list(vars(module).values())
    while todo:
        obj = todo.pop()
        if id(obj) in seen or isinstance(obj, types.ModuleType):
            continue
        if isinstance(obj, (type, types.FunctionType)) and obj.__module__ != module.__name__:
            continue
        seen.add(id(obj))
        if isinstance(obj, PhaseThreeSolver):
            found.append(obj)
        todo.extend(gc.get_referents(obj))
    return found


def test_calls_without_a_solver_leave_no_solver_behind(monkeypatch):
    g = graph_catalog("VI")
    w = standard_w(g.labels)
    p_lpo(w, g)
    p3(g.labels, g)
    f_alpha(g.labels, g, 0.3)
    build_protocol_tree(w, g, loop_cap=2)
    assert reachable_solvers(lpo_mod) == []
    # the walk does find a solver that a module-level cache would keep
    monkeypatch.setattr(lpo_mod, "_cache", {"memo": [PhaseThreeSolver()]}, raising=False)
    assert len(reachable_solvers(lpo_mod)) == 1


def test_p_lpo_four_party_pairs(solver):
    g = graph_catalog("III-a")
    assert p_lpo(standard_w(g.labels), g, solver) == pytest.approx(2 / 3, abs=1e-10)


def test_p_lpo_with_x0_runs_phase1_first(solver):
    g = graph_catalog("triangle")
    s = WState([0.3, 0.3, 0.2])
    direct = p_lpo(s, g, solver)
    total = 0.0
    for term, p in phase1_distribution(s, g).items():
        if isinstance(term, Residual):
            total += p * p_lpo(term.state, term.graph, solver)
    assert direct == pytest.approx(total, abs=1e-12)
    assert 0.0 < direct < p_lpo(WState([c / 0.8 for c in s.components]), g, solver)


def test_p_lpo_bounded_and_dominates_baseline(solver):
    rng = np.random.default_rng(41)
    graphs = [graph_catalog(n) for n in ("wedge", "triangle", "I", "II", "IV", "VI")]
    graphs.append(graph_catalog("pairs", 4))
    for _ in range(100):
        g = graphs[int(rng.integers(len(graphs)))]
        s = WState(rng.dirichlet(np.ones(g.n)), g.labels)
        v = p_lpo(s, g, solver)
        assert -1e-12 <= v <= 1.0 + 1e-12
    for g in graphs:
        assert p_lpo(standard_w(g.labels), g, solver) >= p_fl(g) - 1e-10


@pytest.mark.parametrize("n_pairs", range(2, 7))
def test_pairs_value_follows_the_product_rule(solver, n_pairs):
    # V_N = prod_{k=2..N} (2k-2)/(2k-1) on N disjoint pairs (docs/decisions.md)
    g = graph_catalog("pairs", 2 * n_pairs)
    want = math.prod((2 * k - 2) / (2 * k - 1) for k in range(2, n_pairs + 1))
    assert p_lpo(standard_w(g.labels), g, solver) == pytest.approx(want, abs=1e-14)


def p_fl_reference(graph):
    """The baseline recursion on a validated ConfigGraph per subset."""
    memo = {}

    def value(labels):
        if labels not in memo:
            sub, n = graph.induced(labels), len(labels)
            if n == 2:
                memo[labels] = 1.0 if sub.edges else 0.0
            elif len(sub.edges) == n * (n - 1) // 2:
                memo[labels] = 1.0
            elif n == 3:
                memo[labels] = 2.0 / 3.0 if sub.edges else 0.0
            elif not sub.edges:
                memo[labels] = 0.0
            else:
                memo[labels] = sum(value(tuple(l for l in labels if l != drop)) for drop in labels) / n
        return memo[labels]

    return value(graph.labels)


def shuffled_graphs(seed, count):
    """Seeded random graphs on 3 to 9 parties with their labels in shuffled
    order, each edge present with probability 0.45."""
    rng = np.random.default_rng(seed)
    graphs = []
    for _ in range(count):
        n = int(rng.integers(3, 10))
        labels = [str(i + 1) for i in range(n)] if rng.random() < 0.5 else list("PQRSTUVWX"[:n])
        labels = [labels[i] for i in rng.permutation(n)]
        edges = [(labels[i], labels[j]) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.45]
        graphs.append(ConfigGraph(labels, edges))
    return graphs


def test_p_fl_matches_the_graph_object_reference():
    # the recursion drops positions in ascending order, which must be the
    # reference's label order also where that differs from sorted order:
    # on the reversed cycle and path, on "1".."10" and on shuffled labels
    graphs = [graph_catalog(name) for name in FIXED_PRESETS]
    graphs += [family_graph(f, n) for f in ("complete", "cycle", "path") for n in range(3, 11)]
    graphs += [graph_catalog("pairs", n) for n in range(4, 13, 2)]
    graphs += equivalence_graphs()
    graphs += shuffled_graphs(17, 40)
    for g in graphs:
        assert repr(p_fl(g)) == repr(p_fl_reference(g)), g


def kept_p_fl_graphs():
    """The presets, ``complete``/``cycle``/``path`` with 3 to 12 parties and
    ``pairs`` with 4 to 16, as new graph objects, ordered by size so that
    graphs of one size but different values are asked one after another."""
    graphs = [graph_catalog(name) for name in FIXED_PRESETS]
    graphs += [family_graph(f, n) for f in ("complete", "cycle", "path") for n in range(3, 13)]
    graphs += [graph_catalog("pairs", n) for n in range(4, 17, 2)]
    return sorted(graphs, key=lambda g: g.n)


def kept_p_fl_mismatch(want):
    """The first graph of :func:`kept_p_fl_graphs` whose ``p_fl``, asked
    twice over the whole list, differs in repr from ``want``, or None."""
    graphs = kept_p_fl_graphs()
    for _ in range(2):
        for g in graphs:
            if repr(p_fl(g)) != want[g]:
                return g
    return None


def share_p_fl_across_graphs(monkeypatch):
    """A planted fault: a ``p_fl`` store shared by every graph of one size."""
    by_size = {}
    monkeypatch.setattr(ConfigGraph, "_kept", property(lambda g: by_size.setdefault(g.n, {})))


def test_p_fl_kept_on_a_graph_equals_the_value_on_a_fresh_graph(monkeypatch):
    want = {g: repr(p_fl(ConfigGraph(g.labels, g.edges))) for g in kept_p_fl_graphs()}
    assert kept_p_fl_mismatch(want) is None
    share_p_fl_across_graphs(monkeypatch)
    assert kept_p_fl_mismatch(want) is not None


def test_p_fl_rejects_a_one_node_graph_on_every_call():
    for g in (ConfigGraph("A"), ConfigGraph(())):
        for _ in range(3):
            with pytest.raises(PreconditionError):
                p_fl(g)


def test_p_fl_examples():
    assert p_fl(graph_catalog("complete", 4)) == 1.0
    assert p_fl(graph_catalog("complete", 6)) == 1.0
    assert p_fl(graph_catalog("VI")) == pytest.approx(3 / 4, abs=1e-12)
    assert p_fl(graph_catalog("wedge")) == pytest.approx(2 / 3, abs=1e-12)
    for n in (4, 6, 8):
        assert p_fl(graph_catalog("pairs", n)) == pytest.approx(2 / (n - 1), abs=1e-12)


# ---------------------------------------------------------------------------
# protocol trees


def test_tree_two_party_edge_is_single_leaf(solver):
    g = ConfigGraph("AB", [("A", "B")])
    tree = build_protocol_tree(standard_w("AB"), g, solver=solver)
    assert isinstance(tree.root, Epr)
    assert tree.analytic_value() == 1.0


def test_tree_three_party_limit_value(solver):
    g = graph_catalog("triangle")
    tree = build_protocol_tree(standard_w(g.labels), g, epsilon=0.01, loop_cap=50, solver=solver)
    assert tree.analytic_value() >= 0.95
    # with one loop at alpha = 1 - eps the cut mass is exactly alpha^(2 cap)
    assert tree.truncation_mass() == pytest.approx(0.99 ** 100, abs=1e-9)
    probs = tree.leaf_probabilities()
    assert sum(probs.values()) == pytest.approx(1.0, abs=1e-9)


def test_tree_paw_interior_alpha_close_to_supremum(solver):
    g = graph_catalog("VI")
    tree = build_protocol_tree(standard_w(g.labels), g, epsilon=1e-5, loop_cap=60, solver=solver)
    assert tree.analytic_value() == pytest.approx((3 + SQRT3) / 6, abs=1e-6)


def test_tree_lower_value_grows_with_loop_cap(solver):
    g = graph_catalog("VI")
    s = standard_w(g.labels)
    lowers = []
    trunc = []
    for cap in (1, 2, 5, 10):
        tree = build_protocol_tree(s, g, epsilon=0.05, loop_cap=cap, solver=solver)
        lowers.append(tree.analytic_value(credit_truncation=False))
        trunc.append(tree.truncation_mass())
    assert lowers == sorted(lowers)
    assert trunc == sorted(trunc, reverse=True)


def test_tree_branch_probabilities_sum_to_one(solver):
    g = graph_catalog("IV")
    tree = build_protocol_tree(standard_w(g.labels), g, epsilon=0.05, loop_cap=5, solver=solver)

    def walk(node):
        if not hasattr(node, "children"):
            return
        assert abs(sum(p for p, _ in node.children) - 1.0) < 1e-12
        for _, child in node.children:
            walk(child)

    walk(tree.root)


def test_tree_handles_positive_x0(solver):
    g = graph_catalog("triangle")
    s = WState([0.3, 0.3, 0.2])
    tree = build_protocol_tree(s, g, epsilon=1e-3, loop_cap=60, solver=solver)
    assert tree.root.phase == "phase1"
    assert tree.analytic_value() == pytest.approx(p_lpo(s, g, solver), abs=2e-3)


def assert_tree_matches_the_oracle(tree, g):
    """Every branch of ``tree`` agrees with the dense state-vector oracle
    applied to its node's recorded measurement, every EPR leaf is a target
    pair, and every failure leaves no target pair between two weighted
    parties."""

    def expected_post(child):
        if isinstance(child, Epr):
            return {l: 0.5 for l in child.parties}
        if isinstance(child, Failure):
            return None
        return dict(zip(child.state.labels, child.state.components))

    stack, checked = [tree.root], set()
    while stack:
        node = stack.pop()
        if isinstance(node, Epr):
            assert g.has_edge(*node.parties)
        if not isinstance(node, DecisionNode) or id(node) in checked:
            continue
        checked.add(id(node))
        outcomes = [
            (q, post) for q, post in statevector_oracle(node.state, node.measurement)
            if post is not None
        ]
        assert len(outcomes) == len(node.children)
        for (p, child), (q, post) in zip(node.children, outcomes):
            assert abs(p - q) <= ORACLE_TOL
            want = expected_post(child)
            if want is None:
                live = [l for l in post.labels if post.component(l) > ORACLE_TOL]
                assert not any(g.has_edge(a, b) for a in live for b in live if a < b)
            else:
                for l in post.labels:
                    assert abs(post.component(l) - want.get(l, 0.0)) <= ORACLE_TOL
            stack.append(child)


def test_six_party_pairs_tree_matches_the_oracle_and_beats_the_baseline(solver):
    # an executed check of the 8/15 value that does not use the optimizer:
    # every branch of the pairs:6 tree agrees with the dense state-vector
    # oracle, every EPR leaf is a target pair, and with each cut loop
    # counted as a failure the tree still beats the baseline's 2/5
    # (see docs/decisions.md)
    g = graph_catalog("pairs", 6)
    tree = build_protocol_tree(standard_w(g.labels), g, epsilon=0.3, loop_cap=5, solver=solver)
    assert isinstance(tree.root, DecisionNode)
    assert_tree_matches_the_oracle(tree, g)
    assert tree.analytic_value(credit_truncation=False) > 0.4


@pytest.mark.parametrize("name", FIXED_PRESETS)
@pytest.mark.parametrize("x0", [0.0, 0.2])
def test_tree_branches_match_the_oracle_on_every_fixed_preset(solver, name, x0):
    # the phase-1, isolate, equal-or-vanish and peel-off children are what
    # the oracle gives for each node's recorded measurement; the x0 > 0
    # state starts with x0 removal and reaches isolated parties
    g = graph_catalog(name)
    if x0:
        weights = np.arange(1.0, g.n + 1.0)
        state = WState((1.0 - x0) * weights / weights.sum(), g.labels)
    else:
        state = standard_w(g.labels)
    tree = build_protocol_tree(state, g, epsilon=0.3, loop_cap=2, solver=solver)
    assert_tree_matches_the_oracle(tree, g)


def reference_nodes(root):
    """The distinct decision nodes below ``root``, each one after all of
    its children (the root last), by a depth-first walk over the DAG."""
    # in a DAG a node is finished before its other stack entries pop
    done: dict[DecisionNode, None] = {}
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            done[node] = None
        elif isinstance(node, DecisionNode) and node not in done:
            stack.append((node, True))
            stack.extend((child, False) for _, child in reversed(node.children))
    return tuple(done)


def table_trees():
    """The trees whose node tables are checked: the ``TREE_CAPS`` graphs at
    the standard W state and at their pinned x0 > 0 state, the EV trees of
    the fixed presets at random x0 = 0 states, and IV at loop cap 1000."""
    for name, cap in TREE_CAPS.items():
        g = named_graph(name)
        for tag in ("W", "x0"):
            yield f"{name} {tag}", build_protocol_tree(tree_states(name)[tag], g, TREE_EPSILON, cap)
    rng = np.random.default_rng(22)
    for name in FIXED_PRESETS:
        g = graph_catalog(name)
        for i in range(5):
            state = WState(random_w_state(rng, g.n, x0_zero=True).components, g.labels)
            yield f"ev {name} {i}", ev_tree(state, g)
    g = graph_catalog("IV")
    yield "IV cap 1000", build_protocol_tree(standard_w(g.labels), g, loop_cap=MAX_LOOP_CAP)


def node_table_mismatch():
    """The first tree of :func:`table_trees` whose ``nodes`` are not the
    nodes of :func:`reference_nodes`, the same objects in the same order,
    or None."""
    for what, tree in table_trees():
        if tree.nodes != reference_nodes(tree.root):  # decision nodes compare by identity
            return what
    return None


def reversed_table_tree(root, epsilon, loop_cap, nodes):
    """A planted fault: a builder that hands its tree the table reversed."""
    return ProtocolTree(root, epsilon, loop_cap, nodes[::-1])


def test_the_node_table_is_the_reference_walk(monkeypatch):
    assert node_table_mismatch() is None
    monkeypatch.setattr(lpo_mod, "ProtocolTree", reversed_table_tree)
    assert node_table_mismatch() is not None


def unshared_value(node, credit_truncation):
    """The tree value by a plain recursive walk that revisits every
    shared node."""
    if isinstance(node, Epr):
        return 1.0
    if isinstance(node, Failure):
        return 0.0
    if isinstance(node, TruncationLeaf):
        return node.continuation_value if credit_truncation else 0.0
    return sum(p * unshared_value(child, credit_truncation) for p, child in node.children)


def unrolled_leaf_probabilities(node, pathp, acc):
    """Path probability per leaf label, summed path by path over the
    unrolled tree."""
    if not isinstance(node, DecisionNode):
        acc[node.label()] = acc.get(node.label(), 0.0) + pathp
        return acc
    for p, child in node.children:
        unrolled_leaf_probabilities(child, pathp * p, acc)
    return acc


def unrolled_truncation_mass(node, pathp):
    """Path probability of the truncation leaves, summed path by path."""
    if isinstance(node, TruncationLeaf):
        return pathp
    if not isinstance(node, DecisionNode):
        return 0.0
    return sum(unrolled_truncation_mass(child, pathp * p) for p, child in node.children)


def test_tree_builds_each_distinct_subtree_once(solver):
    g = graph_catalog("complete", 5)
    tree = build_protocol_tree(standard_w(g.labels), g, loop_cap=3, solver=solver)
    assert len(reference_nodes(tree.root)) <= 250
    assert tree.node_count() == 5_569
    for credit in (True, False):
        assert tree.analytic_value(credit) == unshared_value(tree.root, credit)


def test_leaf_mass_pass_matches_the_unrolled_paths(solver):
    # one pass over the node table sums the paths in another order than
    # the path-by-path walk, so the two agree to rounding
    g = graph_catalog("complete", 5)
    tree = build_protocol_tree(standard_w(g.labels), g, loop_cap=3, solver=solver)
    want = unrolled_leaf_probabilities(tree.root, 1.0, {})
    got = tree.leaf_probabilities()
    assert set(got) == set(want)
    assert max(abs(got[label] - want[label]) for label in got) <= 1e-15
    truncated = unrolled_truncation_mass(tree.root, 1.0)
    assert 0.0 < truncated < 1.0
    assert abs(tree.truncation_mass() - truncated) <= 1e-15


def test_shared_tree_matches_the_oracle_at_a_large_loop_cap(solver):
    # 173,121 unrolled nodes, but each of the 593 distinct decision nodes
    # is checked once
    g = graph_catalog("complete", 5)
    tree = build_protocol_tree(standard_w(g.labels), g, loop_cap=10, solver=solver)
    assert tree.node_count() == 173_121
    assert len(reference_nodes(tree.root)) == 593
    assert_tree_matches_the_oracle(tree, g)


def deepest_branch(tree):
    """Decision nodes on the longest root-to-leaf path, found without
    recursion."""
    levels: dict[int, int] = {}
    stack = [tree.root]
    while stack:
        node = stack[-1]
        pending = [
            c for _, c in node.children if isinstance(c, DecisionNode) and id(c) not in levels
        ]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        levels[id(node)] = 1 + max(levels.get(id(c), 0) for _, c in node.children)
    return levels[id(tree.root)]


def test_tree_depth_is_capped(solver):
    # each triangle loop takes three decision levels
    g = graph_catalog("triangle")
    w = standard_w(g.labels)
    tree = build_protocol_tree(w, g, loop_cap=MAX_LOOP_CAP, solver=solver)
    assert deepest_branch(tree) == 3 * MAX_LOOP_CAP == 3_000
    with pytest.raises(PreconditionError, match="loop_cap"):
        build_protocol_tree(w, g, loop_cap=MAX_LOOP_CAP + 1, solver=solver)


def test_deep_trees_leave_the_recursion_limit_alone(solver):
    # 3,000 decision levels, walked under the interpreter's own limit
    limit = sys.getrecursionlimit()
    g = graph_catalog("triangle")
    tree = build_protocol_tree(standard_w(g.labels), g, loop_cap=MAX_LOOP_CAP, solver=solver)
    assert tree.analytic_value() > 0.99
    assert sum(tree.leaf_probabilities().values()) == pytest.approx(1.0, abs=1e-12)
    payload = json.loads(json.dumps(tree.to_json()))
    assert sum("phase" in entry for entry in payload["nodes"]) == len(tree.nodes) == 3_001
    assert payload["nodes"][payload["root"]]["label"].endswith("c1")
    assert tree.to_dot().count(" -> ") == sum(len(node.children) for node in tree.nodes)
    assert simulate(tree, 10_000, seed=3).success_rate > 0.99
    assert sys.getrecursionlimit() == limit


def test_dot_labels_are_escaped_dot_strings(solver):
    labels = ('a"b', "c\\d", "e")
    g = ConfigGraph(labels, [(labels[0], labels[1]), (labels[1], labels[2]), (labels[0], labels[2])])
    tree = build_protocol_tree(standard_w(labels), g, loop_cap=2, solver=solver)
    names = {i: node.label() for node, i in tree._ids().items()}
    quoted = re.findall(r'^  n(\d+) \[label=("(?:[^"\\]|\\.)*")(?: shape=oval)?\];$', tree.to_dot(), re.M)
    assert len(quoted) == len(names)
    assert any('"' in name and "\\" in name for name in names.values())
    for i, text in quoted:
        assert re.sub(r"\\(.)", r"\1", text[1:-1]) == names[int(i)]


def test_tree_rejects_bad_parameters(solver):
    g = graph_catalog("wedge")
    s = standard_w(g.labels)
    with pytest.raises(PreconditionError):
        build_protocol_tree(s, g, epsilon=0.7)
    with pytest.raises(PreconditionError, match="rounds to 1"):
        build_protocol_tree(s, g, epsilon=1e-17)
    with pytest.raises(PreconditionError):
        build_protocol_tree(s, g, loop_cap=0)


@pytest.mark.parametrize("loop_cap", [2.5, 3.0, "3", True], ids=["fraction", "float", "string", "bool"])
def test_tree_rejects_a_loop_cap_that_is_not_an_integer(loop_cap):
    g = graph_catalog("wedge")
    with pytest.raises(PreconditionError, match="loop_cap must be an integer"):
        build_protocol_tree(standard_w(g.labels), g, loop_cap=loop_cap)


def test_tree_takes_a_numpy_integer_loop_cap(solver):
    g = graph_catalog("triangle")
    want = build_protocol_tree(standard_w(g.labels), g, loop_cap=3, solver=solver)
    got = build_protocol_tree(standard_w(g.labels), g, loop_cap=np.int64(3), solver=solver)
    assert type(got.loop_cap) is int
    assert json.dumps(got.to_json()) == json.dumps(want.to_json())


def test_tree_works_out_each_state_once_whatever_the_loop_cap(monkeypatch):
    # every cycle of a loop meets the same states, so a longer loop adds
    # nodes but no per-state work: no more _decide calls or WState builds;
    # the solver is warm, so no peel-off walk decides anything
    g = graph_catalog("IV")
    w = standard_w(g.labels)
    solver = PhaseThreeSolver()
    build_protocol_tree(w, g, loop_cap=2, solver=solver)  # fills the solver's memo
    calls = {"decide": 0, "wstate": 0}

    def counting_decide(*args):
        calls["decide"] += 1
        return decide(*args)

    def counting_wstate(*args):
        calls["wstate"] += 1
        return WState(*args)

    decide = lpo_mod._decide
    monkeypatch.setattr(lpo_mod, "_decide", counting_decide)
    monkeypatch.setattr(lpo_mod, "WState", counting_wstate)
    seen = {}
    for cap in (20, 200):
        calls.update(decide=0, wstate=0)
        tree = build_protocol_tree(w, g, loop_cap=cap, solver=solver)
        seen[cap] = (dict(calls), tree.node_count())
    assert seen[20][0] == seen[200][0]
    assert 0 < seen[20][0]["decide"] and 0 < seen[20][0]["wstate"]
    assert seen[20][1] < seen[200][1]


# ---------------------------------------------------------------------------
# the paw-graph closed form and its weak-measurement response


def test_paw_closed_form_matches_engine_on_its_own_labeling(solver):
    g = ConfigGraph("ABCD", [("A", "B"), ("A", "C"), ("A", "D"), ("B", "D")])
    rng = np.random.default_rng(8)
    for _ in range(50):
        x = np.sort(rng.dirichlet(np.ones(4)))[::-1]
        st = WState(x, g.labels)
        assert p_lpo(st, g, solver) == pytest.approx(paw_closed_form(tuple(x)), abs=1e-10)


def test_paw_closed_form_requires_sorted_input():
    with pytest.raises(PreconditionError):
        paw_closed_form((0.2, 0.3, 0.3, 0.2))


def test_weak_improvement_zero_cases():
    assert g6_weak_improvement(0.2, 0.0).numeric_delta == pytest.approx(0.0, abs=1e-15)
    small = g6_weak_improvement(1e-6, 0.02)
    assert abs(small.numeric_delta) < 1e-9
    assert abs(small.quadratic_expression) < 1e-9


def test_weak_improvement_surfaces_the_sign_discrepancy(solver):
    # direct two-outcome average, frozen from an independent evaluation
    # via the engine on both post-measurement states
    rep = g6_weak_improvement(0.24, 0.02)
    s = WState([1 - 3 * 0.24, 0.24, 0.24, 0.24])
    g = ConfigGraph("ABCD", [("A", "B"), ("A", "C"), ("A", "D"), ("B", "D")])
    from wdistill import LocalMeasurement

    m = LocalMeasurement.diagonal("A", [(0.51, 0.49), (0.49, 0.51)])
    total = 0.0
    for p, post in apply_measurement(s, m):
        total += p * p_lpo(post, g, solver)
    engine_delta = total - p_lpo(s, g, solver)
    assert rep.numeric_delta == pytest.approx(engine_delta, abs=1e-9)
    assert rep.numeric_delta > 0.0  # the direct average really does increase
    assert rep.quadratic_expression < 0.0  # the printed response never does
    # both are quadratically small in delta
    quarter = g6_weak_improvement(0.24, 0.01)
    assert quarter.numeric_delta == pytest.approx(rep.numeric_delta / 4, rel=5e-2)


def test_weak_improvement_negative_for_small_t():
    rep = g6_weak_improvement(0.10, 0.02)
    assert rep.numeric_delta < 0.0
    assert rep.quadratic_expression < 0.0


def test_weak_improvement_domain():
    with pytest.raises(PreconditionError):
        g6_weak_improvement(0.3, 0.01)
    with pytest.raises(PreconditionError):
        g6_weak_improvement(0.2, 1.5)
