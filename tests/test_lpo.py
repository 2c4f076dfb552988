import gc
import math
import types

import numpy as np
import pytest

from wdistill import lpo as lpo_mod
from wdistill import (
    ConfigGraph,
    Epr,
    FAILURE,
    Failure,
    PreconditionError,
    Residual,
    WState,
    apply_measurement,
    build_protocol_tree,
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
    standard_w,
    statevector_oracle,
)
from wdistill.lpo import MAX_TREE_LEVELS, DecisionNode, PhaseThreeSolver, TruncationLeaf
from wdistill.verify import ORACLE_TOL

SQRT3 = math.sqrt(3.0)
FIXED_PRESETS = ["wedge", "triangle", "I", "I'", "I''", "II", "III-a", "III-b", "III-c", "IV", "V", "VI"]


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


def test_f_alpha_two_edge_three_party(solver):
    g = graph_catalog("wedge")
    for a in (0.0, 0.2, 0.5, 0.8):
        want = (2 / 3) * (1 - a) + (2 / 3) * (1 - a) * a
        assert f_alpha(g.labels, g, a, solver) == pytest.approx(want, abs=1e-12)


def test_f_alpha_paw_rational_identity(solver):
    g = graph_catalog("VI")
    for a in (0.1, 0.45, 0.9):
        got = f_alpha(g.labels, g, a, solver) / (1 - a ** 3)
        want = (0.75 + a + a * a / 2) / (1 + a + a * a)
        assert got == pytest.approx(want, abs=1e-12)


def test_f_alpha_five_edge_rational_identity(solver):
    g = graph_catalog("IV")
    for a in (0.15, 0.5, 0.85):
        got = f_alpha(g.labels, g, a, solver) / (1 - a ** 3)
        want = (0.75 + a + 0.75 * a * a) / (1 + a + a * a)
        assert got == pytest.approx(want, abs=1e-12)


def test_f_alpha_constant_when_least_party_isolated(solver):
    # one pair plus an isolated node: both branches reach the same pair
    g = ConfigGraph("ABC", [("B", "C")])
    for a in (0.0, 0.3, 0.7):
        assert f_alpha(g.labels, g, a, solver) == pytest.approx(2 / 3, abs=1e-12)


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
            direct = f_alpha(g.labels, g, float(a), solver)
            assert np.polynomial.polynomial.polyval(a, coef) == pytest.approx(
                direct, abs=1e-10
            )


def test_p3_report_objective_evaluates_anywhere(solver):
    g = graph_catalog("VI")
    rep = p3(g.labels, g, solver)
    for a in (0.0, 0.3, 0.7, 0.95):
        want = f_alpha(g.labels, g, a, solver) / (1 - a ** 3)
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


def decision_nodes(tree):
    """The distinct DecisionNode objects reachable from the root."""
    found, stack = {}, [tree.root]
    while stack:
        node = stack.pop()
        if isinstance(node, DecisionNode) and id(node) not in found:
            found[id(node)] = node
            stack.extend(child for _, child in node.children)
    return list(found.values())


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


def test_tree_builds_each_distinct_subtree_once(solver):
    g = graph_catalog("complete", 5)
    tree = build_protocol_tree(standard_w(g.labels), g, loop_cap=3, solver=solver)
    assert len(decision_nodes(tree)) <= 250
    assert tree.node_count() == 5_569
    for credit in (True, False):
        assert tree.analytic_value(credit) == unshared_value(tree.root, credit)


def test_shared_tree_matches_the_oracle_at_a_large_loop_cap(solver):
    # 173,121 unrolled nodes, but each of the 593 distinct decision nodes
    # is checked once
    g = graph_catalog("complete", 5)
    tree = build_protocol_tree(standard_w(g.labels), g, loop_cap=10, solver=solver)
    assert tree.node_count() == 173_121
    assert len(decision_nodes(tree)) == 593
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
    cap = MAX_TREE_LEVELS // 3
    assert deepest_branch(build_protocol_tree(w, g, loop_cap=cap, solver=solver)) == MAX_TREE_LEVELS
    with pytest.raises(PreconditionError, match="decision levels"):
        build_protocol_tree(w, g, loop_cap=cap + 1, solver=solver)


def test_tree_rejects_bad_parameters(solver):
    g = graph_catalog("wedge")
    s = standard_w(g.labels)
    with pytest.raises(PreconditionError):
        build_protocol_tree(s, g, epsilon=0.7)
    with pytest.raises(PreconditionError):
        build_protocol_tree(s, g, loop_cap=0)


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
