import math

import numpy as np
import pytest

from wdistill import (
    FAILURE,
    ConfigGraph,
    InvalidInputError,
    PreconditionError,
    StandardW,
    WState,
    ev_distribution,
    ev_measurement,
    ev_tree,
    full_set_lambda,
    graph_catalog,
    standard_w,
    statevector_oracle,
)
from wdistill.evroutine import _select, ev_order_sensitivity
from wdistill.lpo import _peel_step, _peel_walk
from wdistill.mc import random_w_state


def y_alpha_state(alpha, heavy="D"):
    labels = ("A", "B", "C", "D")
    comps = [alpha / (1 + 3 * alpha)] * 4
    comps[labels.index(heavy)] = 1 / (1 + 3 * alpha)
    return WState(comps, labels)


def select(state, graph):
    return _select(state.components, state.labels, graph.edges)


def test_select_terminal_on_uniform_states():
    for name in ("V", "VI", "III-c"):
        g = graph_catalog(name)
        assert select(standard_w(g.labels), g) == ("terminal", None)


def test_select_measure_on_heavy_pendant():
    # heaviest party is the pendant D; only A is both lagging and adjacent
    g = graph_catalog("VI")
    assert select(y_alpha_state(0.4), g) == ("measure", "A")


def test_select_isolated_and_two_party_failure():
    g = ConfigGraph("ABC", [("B", "C")])
    assert select(standard_w("ABC"), g) == ("isolate", "A")
    g2 = ConfigGraph("AB", [])
    assert select(standard_w("AB"), g2) == ("fail2", None)


def test_select_requires_x0_zero():
    # the selection rules read raw components; the x0 = 0 precondition is
    # held by the public entry points of the subroutine
    g = graph_catalog("wedge")
    with pytest.raises(PreconditionError):
        ev_distribution(WState([0.3, 0.3, 0.2]), g)
    with pytest.raises(PreconditionError):
        ev_tree(WState([0.3, 0.3, 0.2]), g)


def test_ev_measurement_equal_branch_scales_other_components():
    alpha = 0.35
    s = y_alpha_state(alpha)
    m = ev_measurement(s, "A")
    outcomes = statevector_oracle(s, m)
    (p1, s1), (p2, s2) = outcomes
    # equal branch is proportional to (alpha, alpha^2, alpha^2, alpha)
    want = np.array([alpha, alpha ** 2, alpha ** 2, alpha])
    want /= want.sum()
    assert s1.components == pytest.approx(tuple(want), abs=1e-12)
    assert s1.component("A") == pytest.approx(s1.component("D"), abs=1e-12)
    assert s2.component("A") == 0.0


def test_ev_measurement_rejects_maximal_party():
    with pytest.raises(PreconditionError):
        ev_measurement(standard_w("ABC"), "B")


def test_ev_measurement_degenerate_near_tie():
    s = WState([0.5, 0.5 - 5e-13, 1e-12])
    with pytest.raises(PreconditionError):
        ev_measurement(s, "B")  # within the tie tolerance of the maximum
    # just outside the tolerance the equal branch is near-deterministic
    gap = 1e-10
    s2 = WState([0.5, 0.5 * (1 - gap), 0.5 * gap])
    m = ev_measurement(s2, "B")
    (p_equal, post), (p_vanish, _) = statevector_oracle(s2, m)
    assert p_equal > 1.0 - 1e-9
    assert post.component("B") == pytest.approx(post.component("A"), rel=1e-9)


def test_ev_distribution_standard_w_is_deterministic():
    for name in ("triangle", "V", "III-c"):
        g = graph_catalog(name)
        s = standard_w(g.labels)
        d = ev_distribution(s, g)
        assert d.probability(StandardW(g.labels)) == pytest.approx(1.0)


def test_ev_distribution_worked_example():
    s = WState([0.5, 0.3, 0.2])
    d = ev_distribution(s, graph_catalog("triangle"))
    assert d.probability(StandardW("ABC")) == pytest.approx(0.36, abs=1e-12)
    assert d.probability(StandardW("AB")) == pytest.approx(0.36, abs=1e-12)
    assert d.probability(StandardW("AC")) == pytest.approx(0.16, abs=1e-12)
    assert d.probability(FAILURE) == pytest.approx(0.12, abs=1e-12)
    assert full_set_lambda(s) == pytest.approx(0.36, abs=1e-14)


@pytest.mark.parametrize("alpha", [0.2, 0.37, 0.55, 0.8])
def test_ev_distribution_heavy_pendant_branch_weights(alpha):
    # exact branch weights for the peel-off state on the paw graph
    g = graph_catalog("VI")
    d = ev_distribution(y_alpha_state(alpha), g)
    norm = 1 + 3 * alpha
    assert d.probability(StandardW("BC")) == pytest.approx(2 * alpha * (1 - alpha) / norm, abs=1e-12)
    assert d.probability(StandardW("AD")) == pytest.approx(2 * alpha * (1 - alpha) ** 2 / norm, abs=1e-12)
    assert d.probability(StandardW("ABD")) == pytest.approx(3 * alpha ** 2 * (1 - alpha) / norm, abs=1e-12)
    assert d.probability(StandardW("ACD")) == pytest.approx(3 * alpha ** 2 * (1 - alpha) / norm, abs=1e-12)
    assert d.probability(StandardW("ABCD")) == pytest.approx(4 * alpha ** 3 / norm, abs=1e-12)


def test_full_set_lambda_closed_form_random():
    rng = np.random.default_rng(23)
    g_by_n = {n: graph_catalog("complete", n) for n in (3, 4, 5)}
    for _ in range(1000):
        n = int(rng.integers(3, 6))
        comps = rng.dirichlet(np.ones(n))
        if np.sort(comps)[-1] - np.sort(comps)[-2] < 1e-6:
            continue  # needs a unique maximum
        s = WState(comps, g_by_n[n].labels)
        d = ev_distribution(s, g_by_n[n])
        assert d.probability(StandardW(s.labels)) == pytest.approx(
            full_set_lambda(s), abs=1e-10
        )


def test_ev_distribution_total_probability():
    rng = np.random.default_rng(3)
    graphs = [graph_catalog(n) for n in ("wedge", "triangle", "I", "II", "IV", "VI")]
    graphs.append(graph_catalog("pairs", 6))
    for _ in range(200):
        g = graphs[int(rng.integers(len(graphs)))]
        s = random_w_state(rng, g.n, x0_zero=True)
        s = WState(s.components, g.labels)
        assert ev_distribution(s, g).total() == pytest.approx(1.0, abs=1e-9)


def test_branch_polynomial_structure():
    # at every alpha, the peel-off outcome 2 plus each equal-or-vanish
    # terminal weight times the outcome-1 probability is the sum of the
    # walked monomials |T|/n a^e (1 - a)^v over the paths that reach T
    cycle5 = ConfigGraph("ABCDE", [("A", "B"), ("B", "C"), ("C", "D"), ("D", "E"), ("A", "E")])
    for g in (graph_catalog("VI"), cycle5):
        labels, edges, n = tuple(g.labels), frozenset(g.edges), g.n
        paths = _peel_walk(labels, edges)
        for alpha in (0.0, 0.11, 0.37, 0.5, 0.83, 0.97):
            walked = {}
            for term, e, v in paths:
                walked[term] = walked.get(term, 0.0) + len(term) / n * alpha**e * (1 - alpha) ** v
            (p_alpha, y, _), *rest = _peel_step(labels, edges, alpha)[1]
            d = ev_distribution(WState(y, labels), g)
            sampled = {t.parties: p * p_alpha for t, p in d.items() if t is not FAILURE}
            for p, _, sub in rest:
                sampled[sub] = sampled.get(sub, 0.0) + p
            for term in walked.keys() | sampled.keys():
                want = sampled.get(term, 0.0)
                assert walked.get(term, 0.0) == pytest.approx(want, abs=1e-12), (g, alpha, term)


def test_ev_tree_depth_and_dot_export():
    s = WState([0.4, 0.3, 0.2, 0.1])
    g = graph_catalog("VI")
    tree = ev_tree(s, g)
    depth: dict = {}  # a leaf is never a key and has depth 1
    for node in tree.nodes:
        depth[node] = 1 + max(depth.get(c, 1) for _, c in node.children)
    assert depth[tree.root] <= 2 * 4
    dot = tree.to_dot()
    assert dot.startswith("digraph")
    assert "W2(" in dot or "W3(" in dot or "W4(" in dot


EV_TREE_GRAPHS = (
    "wedge", "triangle", "I", "I'", "I''", "II", "III-a", "III-b", "III-c", "IV", "V", "VI",
    "complete:5", "pairs:6", "two-party",
)


@pytest.mark.parametrize("name", EV_TREE_GRAPHS)
def test_ev_tree_leaves_are_the_ev_distribution(name):
    # the protocol builder's walk, stopped at standard W states, against
    # the independent enumeration; the builder drops a party of zero
    # weight where the enumeration measures it away
    if name == "two-party":
        g = ConfigGraph("AB", [("A", "B")])
    else:
        preset, _, size = name.partition(":")
        g = graph_catalog(preset, int(size) if size else None)
    rng = np.random.default_rng(sum(map(ord, name)))
    states = [WState(random_w_state(rng, g.n, x0_zero=True).components, g.labels) for _ in range(100)]
    states.append(WState([1.0 / (g.n - 1)] * (g.n - 1) + [0.0], g.labels))
    for s in states:
        tree = ev_tree(s, g)
        assert {node.phase for node in tree.nodes} <= {"ev", "isolate"}
        got = tree.leaf_probabilities()
        want = {t.label(): p for t, p in ev_distribution(s, g).items()}
        assert got.keys() == want.keys()
        for label, p in want.items():
            assert got[label] == pytest.approx(p, abs=1e-14), (s, label)


def test_ev_tree_json_reports_no_success_values():
    # its StandardW leaves are where the EV routine stops, not failures
    g = graph_catalog("VI")
    payload = ev_tree(standard_w(g.labels), g).to_json()
    assert payload["loop_cap"] == 0
    assert not {"analytic_value", "success_lower_bound", "truncation_mass"} & payload.keys()
    assert any(entry.get("leaf", "").startswith("W") for entry in payload["nodes"])


def test_ev_tree_rejects_mismatched_labels():
    with pytest.raises(InvalidInputError):
        ev_tree(standard_w("ABD"), graph_catalog("triangle"))


def test_order_sensitivity_is_recorded():
    # the selection rules leave one tie-break open; record how much the
    # terminal weights move when it flips (observed: not at all)
    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(300):
        for name in ("VI", "IV", "III-b"):
            g = graph_catalog(name)
            s = WState(rng.dirichlet(np.ones(4)), g.labels)
            worst = max(worst, ev_order_sensitivity(s, g))
    print(f"\nmax terminal-probability shift under reversed tie-break: {worst:.3e}")
    assert math.isfinite(worst)
    assert worst <= 1e-9  # empirical: the enumeration is order-independent
