import itertools
import math

import numpy as np
import pytest

from wdistill import (
    ConfigGraph,
    GraphMatchError,
    InvalidInputError,
    PreconditionError,
    WState,
    bound_config,
    gamma,
    graph_catalog,
    p_fl,
    p_lpo,
    pair_distillation_bound,
    pairs_comparison,
    random_w_state,
    resolve_bound,
    standard_w,
    tau,
    tau6,
    two_party_schmidt_weights,
    w_target_bound,
)
from wdistill.bounds import _FOUR_PARTY_PRESETS, SEP_REFERENCES, _four_party_preset, _pad_to_four
from wdistill.lpo import PhaseThreeSolver


@pytest.fixture(scope="module")
def solver():
    return PhaseThreeSolver()


# ---------------------------------------------------------------------------
# tau


def test_tau_standard_w_on_each_unconnected_pairs_graph():
    s = standard_w("ABCD")
    for name in ("III-a", "III-b", "III-c"):
        assert tau(s, graph_catalog(name)).value == pytest.approx(2 / 3, abs=1e-12)


def test_tau_square_worked_example():
    g = graph_catalog("III-c")
    s = WState([0.4, 0.3, 0.2, 0.1], g.labels)
    rep = tau(s, g)
    assert rep.value == pytest.approx(0.675, abs=1e-12)
    assert rep.role_assignment == {"n1": "A", "n1'": "C", "p": "B", "p'": "D"}


def test_tau_collapses_when_one_partner_is_empty():
    g = graph_catalog("III-a")
    s = WState([0.5, 0.0, 0.3, 0.2], g.labels)  # one of p, p' carries nothing
    rep = tau(s, g)
    roles = rep.role_assignment
    xs = {r: s.component(l) for r, l in roles.items()}
    assert rep.value == pytest.approx(2 * max(xs["p"], xs["p'"]), abs=1e-12)


def test_tau_rejects_other_graphs():
    s = standard_w("ABCD")
    for name in ("I", "II", "IV", "V", "VI"):
        with pytest.raises(GraphMatchError):
            tau(s, graph_catalog(name))


# ---------------------------------------------------------------------------
# gamma


def test_gamma_standard_w():
    assert gamma(standard_w("ABCD"), graph_catalog("IV")).value == pytest.approx(
        5 / 6, abs=1e-12
    )


def test_gamma_degenerate_two_terms():
    g = graph_catalog("IV")
    # dominant party has three edges; its complementary partner and the
    # other degree-2 party carry nothing
    s = WState([0.6, 0.4, 0.0, 0.0], g.labels)
    rep = gamma(s, g)
    assert rep.role_assignment["n1"] == "A"
    assert rep.value == pytest.approx(2 * s.component(rep.role_assignment["e3"]), abs=1e-12)


def test_gamma_matches_protocol_value_on_random_states(solver):
    g = graph_catalog("IV")
    rng = np.random.default_rng(77)
    for _ in range(100):
        s = WState(rng.dirichlet(np.ones(4)), g.labels)
        assert gamma(s, g).value == pytest.approx(p_lpo(s, g, solver), abs=1e-8)


def test_gamma_rejects_other_graphs():
    with pytest.raises(GraphMatchError):
        gamma(standard_w("ABCD"), graph_catalog("V"))


# ---------------------------------------------------------------------------
# star family, triangle plus spectator, complete


def test_bound_config_standard_w_values():
    assert bound_config(standard_w("ABCD"), graph_catalog("II")).value == pytest.approx(0.75)
    assert bound_config(standard_w("ABCD"), graph_catalog("V")).value == pytest.approx(1.0)


def test_bound_config_single_edge_reduction():
    g = graph_catalog("I")
    s = WState([0.5, 0.2, 0.2, 0.1], g.labels)
    rep = bound_config(s, g)
    assert rep.applicable
    assert rep.value == pytest.approx(0.4, abs=1e-12)


def test_bound_config_two_edge_star_ignores_the_spectator():
    g = graph_catalog("I'")
    base = None
    for xd in (0.0, 0.05, 0.10):
        comps = [0.5, 0.25, 0.25 - xd, xd]
        rep = bound_config(WState(comps, g.labels), g)
        base = rep.value if base is None else base
        a, b, c = comps[0], comps[1], comps[2]
        assert rep.value == pytest.approx(2 * a - 2 * (a - b) * (a - c) / a, abs=1e-12)


def test_bound_config_fallback_when_center_not_maximal():
    g = graph_catalog("I''")
    s = WState([0.2, 0.5, 0.2, 0.1], g.labels)  # center A lags behind B
    rep = bound_config(s, g)
    assert not rep.applicable
    assert rep.value == pytest.approx(0.4, abs=1e-12)  # 2 x_center
    assert rep.value >= p_lpo(s, g, PhaseThreeSolver()) - 1e-8


def test_bound_config_rejects_unknown_families():
    with pytest.raises(GraphMatchError):
        bound_config(standard_w("ABCD"), graph_catalog("VI"))


def test_bounds_dominate_protocol_on_random_states(solver):
    rng = np.random.default_rng(13)
    cases = [
        ("I", bound_config), ("I'", bound_config), ("I''", bound_config),
        ("II", bound_config), ("V", bound_config),
        ("III-a", tau), ("III-b", tau), ("III-c", tau), ("IV", gamma),
    ]
    for _ in range(40):
        x = rng.dirichlet(np.ones(5))[1:]  # x0 >= 0
        for name, fn in cases:
            g = graph_catalog(name)
            s = WState(x, g.labels)
            assert fn(s, g).value >= p_lpo(s, g, solver) - 1e-8


# ---------------------------------------------------------------------------
# conversion bounds toward the standard W state


def test_pair_bound_matches_schmidt_weights():
    for n in (3, 5, 8):
        for t in np.linspace(0.01, 1 / n, 7):
            merged = (1 - n * t, t, (n - 1) * t)  # party 1 versus the rest
            _, small = two_party_schmidt_weights(*merged)
            assert pair_distillation_bound(n, float(t)) == pytest.approx(
                2 * small, abs=1e-12
            )


def test_w_target_bound_edges():
    for n in (3, 4, 6, 8):
        assert w_target_bound(n, 1.0 / n) == pytest.approx(1.0, abs=1e-12)
        assert w_target_bound(n, 0.0) == 0.0
        for t in np.linspace(1e-3, 1 / n - 1e-9, 50):
            assert w_target_bound(n, float(t)) < n * t


@pytest.mark.parametrize("n", [10**8, 10**17])
def test_w_target_bound_is_one_at_t_one_over_n_for_large_n(n):
    assert w_target_bound(n, 1.0 / n) == pytest.approx(1.0, abs=1e-12)


def test_w_target_bound_domain():
    with pytest.raises(PreconditionError):
        w_target_bound(4, 0.3)
    with pytest.raises(PreconditionError):
        w_target_bound(4, -0.01)


# ---------------------------------------------------------------------------
# six parties and the pairs comparison


def test_tau6_standard_w_value():
    s = standard_w("123456")
    assert tau6(s) == pytest.approx(8 / 15, abs=1e-12)


def test_tau6_requires_sorted_six_party_input():
    with pytest.raises(PreconditionError):
        tau6(WState([0.1, 0.2, 0.2, 0.2, 0.2, 0.1]))
    with pytest.raises(PreconditionError):
        tau6(WState([0.25] * 4))


def test_tau6_two_empty_parties_reduce_to_the_four_party_value(solver):
    # with 2, 3 or 4 trailing parties at weight 0 (x3 = 0 from 4 on, where
    # tau6 is 2 x2), tau6 is the value of the protocol on the six parties
    g4 = graph_catalog("pairs", 4)
    g6 = graph_catalog("pairs", 6)
    rng = np.random.default_rng(19)
    for _ in range(40):
        x4 = np.sort(rng.dirichlet(np.ones(4)))[::-1]
        s6 = WState(list(x4) + [0.0, 0.0])
        s4 = WState(x4, g4.labels)
        assert tau6(s6) == pytest.approx(p_lpo(s4, g4, solver), abs=1e-10)
    for zeros in (2, 3, 4):
        for _ in range(40):
            x = np.sort(rng.dirichlet(np.ones(6 - zeros)))[::-1]
            s6 = WState(list(x) + [0.0] * zeros, g6.labels)
            assert tau6(s6) == pytest.approx(p_lpo(s6, g6, solver), abs=1e-10), (zeros, x)
    for x, want in (([0.5, 0.5], 1.0), ([0.7, 0.3], 0.6)):
        s6 = WState(x + [0.0] * 4, g6.labels)
        assert tau6(s6) == pytest.approx(want, abs=1e-15)
        assert p_lpo(s6, g6, solver) == pytest.approx(want, abs=1e-15)


def test_tau6_equals_baseline_at_the_uniform_state(solver):
    # at the standard W state the six-party expression is the protocol's
    # 8/15, which beats the subset-averaging baseline's 2/5 by exactly
    # 2/15 (see docs/decisions.md)
    g6 = graph_catalog("pairs", 6)
    s6 = WState([1 / 6] * 6, g6.labels)
    assert tau6(s6) == pytest.approx(8 / 15, abs=1e-12)
    assert tau6(s6) == pytest.approx(p_lpo(s6, g6, solver), abs=1e-10)
    assert p_fl(g6) == pytest.approx(2 / 5, abs=1e-12)
    assert tau6(s6) - p_fl(g6) == pytest.approx(2 / 15, abs=1e-12)


def test_pairs_comparison_values():
    assert pairs_comparison(2) == pytest.approx((2 / 3, math.sqrt(0.5)), abs=1e-12)
    assert pairs_comparison(3) == pytest.approx((0.4, math.sqrt(1 / 3)), abs=1e-12)
    for n in range(2, 30):
        lpo_v, sep_v = pairs_comparison(n)
        assert sep_v > lpo_v  # separable operations strictly dominate
    lpo_v, sep_v = pairs_comparison(10 ** 6)
    assert lpo_v / sep_v < 1e-2  # ratio drains away with the pair count


def test_pairs_closed_form_matches_baseline_recursion(solver):
    # the quoted 2/(2N-1) is exactly the subset-averaging baseline; the
    # protocol recursion matches it for two pairs and beats it afterwards
    for n_pairs in (2, 3, 4):
        g = graph_catalog("pairs", 2 * n_pairs)
        assert pairs_comparison(n_pairs)[0] == pytest.approx(p_fl(g), abs=1e-12)
    g4 = graph_catalog("pairs", 4)
    assert p_lpo(standard_w(g4.labels), g4, solver) == pytest.approx(2 / 3, abs=1e-10)
    for n_pairs in (3, 4):
        g = graph_catalog("pairs", 2 * n_pairs)
        engine = p_lpo(standard_w(g.labels), g, solver)
        assert engine > pairs_comparison(n_pairs)[0] + 0.05


# ---------------------------------------------------------------------------
# bound lookup


def test_resolve_bound_pads_small_systems(solver):
    wedge = graph_catalog("wedge")
    s = WState([0.5, 0.3, 0.2], wedge.labels)
    rep = resolve_bound(s, wedge)
    assert rep.bound_name == "I'"
    assert rep.value == pytest.approx(p_lpo(s, wedge, solver), abs=1e-8)
    tri = graph_catalog("triangle")
    rep = resolve_bound(WState([0.5, 0.3, 0.2], tri.labels), tri)
    assert rep.bound_name == "II"
    assert rep.value == pytest.approx(0.88, abs=1e-10)


def test_the_padded_graph_is_kept_per_label_order():
    # a two- or three-party graph keeps one padded graph per state label
    # order, and bounds read through it equal those on a fresh graph
    rng = np.random.default_rng(24)
    for name in ("wedge", "triangle"):
        g = graph_catalog(name)
        for labels in (g.labels, g.labels[::-1]):
            padded = set()
            for _ in range(5):
                state = WState(random_w_state(rng, g.n).components, labels)
                fresh = ConfigGraph(g.labels, g.edges)
                assert repr(resolve_bound(state, g)) == repr(resolve_bound(state, fresh))
                padded.add(id(_pad_to_four(state, g)[1]))
            assert len(padded) == 1
        assert sorted(g._kept) == sorted(("padded", l) for l in (g.labels, g.labels[::-1]))


def test_resolve_bound_paw_reference_constant():
    g = graph_catalog("VI")
    rep = resolve_bound(standard_w(g.labels), g)
    assert rep.value == SEP_REFERENCES["paw-W4"]["value"]
    assert "reference" in rep.bound_name
    # non-uniform states on the paw graph have no proven bound
    assert resolve_bound(WState([0.4, 0.3, 0.2, 0.1], g.labels), g) is None


def test_resolve_bound_none_for_large_systems():
    g = graph_catalog("pairs", 6)
    assert resolve_bound(standard_w(g.labels), g) is None


def test_resolve_bound_on_states_without_weight(solver):
    # every formula divides by a dominant weight; an all-zero state has no
    # bound, and a triangle without weight is bounded by 0
    for name in ("wedge", "triangle", "III-c", "IV", "V"):
        g = graph_catalog(name)
        assert resolve_bound(WState([0.0] * g.n, g.labels), g) is None
    g = graph_catalog("II")
    s = WState([0.0, 0.0, 0.0, 0.5], g.labels)
    assert resolve_bound(s, g).value == 0.0 == p_lpo(s, g, solver)


@pytest.mark.parametrize(
    "bound,presets",
    [(tau, ["III-a", "III-b", "III-c"]), (gamma, ["IV"]), (bound_config, ["I", "I'", "I''", "II", "V"])],
    ids=["tau", "gamma", "bound_config"],
)
def test_bounds_reject_states_without_weight(bound, presets):
    # each formula divides by a dominant weight
    for name in presets:
        g = graph_catalog(name)
        with pytest.raises(PreconditionError, match="no weight"):
            bound(WState([0.0] * g.n, g.labels), g)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("position", [0, 1, 2])
def test_schmidt_weights_reject_non_finite_weights(bad, position):
    # (nan, 0.5, 0.5) and (0.0, nan, 1.0) once gave (0.5, 0.5)
    for weights in ([0.0, 0.5, 0.5], [0.0, 0.0, 1.0]):
        weights[position] = bad
        with pytest.raises(InvalidInputError):
            two_party_schmidt_weights(*weights)


FOUR_NODE_PRESETS = ["I", "I'", "I''", "II", "III-a", "III-b", "III-c", "IV", "V", "VI"]


def degree_scan_preset(g):
    """The preset named by the sorted degrees counted off the edge list."""
    return _FOUR_PARTY_PRESETS.get(tuple(sorted(sum(l in e for e in g.edges) for l in g.labels)))


def four_party_mismatch():
    """The first graph, over all 64 edge sets on A..D in all 24 label
    orders, that :func:`_four_party_preset` names other than both the
    degree scan and every relabelling of every four-node catalog preset
    do, or None."""
    labels = "ABCD"
    pairs = list(itertools.combinations(labels, 2))
    relabelled = {}
    for name in FOUR_NODE_PRESETS:
        for perm in itertools.permutations(labels):
            rename = dict(zip(labels, perm))
            edges = graph_catalog(name).edges
            relabelled.setdefault(frozenset(tuple(sorted(rename[v] for v in e)) for e in edges), name)
    assert len(relabelled) == 63  # every labelled graph but the empty one
    for mask in range(64):
        edges = [pair for i, pair in enumerate(pairs) if mask >> i & 1]
        for order in itertools.permutations(labels):
            g = ConfigGraph(order, edges)
            if not _four_party_preset(g) == degree_scan_preset(g) == relabelled.get(g.edges):
                return g
    return None


def test_four_party_classifier_agrees_with_brute_force_isomorphism():
    assert four_party_mismatch() is None
    assert _four_party_preset(graph_catalog("triangle")) is None


def test_four_party_classifier_check_catches_an_unsorted_degree_sequence(monkeypatch):
    # a planted fault: the degrees in label order, not sorted
    unsorted = property(lambda g: tuple(m.bit_count() for m in g._masks))
    monkeypatch.setattr(ConfigGraph, "_degree_sequence", unsorted)
    assert four_party_mismatch() is not None
