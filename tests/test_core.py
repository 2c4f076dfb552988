import itertools
import json
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wdistill import (
    ConfigGraph,
    InvalidInputError,
    InvalidMeasurementError,
    InvalidPartyError,
    LocalMeasurement,
    UnknownPresetError,
    WState,
    apply_measurement,
    bound_config,
    build_protocol_tree,
    ev_distribution,
    gamma,
    graph_catalog,
    kt_averages,
    p_fl,
    p_lpo,
    phase1_distribution,
    resolve_bound,
    standard_w,
    statevector_oracle,
    tau,
)
from wdistill.mc import random_measurement, random_w_state


def test_state_invariants():
    s = WState([0.5, 0.3, 0.2])
    assert s.x0 == 0.0
    assert s.labels == ("A", "B", "C")
    s2 = WState([0.3, 0.3, 0.2])
    assert abs(s2.x0 - 0.2) < 1e-12
    with pytest.raises(InvalidInputError):
        WState([0.9, 0.3])
    with pytest.raises(InvalidInputError):
        WState([1.0])
    with pytest.raises(InvalidInputError):
        WState([0.5, -0.1])


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), "x", None])
def test_state_rejects_non_numeric_and_non_finite_components(bad):
    with pytest.raises(InvalidInputError):
        WState([0.5, bad, 0.2])


def test_tiny_components_are_disentangled():
    s = WState([0.5, 1e-16, 0.5 - 1e-16])
    assert s.components[1] == 0.0


def test_identity_split_leaves_state_unchanged():
    s = standard_w("ABC")
    m = LocalMeasurement.diagonal("B", [(0.5, 0.5)] * 2)
    outcomes = apply_measurement(s, m)
    assert len(outcomes) == 2
    for p, post in outcomes:
        assert abs(p - 0.5) < 1e-12
        assert post.components == pytest.approx(s.components, abs=1e-12)


@pytest.mark.parametrize("size,alpha", [(3, 0.3), (4, 0.7), (5, 0.25)])
def test_peel_measurement_outcome_two(size, alpha):
    # diag(sqrt(a),1)/diag(sqrt(1-a),0) on a standard W state removes the
    # measuring party with probability (1-a)(n-1)/n
    labels = tuple("ABCDEFG"[:size])
    s = standard_w(labels)
    m = LocalMeasurement.diagonal("A", [(alpha, 1.0), (1.0 - alpha, 0.0)])
    (p1, s1), (p2, s2) = apply_measurement(s, m)
    assert abs(p2 - (1.0 - alpha) * (size - 1) / size) < 1e-12
    assert s2.component("A") == 0.0
    rest = [s2.component(l) for l in labels[1:]]
    assert rest == pytest.approx([1.0 / (size - 1)] * (size - 1), abs=1e-12)


def test_measurement_update_worked_example():
    s = WState([0.5, 0.3, 0.2])
    m = LocalMeasurement.diagonal("C", [(0.2 / 0.5, 1.0), (1.0 - 0.2 / 0.5, 0.0)])
    (p1, s1), (p2, s2) = apply_measurement(s, m)
    assert abs(p1 - 0.52) < 1e-12
    assert s1.components == pytest.approx((5 / 13, 3 / 13, 5 / 13), abs=1e-12)
    assert abs(p2 - 0.48) < 1e-12
    assert s2.components == pytest.approx((0.625, 0.375, 0.0), abs=1e-12)


def test_incomplete_measurement_rejected():
    s = standard_w("AB")
    bad = LocalMeasurement("A", [(0.5, 0.0, 0.5), (0.4, 0.0, 0.5)])
    want = r"measurement on 'A' is not complete: residuals \(-0\.0999.*, 0\.0, 0\.0\)"
    for update in (apply_measurement, statevector_oracle):
        with pytest.raises(InvalidMeasurementError, match=want):
            update(s, bad)


@pytest.mark.parametrize("outcomes", [
    [(0.5, 0.5)], [(0.5, 0.0, 0.5, 0.0)], [("x", 0, 1)], [(0.5, None, 0.5)], 5, [5], None,
    [(complex(1, 1), 0.0, 0.0)], [(10 ** 400, 0.0, 0.0)], "abc",
], ids=repr)
def test_outcomes_that_are_not_real_triples_are_rejected(outcomes):
    with pytest.raises(InvalidMeasurementError, match=r"not \(a, b, c\) triples of real numbers"):
        LocalMeasurement("A", outcomes)


@pytest.mark.parametrize("weights", [[(0.5,)], 5], ids=repr)
def test_diagonal_weights_that_are_not_pairs_get_the_constructors_error(weights):
    with pytest.raises(InvalidMeasurementError) as direct:
        LocalMeasurement("A", weights)
    with pytest.raises(InvalidMeasurementError) as diagonal:
        LocalMeasurement.diagonal("A", weights)
    assert str(diagonal.value) == str(direct.value)
    assert str(diagonal.value).endswith("are not (a, b, c) triples of real numbers")


@pytest.mark.parametrize("outcome", [(float("nan"), 0.0, 1.0), (1.0, 0.0, float("nan")),
                                     (np.float64("nan"), 0.0, 0.0)], ids=repr)
def test_nan_kraus_weights_are_rejected_at_construction(outcome):
    with pytest.raises(InvalidMeasurementError, match="NaN Kraus weight"):
        LocalMeasurement("A", [(0.5, 0.0, 0.5), outcome])


def test_a_negative_kraus_weight_keeps_its_message():
    with pytest.raises(InvalidMeasurementError, match=r"^negative Kraus weight in \(-0\.1, 0\.0, 1\.1\)$"):
        LocalMeasurement("A", [(-0.1, 0.0, 1.1), (1.1, 0.0, -0.1)])
    # a negative weight is reported as negative even beside a NaN
    with pytest.raises(InvalidMeasurementError, match="negative Kraus weight"):
        LocalMeasurement("A", [(float("nan"), 0.0, -0.5)])


def test_every_state_and_graph_entry_checks_the_parties_alike():
    state, g = standard_w("ABCD"), ConfigGraph("ABCZ", [("A", "B")])
    entries = [
        phase1_distribution, p_lpo, ev_distribution, tau, gamma, bound_config, resolve_bound,
        lambda s, g: build_protocol_tree(s, g, 1e-3, 3),
    ]
    for entry in entries:
        with pytest.raises(InvalidInputError, match="^state parties and graph nodes differ$"):
            entry(state, g)


def test_unknown_party_rejected():
    s = standard_w("AB")
    m = LocalMeasurement.diagonal("Z", [(0.5, 0.5)] * 2)
    with pytest.raises(InvalidPartyError):
        apply_measurement(s, m)


def test_outcome_probabilities_sum_to_one_randomized():
    rng = np.random.default_rng(11)
    for _ in range(300):
        n = int(rng.integers(2, 7))
        s = random_w_state(rng, n)
        m = random_measurement(rng, s.labels[int(rng.integers(n))])
        outcomes = apply_measurement(s, m)
        assert abs(sum(p for p, _ in outcomes) - 1.0) < 1e-12
        for p, post in outcomes:
            if post is not None:
                assert sum(post.components) <= 1.0 + 1e-12
                assert min(post.components) >= 0.0


def test_kt_identity_split_all_zero():
    s = WState([0.4, 0.3, 0.2])
    deltas = kt_averages(s, apply_measurement(s, LocalMeasurement.diagonal("B", [(0.5, 0.5)] * 2)))
    assert deltas == pytest.approx((0.0,) * 4, abs=1e-12)


def test_kt_directions_random_diagonal_measurements():
    rng = np.random.default_rng(5)
    for _ in range(2000):
        n = int(rng.integers(2, 6))
        s = random_w_state(rng, n)
        a1 = float(rng.uniform(0.01, 0.99))
        c1 = float(rng.uniform(0.0, 1.0))
        m = LocalMeasurement.diagonal(
            s.labels[int(rng.integers(n))], [(a1, c1), (1.0 - a1, 1.0 - c1)]
        )
        deltas = kt_averages(s, apply_measurement(s, m))
        assert deltas[0] >= -1e-12
        assert max(deltas[1:]) <= 1e-12


def test_kt_direction_under_x0_removal():
    from wdistill import phase1_measurement

    rng = np.random.default_rng(17)
    for _ in range(2000):
        n = int(rng.integers(2, 6))
        s = random_w_state(rng, n)
        if s.x0 < 1e-6:
            continue
        deltas = kt_averages(s, apply_measurement(s, phase1_measurement(s)))
        assert deltas[0] >= -1e-12
        assert max(deltas[1:]) <= 1e-12


def test_kt_mismatched_parties_rejected():
    s = standard_w("AB")
    other = standard_w("AC")
    with pytest.raises(InvalidInputError):
        kt_averages(s, [(1.0, other)])


def test_induced_drops_nodes_and_their_edges():
    tri = graph_catalog("triangle")
    assert tri.induced("AB").edges == frozenset({("A", "B")})
    paw = graph_catalog("VI")
    assert paw.induced("ABC").edges == graph_catalog("triangle").edges
    assert tri.induced(tri.labels) == tri
    with pytest.raises(InvalidPartyError):
        tri.induced({"A", "Z"})


@st.composite
def graph_and_disjoint_subsets(draw):
    n = draw(st.integers(min_value=2, max_value=7))
    labels = tuple("ABCDEFG"[:n])
    pairs = [(labels[i], labels[j]) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs)) if pairs else st.just(set()))
    s1 = draw(st.sets(st.sampled_from(labels)))
    s2 = draw(st.sets(st.sampled_from(labels)))
    return ConfigGraph(labels, edges), s1, s2 - s1


@given(graph_and_disjoint_subsets())
@settings(max_examples=200, deadline=None)
def test_induced_removals_commute_on_disjoint_sets(case):
    g, s1, s2 = case
    keep1, keep2 = set(g.labels) - s1, set(g.labels) - s2
    assert g.induced(keep1).induced(keep1 & keep2) == g.induced(keep2).induced(keep1 & keep2)
    assert g.induced(keep1).induced(keep1 & keep2) == g.induced(keep1 & keep2)
    assert g.induced(keep1).induced(keep1) == g.induced(keep1)


def test_standard_w_examples():
    assert standard_w("AB").components == (0.5, 0.5)
    assert standard_w("ABCD").components == (0.25,) * 4
    assert standard_w("ABC").components == pytest.approx((1 / 3,) * 3)


def test_graph_catalog_examples():
    wedge = graph_catalog("wedge", 3)
    assert wedge.edges == frozenset({("A", "B"), ("A", "C")})
    pairs = graph_catalog("pairs", 6)
    assert pairs.edges == frozenset({("1", "2"), ("3", "4"), ("5", "6")})
    assert len(graph_catalog("complete", 4).edges) == 6
    with pytest.raises(UnknownPresetError):
        graph_catalog("heptagon")
    with pytest.raises(InvalidInputError):
        graph_catalog("pairs", 5)


def test_graph_catalog_sizes_are_python_or_numpy_integers():
    assert graph_catalog("pairs", np.int64(6)) == graph_catalog("pairs", 6)
    assert graph_catalog("complete", np.int32(5)) == graph_catalog("complete", 5)
    for bad in (True, 6.0):
        with pytest.raises(InvalidInputError, match="is not an integer"):
            graph_catalog("pairs", bad)


def test_graph_validation():
    with pytest.raises(InvalidInputError):
        ConfigGraph("AB", [("A", "A")])
    with pytest.raises(InvalidPartyError):
        ConfigGraph("AB", [("A", "C")])


def scanned_neighbors(g, label):
    """The neighbours of ``label`` read off the edge set."""
    return {b if a == label else a for a, b in g.edges if label in (a, b)}


def queried_graphs():
    """Presets, their subgraphs, JSON-built graphs and the padded graphs of
    the bound lookup."""
    from wdistill.bounds import _pad_to_four

    presets = [graph_catalog(name) for name in ("wedge", "triangle", "I", "II", "III-b", "IV", "V", "VI")]
    presets += [graph_catalog("pairs", 6), graph_catalog("complete", 5)]
    out = list(presets)
    for g in presets:
        out.append(g.induced(g.labels[1:]))
        out.append(g.induced(g.labels[:-1]))
        out.append(ConfigGraph.from_json(json.loads(json.dumps(g.to_json()))))
    out.append(ConfigGraph.from_json({"labels": ["2", "10", "x"], "edges": [["10", "x"], ["x", "2"]]}))
    for name in ("wedge", "triangle"):
        g = graph_catalog(name)
        out.append(_pad_to_four(standard_w(g.labels), g)[1])
    two = ConfigGraph("AB", [("A", "B")])
    out.append(_pad_to_four(standard_w("AB"), two)[1])
    return out


@pytest.mark.parametrize("g", queried_graphs(), ids=lambda g: f"{','.join(g.labels)}/{len(g.edges)}")
def test_neighbors_and_degree_match_an_edge_scan(g):
    for label in g.labels:
        assert g.neighbors(label) == scanned_neighbors(g, label)
        assert g.degree(label) == len(scanned_neighbors(g, label))
    assert g._degree_sequence == tuple(sorted(len(scanned_neighbors(g, l)) for l in g.labels))
    for bad in ("nobody", 1, None, ["A"]):
        with pytest.raises(InvalidPartyError):
            g.neighbors(bad)
        with pytest.raises(InvalidPartyError):
            g.degree(bad)


def test_neighbor_sets_are_copies():
    g = graph_catalog("IV")
    g.neighbors("A").clear()
    g.neighbors("C").add("C")
    assert g.neighbors("A") == {"B", "C", "D"}
    assert g.neighbors("C") == {"A", "B"}
    assert g.degree("A") == 3


def test_cached_masks_leave_equality_hash_and_json_unchanged():
    # the masks, the degree sequence and the kept p_fl are not fields
    g = graph_catalog("VI")
    fresh = ConfigGraph(g.labels, g.edges)
    before = (repr(g), g.to_json())
    [g.degree(l) for l in g.labels]
    assert g._degree_sequence == (1, 2, 2, 3)
    p_fl(g)
    assert "p_fl" in g._kept
    sub = g.induced("ABD")
    sub.neighbors("A")
    assert g == fresh and hash(g) == hash(fresh)
    assert (repr(g), g.to_json()) == before
    assert sub == ConfigGraph("ABD", [("A", "B"), ("A", "D")])
    assert hash(sub) == hash(ConfigGraph("ABD", [("A", "B"), ("A", "D")]))
    for copy in (pickle.loads(pickle.dumps(g)), pickle.loads(pickle.dumps(fresh))):
        assert copy == fresh and hash(copy) == hash(fresh)
        assert (repr(copy), copy.to_json()) == before
        assert repr(p_fl(copy)) == repr(p_fl(ConfigGraph(g.labels, g.edges)))


def test_equal_graphs_print_alike_whatever_order_their_edges_came_in():
    # a set's order depends on the order it was filled in; every order of
    # the edges of the paw and the 4-clique must give one repr
    for name in ("VI", "V"):
        g = graph_catalog(name)
        reprs = {repr(ConfigGraph(g.labels, order)) for order in itertools.permutations(sorted(g.edges))}
        reprs.add(repr(pickle.loads(pickle.dumps(g))))
        assert reprs == {repr(g)}, name
    assert repr(ConfigGraph("AB")) == "ConfigGraph(labels=('A', 'B'), edges=frozenset())"


def test_derived_graphs_start_with_no_kept_values():
    from wdistill.bounds import _pad_to_four

    vi, wedge = graph_catalog("VI"), graph_catalog("wedge")
    for g in (vi, wedge):
        p_fl(g)
        g._degree_sequence
    derived = [
        vi.induced("ABCD"),
        vi.induced("ABD"),
        vi.induced(vi.labels),
        ConfigGraph.from_json(vi.to_json()),
        ConfigGraph.from_json({"preset": "VI"}),
        _pad_to_four(standard_w(wedge.labels), wedge)[1],
    ]
    for d in derived:
        assert set(vars(d)) == {"labels", "edges"}, d
        assert d._kept == {}, d


@pytest.mark.parametrize("bad", [{"x": 1}, None, 1.5, True, ("A",)], ids=repr)
def test_labels_other_than_strings_and_integers_are_rejected(bad):
    with pytest.raises(InvalidInputError):
        WState([0.5, 0.5], [bad, "B"])
    with pytest.raises(InvalidInputError):
        ConfigGraph([bad, "B"])
    with pytest.raises(InvalidInputError):
        ConfigGraph(["A", "B"], [("A", bad)])
    with pytest.raises(InvalidInputError):
        standard_w([bad, "B"])


def test_integer_labels_become_strings():
    assert WState([0.5, 0.5], [1, np.int64(2)]).labels == ("1", "2")
    g = ConfigGraph([1, "B"], [(1, "B")])
    assert g == ConfigGraph(["1", "B"], [("1", "B")])


def test_json_round_trips():
    s = WState([0.5, 0.25, 0.25], ("x", "y", "z"))
    assert WState.from_json(json.loads(json.dumps(s.to_json()))) == s
    g = graph_catalog("VI")
    assert ConfigGraph.from_json(json.loads(json.dumps(g.to_json()))) == g
    assert ConfigGraph.from_json({"preset": "pairs", "n": 4}) == graph_catalog("pairs", 4)


def test_graph_queries_follow_the_edge_list():
    g = graph_catalog("VI")  # AB, AC, AD, BC
    assert [g.degree(l) for l in g.labels] == [3, 2, 2, 1]
    assert g.neighbors("B") == {"A", "C"}
    assert g.induced("BCD") == ConfigGraph("BCD", [("B", "C")])
    with pytest.raises(InvalidPartyError):
        g.neighbors("E")
    with pytest.raises(InvalidPartyError):
        g.induced("ABE")
