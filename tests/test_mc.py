import json
import math
import time

import numpy as np
import pytest

from wdistill import (
    FAILURE,
    ConfigGraph,
    Epr,
    InvalidInputError,
    LocalMeasurement,
    PreconditionError,
    WState,
    apply_measurement,
    build_protocol_tree,
    graph_catalog,
    monotone_fuzz,
    random_measurement,
    random_w_state,
    simulate,
    standard_w,
    statevector_oracle,
)
from wdistill import core, mc, verify
from wdistill.core import NULL_OUTCOME_PROB
from wdistill.lpo import DecisionNode, PhaseThreeSolver, ProtocolTree, TruncationLeaf

from test_walk_oracle import TREE_CAPS, TREE_EPSILON, named_graph, tree_states


@pytest.fixture(scope="module")
def solver():
    return PhaseThreeSolver()


# ---------------------------------------------------------------------------
# the dense-amplitude oracle


def test_statevector_round_trip():
    # one outcome, the identity: the amplitude vector is built and read back
    s = WState([0.3, 0.3, 0.2])
    ((p, back),) = statevector_oracle(s, LocalMeasurement.diagonal("B", [(1.0, 1.0)]))
    assert p == pytest.approx(1.0, abs=1e-12)
    assert back.components == pytest.approx(s.components, abs=1e-14)
    assert back.x0 == pytest.approx(s.x0, abs=1e-14)


def test_oracle_identity_measurement():
    s = WState([0.4, 0.35, 0.25])
    outs = statevector_oracle(s, LocalMeasurement.diagonal("A", [(0.5, 0.5)] * 2))
    for p, post in outs:
        assert p == pytest.approx(0.5, abs=1e-12)
        assert post.components == pytest.approx(s.components, abs=1e-12)


def test_oracle_x0_removal_kills_the_zero_amplitude():
    from wdistill import phase1_measurement

    s = WState([0.25, 0.25, 0.2])
    m = phase1_measurement(s)
    (p1, s1), _ = statevector_oracle(s, m)
    assert s1.x0 == pytest.approx(0.0, abs=1e-12)


def test_oracle_agrees_with_component_update():
    # criterion 3's draw (n = 2..8, x0 > 0), then the reference pairs:
    # n = 2..12, x0 = 0 states and outcomes of probability 0
    rng = np.random.default_rng(2)
    pairs = []
    for _ in range(800):
        n = int(rng.integers(2, 9))
        s = random_w_state(rng, n)
        pairs.append((s, random_measurement(rng, s.labels[int(rng.integers(n))])))
    worst = 0.0
    for s, m in pairs + oracle_reference_pairs():
        got, ref = apply_measurement(s, m), statevector_oracle(s, m)
        assert [post is None for _, post in got] == [post is None for _, post in ref]
        for (p, a), (q, b) in zip(got, ref):
            worst = max(worst, abs(p - q))
            if a is not None:
                worst = max(worst, abs(a.x0 - b.x0), *(abs(u - v) for u, v in zip(a.components, b.components)))
    assert worst <= 1e-10


def complex_oracle(state, m):
    """The dense oracle one outcome at a time on a complex128 vector: the
    reference for the real-valued pass of ``statevector_oracle``."""
    m.require_complete()
    k = state.index(m.party)
    n = state.n
    amps = np.zeros(1 << n, dtype=np.complex128)
    amps[0] = math.sqrt(state.x0)
    for i, c in enumerate(state.components):
        amps[1 << (n - 1 - i)] = math.sqrt(c)
    shaped = amps.reshape(-1, 2, 1 << (n - 1 - k))
    weight_ok = np.zeros(1 << n, dtype=bool)
    weight_ok[0] = True
    for i in range(n):
        weight_ok[1 << i] = True
    results = []
    for a, b, c in m.outcomes:
        out = np.empty_like(shaped)
        out[:, 0, :] = math.sqrt(a) * shaped[:, 0, :] + b * shaped[:, 1, :]
        out[:, 1, :] = math.sqrt(c) * shaped[:, 1, :]
        flat = out.reshape(-1)
        p = float(np.vdot(flat, flat).real)
        if p < NULL_OUTCOME_PROB:
            results.append((p, None))
            continue
        post = flat / math.sqrt(p)
        assert np.abs(post[~weight_ok]).max(initial=0.0) <= mc.SUPPORT_TOL
        comps = tuple(float(abs(post[1 << (n - 1 - i)]) ** 2) for i in range(n))
        results.append((p, WState(comps, state.labels)))
    return results


def oracle_reference_pairs():
    """Seeded (state, measurement) pairs with n = 2..12: random measurements
    on states with and without x0, and a diagonal measurement whose second
    outcome projects a party of weight 0, so it has probability 0."""
    rng = np.random.default_rng(27)
    pairs = []
    for n in range(2, 13):
        for j in range(24):
            s = random_w_state(rng, n, x0_zero=j % 2 == 1)
            pairs.append((s, random_measurement(rng, s.labels[int(rng.integers(n))])))
        for x0_zero in (False, True):
            comps = list(random_w_state(rng, n, x0_zero=x0_zero).components)
            k = int(rng.integers(n))
            comps[(k + 1) % n] += comps[k]
            comps[k] = 0.0
            s = WState(comps)
            pairs.append((s, LocalMeasurement.diagonal(s.labels[k], [(1.0, 0.5), (0.0, 0.5)])))
    return pairs


def test_oracle_matches_the_complex_per_outcome_reference():
    outcomes = nulls = 0
    for s, m in oracle_reference_pairs():
        got, ref = statevector_oracle(s, m), complex_oracle(s, m)
        assert [post is None for _, post in got] == [post is None for _, post in ref]
        for (p, a), (q, b) in zip(got, ref):
            outcomes += 1
            assert abs(p - q) <= 1e-15
            if a is None:
                nulls += 1
                continue
            assert a.labels == b.labels
            assert max(abs(u - v) for u, v in zip(a.components, b.components)) <= 1e-15
    assert outcomes == 2 * 11 * 26
    assert nulls >= 22


def test_oracle_party_limit():
    s = WState([1.0 / 12] * 12)
    assert len(statevector_oracle(s, LocalMeasurement.diagonal(s.labels[-1], [(0.5, 0.5)] * 2))) == 2
    s = WState([1.0 / 13] * 13)
    with pytest.raises(PreconditionError, match="at most 12 parties"):
        statevector_oracle(s, LocalMeasurement.diagonal(s.labels[0], [(0.5, 0.5)] * 2))


def test_a_stray_amplitude_of_weight_two_fails_the_support_check():
    s = WState([0.3, 0.3, 0.2])
    clean = np.zeros(8)
    clean[0] = math.sqrt(s.x0)
    clean[[0b100, 0b010, 0b001]] = np.sqrt(s.components)
    below, above = clean.copy(), clean.copy()
    below[0b011] = 0.1 * mc.SUPPORT_TOL
    above[0b011] = 10.0 * mc.SUPPORT_TOL
    # the oracle reads the weights by the same rule, on its own vector
    ((_, back),) = statevector_oracle(s, LocalMeasurement.diagonal("A", [(1.0, 1.0)]))
    assert tuple(mc._support_weights(below, 3).tolist()) == pytest.approx(back.components, abs=1e-15)
    assert mc._support_weights(np.stack([clean, below]), 3).shape == (2, 3)
    with pytest.raises(core.InternalConsistencyError, match="outside the weight <= 1 support"):
        mc._support_weights(above, 3)
    with pytest.raises(core.InternalConsistencyError, match="outside the weight <= 1 support"):
        mc._support_weights(np.stack([clean, above]), 3)


@pytest.mark.parametrize("index", [0b011, 0b101, 0b110, 0b111])
def test_every_amplitude_outside_the_support_fails_the_check(index):
    # each basis state of Hamming weight 2 or 3 lies outside the support
    amps = np.zeros(8)
    amps[[0b100, 0b010, 0b001]] = math.sqrt(1.0 / 3.0)
    amps[index] = 10.0 * mc.SUPPORT_TOL
    with pytest.raises(core.InternalConsistencyError, match="outside the weight <= 1 support"):
        mc._support_weights(amps, 3)
    amps[index] = 0.1 * mc.SUPPORT_TOL
    assert mc._support_weights(amps, 3).tolist() == pytest.approx([1.0 / 3.0] * 3, abs=1e-15)


def test_oracle_checks_the_measurement_and_party_before_its_party_limit():
    s = WState([1.0 / 13] * 13)
    with pytest.raises(core.InvalidMeasurementError, match="not complete"):
        statevector_oracle(s, LocalMeasurement.diagonal(s.labels[0], [(0.5, 0.5)]))
    with pytest.raises(core.InvalidPartyError):
        statevector_oracle(s, LocalMeasurement.diagonal("Z", [(0.5, 0.5)] * 2))


def test_criterion_3_catches_a_component_update_that_drops_its_b_term(monkeypatch):
    assert verify.oracle_equivalence(quick=True).passed
    update = core.component_update
    # the b term moves into c, so the outcome probabilities still sum to one
    monkeypatch.setattr(
        core, "component_update",
        lambda comps, x0, k, a, b, c: update(comps, x0, k, a, 0.0, c + b * b),
    )
    assert not verify.oracle_equivalence(quick=True).passed


def test_random_measurements_are_complete():
    rng = np.random.default_rng(4)
    for _ in range(500):
        m = random_measurement(rng, "A")
        assert m.is_complete()
        mw = random_measurement(rng, "A", weak_radius=0.05)
        assert mw.is_complete()
        for a, b, c in mw.outcomes:
            assert abs(a - 0.5) <= 0.06
            assert abs(c - 0.5) <= 0.08


# ---------------------------------------------------------------------------
# simulation


def test_simulate_single_leaf_is_exact(solver):
    g = ConfigGraph("AB", [("A", "B")])
    tree = build_protocol_tree(standard_w("AB"), g, solver=solver)
    res = simulate(tree, 1000, seed=1)
    assert res.success_rate == 1.0
    assert res.terminals[0]["count"] == 1000


def test_simulate_reproducible_byte_for_byte(solver):
    g = graph_catalog("wedge")
    tree = build_protocol_tree(standard_w(g.labels), g, epsilon=0.05, loop_cap=10, solver=solver)
    a = simulate(tree, 50_000, seed=123).to_json()
    b = simulate(tree, 50_000, seed=123).to_json()
    assert a == b
    c = simulate(tree, 50_000, seed=124).to_json()
    assert a != c


def test_simulate_worker_count_does_not_change_results(solver, monkeypatch):
    g = graph_catalog("triangle")
    tree = build_protocol_tree(standard_w(g.labels), g, epsilon=0.05, loop_cap=10, solver=solver)
    base = simulate(tree, 30_000, seed=9).to_json()
    assert simulate(tree, 30_000, seed=9, workers=4).to_json() == base
    monkeypatch.setenv("W_DISTILL_THREADS", "2")
    assert simulate(tree, 30_000, seed=9, workers=8).to_json() == base


@pytest.mark.parametrize("name,cap", [("IV", 20), ("pairs:6", 8), ("complete:5", 3)])
def test_simulate_agrees_with_the_tree_on_shared_dags(solver, name, cap):
    # above 2**18 trials, beyond the counts pinned for earlier releases
    preset, _, size = name.partition(":")
    g = graph_catalog(preset, int(size) if size else None)
    tree = build_protocol_tree(standard_w(g.labels), g, epsilon=0.05, loop_cap=cap, solver=solver)
    trials = 267_144
    res = simulate(tree, trials, seed=17)
    assert sum(t["count"] for t in res.terminals) == trials
    for t in res.terminals:
        assert t["z"] is not None and abs(t["z"]) <= 4.0, t
    v = tree.analytic_value()
    assert abs(res.success_rate - v) <= 4.0 * math.sqrt(v * (1.0 - v) / trials)


def diamond_tree():
    """Root -> left, right; both -> one shared node, which ends on its own
    EPR leaf; left and right also end on leaves of their own."""
    w = standard_w("ABCD")
    m = LocalMeasurement.diagonal("A", [(0.5, 0.5)] * 2)
    shared = DecisionNode(w, m, "ev", ((1.0, Epr(("A", "C"))),))
    left = DecisionNode(w, m, "ev", ((0.5, shared), (0.5, Epr(("A", "B")))))
    right = DecisionNode(w, m, "ev", ((0.25, shared), (0.75, Epr(("C", "D")))))
    root = DecisionNode(w, m, "ev", ((0.5, left), (0.5, right)))
    return ProtocolTree(root, 1e-3, 1, (shared, left, right, root))


def test_a_node_with_two_parents_receives_the_summed_count(monkeypatch):
    tree = diamond_tree()
    # the shared node's mass is summed over both parents: 1/4 + 1/8
    assert tree._leaf_mass() == {Epr(("A", "C")): 6 / 16, Epr(("A", "B")): 4 / 16, Epr(("C", "D")): 6 / 16}
    seen = []

    def split(rng, count, probs):
        seen.append(count)
        return [int(count * p) for p in probs]

    with monkeypatch.context() as patch:
        patch.setattr(mc, "_split", split)
        res = simulate(tree, 16, seed=8)
    # the shared node is split once, after both parents: 16/4 + 16/8
    assert len(seen) == len(tree.nodes) == 4
    assert seen[-1] == 6
    assert {t["label"]: t["count"] for t in res.terminals} == {"EPR(A,B)": 4, "EPR(A,C)": 6, "EPR(C,D)": 6}
    assert {t["label"]: t["probability"] for t in res.terminals} == tree.leaf_probabilities()
    res = simulate(tree, 40_000, seed=8)
    assert res.success_count == sum(t["count"] for t in res.terminals) == 40_000
    assert all(abs(t["z"]) <= 4.0 for t in res.terminals)


class CountingGenerator:
    """A numpy Generator that counts its draws, by whatever method."""

    made: list = []
    real = np.random.Generator

    def __init__(self, bit_generator):
        self._rng = self.real(bit_generator)
        self.draws = 0
        CountingGenerator.made.append(self)

    def __getattr__(self, name):
        attr = getattr(self._rng, name)
        if not callable(attr):
            return attr

        def counted(*args, **kwargs):
            self.draws += 1
            return attr(*args, **kwargs)

        return counted


def test_one_generator_draws_at_most_once_per_decision_node_per_simulation(solver, monkeypatch):
    g = graph_catalog("complete", 5)
    tree = build_protocol_tree(standard_w(g.labels), g, loop_cap=10, solver=solver)
    # a split draws for each child but the last, and not at all when no
    # trial reaches its node; each truncation leaf that trials reach tosses
    # one coin
    cut = {c for node in tree.nodes for _, c in node.children if isinstance(c, TruncationLeaf)}
    assert cut
    bound = sum(max(0, len(node.children) - 1) for node in tree.nodes) + len(cut)
    monkeypatch.setattr(np.random, "Generator", CountingGenerator)
    draws = []
    for trials in (300_000, 10**12, 10**13):
        monkeypatch.setattr(CountingGenerator, "made", [])
        simulate(tree, trials, seed=3)
        [rng] = CountingGenerator.made
        draws.append(rng.draws)
    assert all(0 < d <= bound for d in draws)
    # from 10**12 trials on every node is reached (the least likely with
    # probability 3.9e-9), so ten times the trials draws no more
    assert draws[2] == draws[1]


def test_simulate_cost_does_not_grow_with_the_trial_count(solver):
    g = graph_catalog("complete", 5)
    tree = build_protocol_tree(standard_w(g.labels), g, loop_cap=60, solver=solver)
    start = time.perf_counter()
    res = simulate(tree, 2**63 - 1, seed=3)
    assert time.perf_counter() - start < 5.0
    assert sum(t["count"] for t in res.terminals) == 2**63 - 1
    assert abs(res.success_rate - tree.analytic_value()) < 1e-6


PINNED_TRIANGLE_COUNTS = {
    "EPR(A,B)": 3728, "EPR(A,C)": 3904, "EPR(B,C)": 3819, "FAIL": 2, "TRUNC(W3(A,B,C))": 88547,
}
PINNED_TRIANGLE_SUCCESS = 99980


def test_simulate_counts_for_a_seed_are_pinned(solver):
    # recorded when the trials still ran in streams of 2**18: a run within
    # one such stream draws exactly what it drew then
    g = graph_catalog("triangle")
    tree = build_protocol_tree(standard_w(g.labels), g, loop_cap=60, solver=solver)
    res = simulate(tree, 100_000, seed=7)
    assert {t["label"]: t["count"] for t in res.terminals} == PINNED_TRIANGLE_COUNTS
    assert res.success_count == PINNED_TRIANGLE_SUCCESS


@pytest.mark.parametrize(
    "trials,seed",
    [(0, 1), (-5, 1), (2**63, 1), (10**20, 1), (math.nan, 1), (math.inf, 1), (10, -1),
     (1000.5, 1), (1000.0, 1), ("1000", 1), (10, 2.5), (10, 1.0), (10, "1")],
    ids=["no-trials", "negative-trials", "2**63-trials", "1e20-trials", "nan-trials",
         "inf-trials", "negative-seed", "fractional-trials", "float-trials", "string-trials",
         "fractional-seed", "float-seed", "string-seed"],
)
def test_simulate_rejects_trials_outside_int64_and_negative_seeds(trials, seed):
    g = ConfigGraph("AB", [("A", "B")])
    tree = build_protocol_tree(standard_w("AB"), g)
    with pytest.raises(PreconditionError):
        simulate(tree, trials, seed=seed)


def test_simulate_takes_numpy_integers_as_python_ints():
    g = graph_catalog("triangle")
    tree = build_protocol_tree(standard_w(g.labels), g, loop_cap=5)
    res = simulate(tree, np.int64(1000), seed=np.uint32(3))
    assert type(res.trials) is int and type(res.seed) is int
    assert res.to_json() == simulate(tree, 1000, seed=3).to_json()


def numpy_split(rng, count, probs):
    """The split as numpy arrays, the reference for mc._split: clip below
    at 0, normalize by the array's sum, draw."""
    if not count:
        return [0] * len(probs)
    probs = np.clip(probs, 0.0, None)
    return rng.multinomial(count, probs / probs.sum())


@pytest.mark.parametrize("name", list(TREE_CAPS))
def test_simulate_draws_what_the_numpy_split_draws(name, monkeypatch):
    g = named_graph(name)
    for tag, state in tree_states(name).items():
        if tag == "x0=0":
            continue
        tree = build_protocol_tree(state, g, TREE_EPSILON, TREE_CAPS[name], solver=PhaseThreeSolver())
        for trials, seed in ((200_000, 1), (200_000, 7), (2**40, 12345)):
            got = simulate(tree, trials, seed).to_json()
            with monkeypatch.context() as patch:
                patch.setattr(mc, "_split", numpy_split)
                want = simulate(tree, trials, seed).to_json()
            assert got == want, (name, tag, trials, seed)


SPLIT_PROBS = [
    [1.0], [0.3],
    [0.25, 0.75], [0.0, 1.0], [1.0, 0.0], [-0.2, 0.7], [0.1, -1e-17],
    [0.2, 0.5, 0.3], [0.5, 0.0, 0.5], [0.6, 0.4, 0.0], [0.7, -0.1, 0.2], [1e-300, 0.5, 0.5],
    [0.1, 0.2, 0.3, 0.4], [0.0, 0.0, 0.3, 0.7], [0.4, 0.6, 0.0, 0.0], [0.25, -1.0, 0.25, 0.5],
    [0.1, 0.2, 0.3, 0.25, 0.15], [0.0, 0.5, -0.5, 0.5, 0.0], [0.3, 0.3, 0.3, 0.1, 1e-12],
    # the trials run out before the last child: the rest draw nothing
    [0.999, 1e-9, 1e-9, 1e-9, 1e-9],
    # rounding lifts the second ratio above 1 (0.1 / 0.09999999999999998)
    [0.9, 0.1, 0.0],
]


def random_split_probs(rng, k):
    """k child probabilities, some of them 0 or negative."""
    probs = rng.random(k) * rng.choice([1.0, 0.0, -1e-3], size=k, p=[0.7, 0.2, 0.1])
    probs[rng.integers(k)] = rng.random() + 1e-3
    return probs.tolist()


def test_split_draws_what_rng_multinomial_draws():
    """``mc._split`` against ``numpy_split``, the clipped and normalized
    ``rng.multinomial``, on two generators of one seed: equal counts, and
    the streams left at the same place, including chains of three and more
    draws, which protocol-tree nodes of at most two children never reach."""
    rng = np.random.default_rng(2024)
    cases = SPLIT_PROBS + [random_split_probs(rng, k) for k in range(1, 6) for _ in range(40)]
    for i, probs in enumerate(cases):
        for count in (0, 1, 2, 7, 1000, 2**62, 2**63 - 1):
            ours, theirs = np.random.default_rng(i), np.random.default_rng(i)
            got = mc._split(ours, count, probs)
            want = numpy_split(theirs, count, probs)
            assert got == list(want), (probs, count)
            assert all(type(c) is int for c in got)
            assert ours.bit_generator.state == theirs.bit_generator.state, (probs, count)
            assert ours.random() == theirs.random()


@pytest.mark.parametrize("name", list(TREE_CAPS))
def test_simulate_reads_the_tree_probabilities_and_value_bit_for_bit(name):
    g = named_graph(name)
    for tag, state in tree_states(name).items():
        tree = build_protocol_tree(state, g, TREE_EPSILON, TREE_CAPS[name], solver=PhaseThreeSolver())
        res = simulate(tree, 1000, seed=4)
        got = {t["label"]: t["probability"] for t in res.terminals}
        assert list(got) == sorted(tree.leaf_probabilities()), (name, tag)
        for label, p in tree.leaf_probabilities().items():
            assert repr(got[label]) == repr(p), (name, tag, label)
        assert repr(res.success_expected) == repr(tree.analytic_value()), (name, tag)


def test_simulate_matches_analytic_tree_value(solver):
    g = graph_catalog("wedge")
    tree = build_protocol_tree(standard_w(g.labels), g, epsilon=0.01, loop_cap=30, solver=solver)
    v = tree.analytic_value()
    res = simulate(tree, 200_000, seed=7)
    se = math.sqrt(v * (1 - v) / 200_000)
    assert abs(res.success_rate - v) <= 4 * se


def test_simulate_three_party_limit_protocol_succeeds(solver):
    g = graph_catalog("triangle")
    tree = build_protocol_tree(standard_w(g.labels), g, epsilon=0.01, loop_cap=50, solver=solver)
    res = simulate(tree, 100_000, seed=13)
    assert res.success_rate >= 0.95


def test_simulate_z_scores_are_calibrated(solver):
    g = graph_catalog("wedge")
    tree = build_protocol_tree(standard_w(g.labels), g, epsilon=0.02, loop_cap=15, solver=solver)
    total = 0
    extreme = 0
    for seed in range(100):
        res = simulate(tree, 20_000, seed=seed)
        for t in res.terminals:
            if 0.0 < t["probability"] < 1.0:
                total += 1
                extreme += abs(t["z"]) > 3.0
    assert extreme / total <= 0.01


def test_sim_result_serialization(solver):
    g = graph_catalog("wedge")
    tree = build_protocol_tree(standard_w(g.labels), g, epsilon=0.05, loop_cap=5, solver=solver)
    res = simulate(tree, 10_000, seed=3)
    payload = json.loads(res.to_json())
    assert payload["rng"] == "numpy-pcg64"
    assert "chunk_size" not in payload
    assert payload["trials"] == 10_000
    assert sum(t["count"] for t in payload["terminals"]) == 10_000
    assert abs(sum(t["empirical"] for t in payload["terminals"]) - 1.0) < 1e-12
    csv = res.to_csv()
    assert csv.splitlines()[0] == "label,count,probability,empirical,std_err,z"


def test_sim_result_csv_reads_back_every_label_and_number():
    import csv

    terminals = tuple(
        {"label": label, "count": count, "probability": p, "empirical": e, "std_err": se, "z": z}
        for label, count, p, e, se, z in [
            ("EPR(A,B)", 3, 0.25, 0.3, 0.1, 0.5),
            ('W3(a"b,c,e)', 1, 0.125, 0.1, 0.05, None),
            ("FAIL", 6, 0.625, 0.6, 0.2, -0.125),
        ]
    )
    res = mc.SimResult(10, 0, "numpy-pcg64", terminals, 3, 0.3, 0.25)
    text = res.to_csv()
    rows = list(csv.reader(text.splitlines()))
    assert rows[0] == ["label", "count", "probability", "empirical", "std_err", "z"]
    assert [row[0] for row in rows[1:]] == [t["label"] for t in terminals]
    for row, t in zip(rows[1:], terminals):
        assert int(row[1]) == t["count"]
        assert [float(x) for x in row[2:5]] == [t["probability"], t["empirical"], t["std_err"]]
        assert row[5] == ("" if t["z"] is None else f"{t['z']:.12g}")
    # a row with nothing to quote is the plain comma join
    assert text.splitlines()[-1] == "FAIL,6,0.625,0.6,0.2,-0.125"


def reject_constant(name):
    raise ValueError(f"not strict JSON: {name}")


def test_sim_result_json_is_strict_when_a_certain_leaf_deviates():
    # a certain EPR leaf next to a stray failure branch: the sampler
    # renormalizes the branch, so the EPR rate falls below its p = 1
    w = standard_w("AB")
    m = LocalMeasurement.diagonal("A", [(1.0, 1.0), (0.0, 0.0)])
    root = DecisionNode(w, m, "ev", ((1.0, Epr(("A", "B"))), (1e-3, FAILURE)))
    res = simulate(ProtocolTree(root, 1e-3, 1, (root,)), 100_000, seed=5)
    payload = json.loads(res.to_json(), parse_constant=reject_constant)
    epr = next(t for t in payload["terminals"] if t["probability"] == 1.0)
    assert epr["empirical"] < 1.0
    assert epr["z"] is None
    assert res.to_csv().splitlines()[1].endswith(",")


# ---------------------------------------------------------------------------
# monotone fuzzing


@pytest.mark.parametrize("fid,tol", [("kt_i", 1e-12), ("kt_0", 1e-12)])
def test_kt_fuzz_clean(fid, tol):
    assert monotone_fuzz(fid, 800, 5, weak_radius=0.05, seed=1) <= tol


@pytest.mark.parametrize("fid", ["tau", "gamma"])
def test_monotone_fuzz_clean(fid):
    assert monotone_fuzz(fid, 800, 5, weak_radius=0.05, seed=2) <= 1e-10


def test_monotone_fuzz_detects_a_broken_monotone(monkeypatch):
    from wdistill import bounds as bounds_mod

    real = bounds_mod.tau

    def flipped(state, graph):
        rep = real(state, graph)
        return type(rep)(rep.bound_name, -rep.value, rep.role_assignment, rep.applicable)

    monkeypatch.setattr(bounds_mod, "tau", flipped)
    assert monotone_fuzz("tau", 50, 4, weak_radius=0.05, seed=3) > 1e-6


@pytest.mark.parametrize("radius", ["0.05", None, [0.05]], ids=["string", "none", "list"])
def test_monotone_fuzz_rejects_a_weak_radius_that_is_not_a_number(radius):
    with pytest.raises(PreconditionError, match="weak_radius must be a number"):
        monotone_fuzz("tau", 10, 1, weak_radius=radius)


def test_monotone_fuzz_validates_inputs():
    for radius in (0.5, -0.5, -1e-9, math.nan, math.inf, -math.inf):
        with pytest.raises(PreconditionError, match="^weak_radius must lie between 0 and 0.1$"):
            monotone_fuzz("tau", 10, 1, weak_radius=radius)
    with pytest.raises(PreconditionError):
        monotone_fuzz("kt_i", 10, 1, seed=-1)
    assert monotone_fuzz("tau", 2, 1, weak_radius=0.0) <= 1e-10
    with pytest.raises(InvalidInputError):
        monotone_fuzz("nope", 10, 1)


@pytest.mark.parametrize(
    "kwargs",
    [{"seed": True}, {"seed": 1.5}, {"seed": "3"}, {"n_states": 2.5}, {"n_measurements": True}],
    ids=["bool-seed", "fractional-seed", "string-seed", "fractional-states", "bool-measurements"],
)
def test_monotone_fuzz_rejects_counts_and_seeds_that_are_not_integers(kwargs):
    (name,) = kwargs
    args = {"n_states": 10, "n_measurements": 2, "seed": 0} | kwargs
    with pytest.raises(PreconditionError, match=f"{name} must be an integer"):
        monotone_fuzz("tau", **args)


def test_monotone_fuzz_takes_numpy_integers_as_python_ints():
    want = monotone_fuzz("gamma", 5, 3, seed=4)
    assert repr(monotone_fuzz("gamma", np.int64(5), np.int32(3), seed=np.uint8(4))) == repr(want)


FUZZ_IDS = ("kt_i", "kt_0", "tau", "gamma")


def _both_paths(fid, states, measurements):
    """Per-pair violations of the batched and the object path for the
    same states and rows of measurements."""
    name = mc.FUZZ_GRAPHS[fid]
    graph = graph_catalog(name) if name else None
    comps = np.array([s.components for s in states])
    parties = np.array([[s.index(m.party) for m in row] for s, row in zip(states, measurements)])
    kraus = np.array([[m.outcomes for m in row] for row in measurements])
    batched = mc._batched_violations(fid, graph, comps, parties, kraus)
    check = mc._SCALAR_CHECKS[fid]
    scalar = np.array([[check(s, apply_measurement(s, m), graph) for m in row]
                       for s, row in zip(states, measurements)])
    return batched, scalar


@pytest.mark.parametrize("fid", FUZZ_IDS)
def test_batched_fuzz_equals_the_object_path_per_pair(fid):
    rng = np.random.Generator(np.random.PCG64(11))
    comps, parties, kraus = mc._draw_fuzz_inputs(rng, 300, 10, 0.05)
    states = [WState(c) for c in comps]
    measurements = [[LocalMeasurement(s.labels[k], kraus[i, j]) for j, k in enumerate(parties[i])]
                    for i, s in enumerate(states)]
    batched, scalar = _both_paths(fid, states, measurements)
    assert batched.shape == (300, 10)
    assert np.abs(batched - scalar).max() <= 1e-12


@pytest.mark.parametrize("fid", FUZZ_IDS)
def test_batched_fuzz_equals_the_object_path_on_ties_and_zeros(fid):
    rng = np.random.default_rng(12)
    states = [
        standard_w("ABCD"),                    # every component tied
        WState([0.3, 0.1, 0.3, 0.2]),          # two equal largest components
        WState([0.1, 0.3, 0.3, 0.1]),
        WState([0.5, 0.0, 0.3, 0.2]),          # a zero component
        WState([0.4, 0.3, 0.2, 0.1]),          # x0 = 0
        WState([0.2, 0.2, 0.2, 0.2]),          # tied, with x0 > 0
    ]
    measurements = []
    for s in states:
        row = [random_measurement(rng, l, weak_radius=0.05) for l in s.labels]
        row += [random_measurement(rng, l) for l in s.labels]
        # the second outcome has probability 0 and carries no state
        row.append(LocalMeasurement.diagonal("C", [(1.0, 1.0), (0.0, 0.0)]))
        measurements.append(row)
    batched, scalar = _both_paths(fid, states, measurements)
    assert np.abs(batched - scalar).max() <= 1e-12


def dropped_b(update):
    """``update`` with the b term dropped but the measurement kept complete
    (c absorbs b^2), so that the probabilities still sum to one."""

    def faulty(x, x0, parties, kraus):
        a, b, c = kraus[..., 0], kraus[..., 1], kraus[..., 2]
        return update(x, x0, parties, np.stack([a, 0.0 * b, c + b * b], axis=-1))

    return faulty


@pytest.mark.parametrize("fid", ["kt_0", "tau", "gamma"])
def test_monotone_fuzz_detects_a_broken_batched_update(monkeypatch, fid):
    # only the subsample shows the dropped b term; kt_i cannot, as the
    # unmeasured parties' averages stay put
    monkeypatch.setattr(mc, "_update_batch", dropped_b(mc._update_batch))
    assert monotone_fuzz(fid, 50, 4, weak_radius=0.05, seed=3) > 1e-6


def exact_average_excess(update) -> float:
    """How far the averages of ``update`` over fuzz inputs miss their exact
    values, beyond 1e-12 plus the mass of the null outcomes.

    A complete measurement on party k with outcomes (a, b, c) has sum a = 1,
    sum sqrt(a) b = 0 and sum (b^2 + c) = 1.  So on average every other
    party keeps x_j, party k falls to x_k (1 - sum b^2) and x0 rises to
    x0 + x_k sum b^2."""
    weights, parties, kraus = mc._draw_fuzz_inputs(np.random.default_rng(8), 200, 8, 0.05)
    x, x0 = mc._stored(weights)
    p, post = update(x, x0, parties, kraus)
    weight = np.where(p >= NULL_OUTCOME_PROB, p, 0.0)
    got = (weight[..., None] * post).sum(axis=2)
    got_x0 = (weight * (1.0 - post.sum(axis=-1))).sum(axis=2)
    xk, b2 = np.take_along_axis(x, parties, axis=1), (kraus[..., 1] ** 2).sum(axis=-1)
    want = np.repeat(x[:, None, :], parties.shape[1], axis=1)
    np.put_along_axis(want, parties[..., None], (xk * (1.0 - b2))[..., None], axis=2)
    miss = np.maximum(np.abs(got - want).max(axis=-1), np.abs(got_x0 - (x0[:, None] + xk * b2)))
    return float((miss - 1e-12 - (p - weight).sum(axis=-1)).max())


def test_batched_update_meets_the_exact_averages():
    assert exact_average_excess(mc._update_batch) <= 0.0


def test_exact_averages_catch_a_dropped_b_term():
    assert exact_average_excess(dropped_b(mc._update_batch)) > 1e-6


def scalar_average_excess() -> float:
    """:func:`exact_average_excess` for the scalar path: how far the
    averages of ``core.apply_measurement`` over random complete
    measurements, strong and weak, miss their exact values, beyond 1e-12
    plus the mass of the null outcomes."""
    rng = np.random.default_rng(9)
    worst = -math.inf
    for i in range(300):
        s = random_w_state(rng, 2 + i % 5)
        for weak_radius in (None, 0.05):
            k = int(rng.integers(s.n))
            m = random_measurement(rng, s.labels[k], weak_radius=weak_radius)
            outcomes = apply_measurement(s, m)
            null_mass = sum(p for p, post in outcomes if post is None)
            got = [sum(p * post.components[j] for p, post in outcomes if post is not None)
                   for j in range(s.n)]
            got_x0 = sum(p * post.x0 for p, post in outcomes if post is not None)
            xk, b2 = s.components[k], sum(b * b for _, b, _ in m.outcomes)
            want = list(s.components)
            want[k] = xk * (1.0 - b2)
            miss = max(abs(got_x0 - (s.x0 + xk * b2)), *(abs(g - w) for g, w in zip(got, want)))
            worst = max(worst, miss - 1e-12 - null_mass)
    return worst


def test_apply_measurement_meets_the_exact_averages():
    assert scalar_average_excess() <= 0.0


def test_exact_averages_catch_a_dropped_b_term_in_the_scalar_update(monkeypatch):
    # the fault the kt_i fuzz cannot see: b is dropped and c absorbs b^2,
    # so every outcome set stays complete and the probabilities sum to one
    real = core.component_update

    def dropped(comps, x0, k, a, b, c):
        return real(comps, x0, k, a, 0.0, c + b * b)

    monkeypatch.setattr(core, "component_update", dropped)
    assert scalar_average_excess() > 1e-6


def test_batched_update_keeps_the_probability_sum_check(monkeypatch):
    real = mc._update_batch

    def incomplete(x, x0, parties, kraus):
        return real(x, x0, parties, kraus * np.array([1.0, 0.0, 1.0]))

    monkeypatch.setattr(mc, "_update_batch", incomplete)
    with pytest.raises(InvalidInputError, match="sum to"):
        monotone_fuzz("kt_i", 50, 4, weak_radius=0.05, seed=3)


def test_monotone_fuzz_with_fewer_states_than_the_subsample():
    for fid in FUZZ_IDS:
        assert monotone_fuzz(fid, 1, 3, weak_radius=0.05, seed=4) <= 1e-10


def test_strong_measurement_fuzz_is_reported_not_asserted():
    # outside the weak regime the tau direction is not covered by the
    # stated argument; record the observed extreme instead of asserting
    rng = np.random.default_rng(6)
    g = graph_catalog("III-c")
    from wdistill.bounds import tau

    worst = -math.inf
    for _ in range(400):
        s = random_w_state(rng, 4)
        m = random_measurement(rng, s.labels[int(rng.integers(4))])
        outcomes = apply_measurement(s, m)
        avg = sum(p * tau(post, g).value for p, post in outcomes if post is not None)
        worst = max(worst, avg - tau(s, g).value)
    print(f"\nstrong-measurement tau fuzz, max average increase: {worst:.3e}")
    assert math.isfinite(worst)
