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
    StateVector,
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
from wdistill.lpo import DecisionNode, PhaseThreeSolver, ProtocolTree


@pytest.fixture(scope="module")
def solver():
    return PhaseThreeSolver()


# ---------------------------------------------------------------------------
# the dense-amplitude oracle


def test_statevector_round_trip():
    s = WState([0.3, 0.3, 0.2])
    vec = StateVector.from_wstate(s)
    assert vec.norm() == pytest.approx(1.0, abs=1e-12)
    back = vec.to_wstate()
    assert back.components == pytest.approx(s.components, abs=1e-14)
    assert back.x0 == pytest.approx(s.x0, abs=1e-14)


def test_oracle_identity_measurement():
    s = WState([0.4, 0.35, 0.25])
    outs = statevector_oracle(s, LocalMeasurement.identity_split("A"))
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
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(800):
        n = int(rng.integers(2, 9))
        s = random_w_state(rng, n)
        m = random_measurement(rng, s.labels[int(rng.integers(n))])
        for (p, a), (q, b) in zip(apply_measurement(s, m), statevector_oracle(s, m)):
            worst = max(worst, abs(p - q))
            if a is not None and b is not None:
                worst = max(worst, max(abs(u - v) for u, v in zip(a.components, b.components)))
    assert worst <= 1e-10


def test_oracle_party_limit():
    s = WState([1.0 / 14] * 14)
    with pytest.raises(PreconditionError):
        statevector_oracle(s, LocalMeasurement.identity_split(s.labels[0]))


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
    m = LocalMeasurement.identity_split("A")
    shared = DecisionNode(w, m, "ev", ((1.0, Epr(("A", "C"))),))
    left = DecisionNode(w, m, "ev", ((0.5, shared), (0.5, Epr(("A", "B")))))
    right = DecisionNode(w, m, "ev", ((0.25, shared), (0.75, Epr(("C", "D")))))
    root = DecisionNode(w, m, "ev", ((0.5, left), (0.5, right)))
    return ProtocolTree(root, 1e-3, 1)


def test_a_node_with_two_parents_receives_the_summed_count():
    tree = diamond_tree()
    seen = []

    def split(amount, probs):
        seen.append(amount)
        return [amount * p for p in probs]

    reach = tree._flow(16.0, split)
    # the shared node is split once, after both parents: 16/4 + 16/8
    assert len(seen) == len(tree.nodes) == 4
    assert seen[-1] == 6.0
    assert reach == {Epr(("A", "C")): 6.0, Epr(("A", "B")): 4.0, Epr(("C", "D")): 6.0}
    res = simulate(tree, 40_000, seed=8)
    assert res.success_count == sum(t["count"] for t in res.terminals) == 40_000
    assert all(abs(t["z"]) <= 4.0 for t in res.terminals)


class CountingGenerator:
    """A numpy Generator that counts its multinomial draws."""

    made: list = []
    real = np.random.Generator

    def __init__(self, bit_generator):
        self._rng = self.real(bit_generator)
        self.multinomials = 0
        CountingGenerator.made.append(self)

    def multinomial(self, *args, **kwargs):
        self.multinomials += 1
        return self._rng.multinomial(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._rng, name)


def test_one_generator_draws_at_most_once_per_decision_node_per_simulation(solver, monkeypatch):
    g = graph_catalog("complete", 5)
    tree = build_protocol_tree(standard_w(g.labels), g, loop_cap=10, solver=solver)
    monkeypatch.setattr(CountingGenerator, "made", [])
    monkeypatch.setattr(np.random, "Generator", CountingGenerator)
    simulate(tree, 300_000, seed=3)
    [rng] = CountingGenerator.made
    assert 0 < rng.multinomials <= len(tree.nodes)


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
    [(0, 1), (-5, 1), (2**63, 1), (10**20, 1), (math.nan, 1), (math.inf, 1), (10, -1)],
    ids=["no-trials", "negative-trials", "2**63-trials", "1e20-trials", "nan-trials",
         "inf-trials", "negative-seed"],
)
def test_simulate_rejects_trials_outside_int64_and_negative_seeds(trials, seed):
    g = ConfigGraph("AB", [("A", "B")])
    tree = build_protocol_tree(standard_w("AB"), g)
    with pytest.raises(PreconditionError):
        simulate(tree, trials, seed=seed)


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


def reject_constant(name):
    raise ValueError(f"not strict JSON: {name}")


def test_sim_result_json_is_strict_when_a_certain_leaf_deviates():
    # a certain EPR leaf next to a stray failure branch: the sampler
    # renormalizes the branch, so the EPR rate falls below its p = 1
    w = standard_w("AB")
    m = LocalMeasurement.diagonal("A", [(1.0, 1.0), (0.0, 0.0)])
    root = DecisionNode(w, m, "ev", ((1.0, Epr(("A", "B"))), (1e-3, FAILURE)))
    res = simulate(ProtocolTree(root, 1e-3, 1), 100_000, seed=5)
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


def test_monotone_fuzz_validates_inputs():
    for radius in (0.5, -0.5, -1e-9, math.nan, math.inf, -math.inf):
        with pytest.raises(PreconditionError):
            monotone_fuzz("tau", 10, 1, weak_radius=radius)
    with pytest.raises(PreconditionError):
        monotone_fuzz("kt_i", 10, 1, seed=-1)
    assert monotone_fuzz("tau", 2, 1, weak_radius=0.0) <= 1e-10
    with pytest.raises(InvalidInputError):
        monotone_fuzz("nope", 10, 1)


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
