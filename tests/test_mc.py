import json
import math

import numpy as np
import pytest

from wdistill import (
    FAILURE,
    ConfigGraph,
    Epr,
    Failure,
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
from wdistill.lpo import DecisionNode, PhaseThreeSolver, ProtocolTree, TruncationLeaf
from wdistill.mc import SIM_CHUNK


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


def recursive_descend(node, count, rng, counts, successes):
    """The multinomial split as a plain recursion, one call per node with
    a nonzero count."""
    if count <= 0:
        return
    if isinstance(node, Epr):
        counts[node.label()] = counts.get(node.label(), 0) + count
        successes[0] += count
        return
    if isinstance(node, Failure):
        counts[node.label()] = counts.get(node.label(), 0) + count
        return
    if isinstance(node, TruncationLeaf):
        counts[node.label()] = counts.get(node.label(), 0) + count
        successes[0] += int(rng.binomial(count, min(1.0, max(0.0, node.continuation_value))))
        return
    probs = np.array([p for p, _ in node.children])
    probs = np.clip(probs, 0.0, None)
    probs /= probs.sum()
    split = rng.multinomial(count, probs)
    for c, (_, child) in zip(split, node.children):
        recursive_descend(child, int(c), rng, counts, successes)


@pytest.mark.parametrize("name", ["wedge", "IV", "pairs:6"])
def test_simulate_counts_equal_a_recursive_split(solver, name):
    # two RNG chunks, so that the second stream is exercised too
    preset, _, size = name.partition(":")
    g = graph_catalog(preset, int(size) if size else None)
    tree = build_protocol_tree(standard_w(g.labels), g, epsilon=0.05, loop_cap=8, solver=solver)
    trials = SIM_CHUNK + 5_000
    counts, successes = {}, [0]
    for size, stream in zip((SIM_CHUNK, 5_000), np.random.SeedSequence(17).spawn(2)):
        rng = np.random.Generator(np.random.PCG64(stream))
        recursive_descend(tree.root, size, rng, counts, successes)
    res = simulate(tree, trials, seed=17)
    assert {t["label"]: t["count"] for t in res.terminals if t["count"]} == counts
    assert res.success_count == successes[0]


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
    g = ConfigGraph("AB", [("A", "B")])
    w = standard_w("AB")
    m = LocalMeasurement.diagonal("A", [(1.0, 1.0), (0.0, 0.0)])
    root = DecisionNode(w, g, m, "ev", ((1.0, Epr(("A", "B"))), (1e-3, FAILURE)))
    res = simulate(ProtocolTree(root, w, g, 1e-3, 1), 100_000, seed=5)
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
    with pytest.raises(PreconditionError):
        monotone_fuzz("tau", 10, 1, weak_radius=0.5)
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
