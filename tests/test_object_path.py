"""The object path of the measurement update, bit for bit against the
straightforward code it replaced.

``WState`` keeps its x0 and cleans its weights in one pass,
``LocalMeasurement.completeness_residuals`` takes its three sums in one
loop, ``component_update`` scales a list in place and ``monotone_fuzz``
reruns its leading states on Python floats.  The reference copies below
are the earlier versions, kept verbatim in logic: each check requires the
same float bits, labels and exceptions from both.
"""

import math
import pickle
import random
import sys
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wdistill import core, mc
from wdistill.core import (
    COMPLETENESS_TOL,
    COMPONENT_SUM_TOL,
    NULL_OUTCOME_PROB,
    ZERO_COMPONENT,
    InvalidInputError,
    InvalidMeasurementError,
    LocalMeasurement,
    WState,
    apply_measurement,
    component_update,
    default_labels,
    graph_catalog,
)

# ---------------------------------------------------------------------------
# reference copies


def reference_state(components, labels=None):
    """The constructor that re-summed its weights on every ``x0`` read:
    returns (components, labels, x0) or raises as it did."""
    try:
        comps = tuple(float(c) for c in components)
        labels = default_labels(len(comps)) if labels is None else core._labels(labels)
    except (TypeError, ValueError, OverflowError):
        raise InvalidInputError(f"bad components {components!r} or labels {labels!r}") from None
    if len(comps) < 2:
        raise InvalidInputError("a W-class state needs at least two parties")
    if len(labels) != len(comps):
        raise InvalidInputError("labels and components must have equal length")
    if len(set(labels)) != len(labels):
        raise InvalidInputError(f"duplicate party labels: {labels}")
    cleaned = []
    for c in comps:
        if c < -COMPONENT_SUM_TOL:
            raise InvalidInputError(f"negative component {c}")
        cleaned.append(0.0 if c < ZERO_COMPONENT else c)
    total = sum(cleaned)
    if not math.isfinite(total):
        raise InvalidInputError(f"non-finite component in {comps}")
    if total > 1.0 + COMPONENT_SUM_TOL:
        raise InvalidInputError(f"components sum to {total} > 1")
    components = tuple(cleaned)
    return components, labels, max(0.0, 1.0 - sum(components))


def reference_residuals(outcomes):
    sa = sum(a for a, _, _ in outcomes) - 1.0
    sb = sum(math.sqrt(a) * b for a, b, _ in outcomes)
    sc = sum(b * b + c for _, b, c in outcomes) - 1.0
    return sa, sb, sc


def reference_component_update(comps, x0, k, a, b, c):
    xk = comps[k]
    rest = 1.0 - x0 - xk
    amp0 = math.sqrt(x0 * a) + b * math.sqrt(xk)
    p = a * rest + c * xk + amp0 * amp0
    if p < NULL_OUTCOME_PROB:
        return p, (), 0.0
    new = tuple((c * xk if j == k else a * comps[j]) / p for j in range(len(comps)))
    return p, new, amp0 * amp0 / p


def reference_apply_measurement(state, m):
    """(p, (components, labels, x0) or None) per outcome."""
    if not all(abs(r) <= COMPLETENESS_TOL for r in reference_residuals(m.outcomes)):
        raise InvalidMeasurementError("not complete")
    _, _, x0 = reference_state(state.components, state.labels)
    k = state.labels.index(m.party)
    results = []
    for a, b, c in m.outcomes:
        p, comps, _ = reference_component_update(state.components, x0, k, a, b, c)
        results.append((p, None if p < NULL_OUTCOME_PROB else reference_state(comps, state.labels)))
    return results


# ---------------------------------------------------------------------------
# helpers


def bits(value):
    """Floats as their exact hex spelling (which tells -0.0 from 0.0),
    walked through tuples and lists; anything else as it is."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (tuple, list)):
        return type(value)(bits(v) for v in value)
    return value


def outcome(fn, *args):
    try:
        return "value", bits(fn(*args))
    except Exception as exc:  # the exception type and message are compared
        return "raised", type(exc), str(exc)


def new_state(components, labels=None):
    s = WState(components, labels)
    return s.components, s.labels, s.x0


def assert_constructors_agree(components, labels=None):
    got = outcome(new_state, components, labels)
    assert got == outcome(reference_state, components, labels), (components, labels)
    return got


# ---------------------------------------------------------------------------
# WState


NAN, INF = float("nan"), float("inf")
TOL = COMPONENT_SUM_TOL


def edge_inputs():
    cases = []
    for n in (2, 3, 5):
        base = [0.9 / n] * n
        for i in range(n):
            for bad in (NAN, INF, -INF):
                row = list(base)
                row[i] = bad
                cases.append(row)
            # NaN next to a negative, a tiny and an out-of-sum weight
            for other in (-0.5, -TOL / 2, 1e-20, 0.95):
                row = [other] * n
                row[i] = NAN
                cases.append(row)
    cases += [
        [np.float64(0.25), np.float32(0.25), np.int64(0), 0.5],
        np.array([0.1, 0.2, 0.3]),
        [np.float64(NAN), 0.1],
        [np.float64(INF), 0.1],
        [0.5, -TOL / 2], [0.5, -TOL * 2], [0.5, -TOL], [-TOL / 2, -TOL / 3],
        [0.5, -1e-300], [0.5, -0.0], [-0.0, -0.0],
        [1e-300, 1e-20, 1e-15, ZERO_COMPONENT, 0.4],
        [ZERO_COMPONENT * 0.999, 0.3], [5e-324, 0.3],
        [0.5, 0.5 + TOL / 2], [0.5, 0.5 + TOL * 2], [0.5, 0.5 + TOL + 2e-16],
        [0.25] * 4, [1.0, 0.0], [0.0, 0.0], [1.0, 1e-20],
        [0.1] * 10, [1 / 3] * 3,
        [], [0.5], "ab", [None, 0.1], [0.1, "0.2"], ["x", 0.1], [1e400, 0.1],
        [10 ** 400, 0.1], [complex(0.1, 0), 0.2],
    ]
    return cases


@pytest.mark.parametrize("components", edge_inputs(), ids=repr)
def test_the_constructor_matches_the_reference_on_edge_inputs(components):
    assert_constructors_agree(components)


@pytest.mark.parametrize("labels", [None, ["B", "A", "C"], [3, 1, 2], ["A", "A", "B"], ["A", "B"],
                                    [1.5, "A", "B"], "xyz", 7])
@pytest.mark.parametrize("components", [[0.2, 0.3, 0.1], [0.2, NAN, 0.1], [0.2, -0.1, 0.1], [0.2]])
def test_the_constructor_matches_the_reference_on_labels(components, labels):
    assert_constructors_agree(components, labels)


weights = (
    st.floats(allow_nan=True, allow_infinity=True)
    | st.floats(-2 * TOL, 2 * ZERO_COMPONENT)
    | st.floats(0.0, 1.0)
    | st.sampled_from([NAN, INF, -INF, -0.0, 0.0, -TOL, ZERO_COMPONENT, 1.0 + TOL])
    | st.integers(-2, 2)
)
numpy_weights = weights.map(np.float64) | st.floats(0.0, 1.0).map(np.float32)


@given(st.lists(weights | numpy_weights, max_size=7))
@settings(max_examples=600, deadline=None)
def test_the_constructor_matches_the_reference_on_random_weights(components):
    assert_constructors_agree(components)


@given(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=7), st.integers(0, 6), st.floats(0.0, 1.0))
@settings(max_examples=600, deadline=None)
def test_the_constructor_matches_the_reference_near_the_unit_sum(raw, at, spill):
    # scale onto the simplex, then push one weight past a sum of 1 + TOL by
    # up to a few TOL, and at times below zero by about TOL
    total = sum(raw) or 1.0
    comps = [w / total for w in raw]
    i = at % len(comps)
    comps[i] += (spill - 0.25) * 4 * TOL
    assert_constructors_agree(comps)
    comps[i] = -spill * 2 * TOL
    assert_constructors_agree(comps)


def test_x0_stays_out_of_equality_hash_repr_and_json():
    s = WState([0.2, 0.3, 0.1], ["A", "B", "C"])
    assert s.x0 == max(0.0, 1.0 - sum(s.components))
    assert repr(s) == "WState(components=(0.2, 0.3, 0.1), labels=('A', 'B', 'C'))"
    assert s.to_json() == {"components": [0.2, 0.3, 0.1], "labels": ["A", "B", "C"]}
    # a state whose kept x0 differs still equals and hashes like its twin
    twin = WState([0.2, 0.3, 0.1], ["A", "B", "C"])
    object.__setattr__(twin, "x0", 0.5)
    assert twin == s and hash(twin) == hash(s) and repr(twin) == repr(s)
    assert twin.to_json() == s.to_json()
    with pytest.raises(FrozenInstanceError):
        s.x0 = 0.0


@pytest.mark.parametrize("comps", [[0.2, 0.3, 0.1], [0.5, 0.5], [0.1] * 9, [1 / 3] * 3, [0.7, 1e-20]])
def test_x0_survives_a_pickle_round_trip(comps):
    s = WState(comps)
    back = pickle.loads(pickle.dumps(s))
    assert back == s and bits(back.x0) == bits(s.x0) == bits(reference_state(comps)[2])


# ---------------------------------------------------------------------------
# the measurement update


def seeded_pairs(seed):
    """States with n = 2..12, x0 = 0 and x0 > 0, each with random strong
    and weak measurements, a diagonal one and one with a null outcome."""
    rng = np.random.default_rng(seed)
    pick = random.Random(seed)
    pairs = []
    for n in range(2, 13):
        for x0_zero in (True, False):
            state = mc.random_w_state(rng, n, x0_zero=x0_zero)
            comps = list(state.components)
            comps[pick.randrange(n)] = 0.0
            holed = WState(comps)                       # a disentangled party
            for s in (state, holed):
                for label in s.labels:
                    pairs.append((s, mc.random_measurement(rng, label)))
                    pairs.append((s, mc.random_measurement(rng, label, weak_radius=0.05)))
                k = s.labels[comps.index(0.0)] if s is holed else pick.choice(s.labels)
                pairs.append((s, LocalMeasurement.diagonal(k, [(0.3, 0.8), (0.7, 0.2)])))
                # on a zero weight the (0, 0, 1) outcome has probability 0
                pairs.append((s, LocalMeasurement.diagonal(k, [(1.0, 0.0), (0.0, 1.0)])))
    return pairs


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_component_update_matches_the_reference(seed):
    nulls = 0
    for s, m in seeded_pairs(seed):
        k = s.index(m.party)
        for a, b, c in m.outcomes:
            got = component_update(s.components, s.x0, k, a, b, c)
            assert bits(got) == bits(reference_component_update(s.components, s.x0, k, a, b, c))
            nulls += got[0] < NULL_OUTCOME_PROB
    assert nulls > 0


@pytest.mark.skipif(sys.version_info >= (3, 12),
                    reason="from 3.12 the built-in sum of floats is compensated")
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_completeness_residuals_match_the_reference(seed):
    measurements = [m for _, m in seeded_pairs(seed)]
    measurements += [LocalMeasurement("A", []), LocalMeasurement("A", [(0.5, 0.0, 0.5), (0.4, 0.0, 0.5)]),
                     LocalMeasurement("A", [(0.1, -0.3, 0.2), (0.2, 0.7, 0.0), (0.7, 0.01, 0.3)])]
    for m in measurements:
        got = m.completeness_residuals()
        want = reference_residuals(m.outcomes)
        assert bits(got) == bits(want) and list(map(type, got)) == list(map(type, want))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_apply_measurement_matches_the_reference(seed):
    for s, m in seeded_pairs(seed):
        got = [(p, None if t is None else (t.components, t.labels, t.x0))
               for p, t in apply_measurement(s, m)]
        assert bits(got) == bits(reference_apply_measurement(s, m)), (s, m)


# ---------------------------------------------------------------------------
# the fuzz rerun


@pytest.mark.parametrize("fid", list(mc.FUZZ_GRAPHS))
def test_the_fuzz_rerun_on_python_floats_matches_the_numpy_rows(fid, monkeypatch):
    seen = []
    check = mc._SCALAR_CHECKS[fid]

    def recorded(pre, outcomes, graph):
        value = check(pre, outcomes, graph)
        seen.append(bits((pre.components, pre.labels, pre.x0,
                          [(p, t and (t.components, t.x0)) for p, t in outcomes], value)))
        return value

    monkeypatch.setitem(mc._SCALAR_CHECKS, fid, recorded)
    n_states, n_measurements, seed = 5, 12, 7
    mc.monotone_fuzz(fid, n_states, n_measurements, seed=seed)

    name = mc.FUZZ_GRAPHS[fid]
    graph = graph_catalog(name) if name else None
    rng = np.random.Generator(np.random.PCG64(seed))
    comps, parties, kraus = mc._draw_fuzz_inputs(rng, n_states, n_measurements, 0.05)
    want = []
    for s in range(mc.SCALAR_CHECK_STATES):
        state = WState(comps[s])
        for j in range(n_measurements):
            m = LocalMeasurement(state.labels[parties[s, j]], kraus[s, j])
            outcomes = apply_measurement(state, m)
            want.append(bits((state.components, state.labels, state.x0,
                              [(p, t and (t.components, t.x0)) for p, t in outcomes],
                              check(state, outcomes, graph))))
    assert len(seen) == mc.SCALAR_CHECK_STATES * n_measurements
    assert seen == want
