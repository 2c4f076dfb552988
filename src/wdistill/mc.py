"""Amplitude-level oracle, stochastic tree execution and monotone fuzzing.

The oracle re-applies measurements on the full 2^N state vector, which is
the independent check on the component-update rule everything else trusts;
the vector is real, and one matrix product applies every outcome of a
measurement at once.
Simulation flows trial counts through a protocol tree's node table,
splitting them multinomially at every branch, which samples the same
distribution as per-trial walks but draws at most once per child of each
distinct node.
"""

from __future__ import annotations

import functools
import io
import itertools
import json
import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import bounds as bounds_mod
from .core import (
    ConfigGraph,
    DISTRIBUTION_SUM_TOL,
    Epr,
    InternalConsistencyError,
    InvalidInputError,
    LocalMeasurement,
    NULL_OUTCOME_PROB,
    PreconditionError,
    WState,
    ZERO_COMPONENT,
    _integer,
    apply_measurement,
    graph_catalog,
    kt_averages,
)
from .lpo import ProtocolTree, TruncationLeaf

MAX_ORACLE_PARTIES = 12
ORACLE_TOL = 1e-10
SUPPORT_TOL = 1e-9
RNG_ALGORITHM = "numpy-pcg64"


@functools.lru_cache(maxsize=None)
def _support(n: int) -> np.ndarray:
    """Read-only basis indices of the Hamming weight <= 1 support: 0, then
    each party's single excitation 2^(N-1-i) in label order."""
    support = np.concatenate(([0], 1 << np.arange(n - 1, -1, -1)))
    support.flags.writeable = False
    return support


def _support_weights(amps: np.ndarray, n: int) -> np.ndarray:
    """Party weights of normalized real amplitude vectors (..., 2^N), read
    as the squared amplitudes of the single excitations.

    The one support/read rule of :func:`statevector_oracle`: an amplitude
    outside the Hamming weight <= 1 support above SUPPORT_TOL raises
    InternalConsistencyError.
    """
    support = _support(n)
    stray = np.abs(amps)
    stray[..., support] = 0.0
    worst = stray.max(initial=0.0)
    if worst > SUPPORT_TOL:
        raise InternalConsistencyError(f"amplitude {worst} outside the weight <= 1 support")
    weights = amps[..., support[1:]]
    return weights * weights


def statevector_oracle(
    state: WState, m: LocalMeasurement
) -> list[tuple[float, WState | None]]:
    """Measurement outcomes computed on the dense 2^N amplitude vector.

    Independent of the closed-form component update; the two must agree on
    every probability and component to ORACLE_TOL.  Party i occupies bit
    (N-1-i) of the basis index, so index 0 is the all-zero state and the
    support of :func:`_support` holds every amplitude of a W-class state.
    That state and every upper-triangular Kraus update of it have real
    amplitudes, so the vector is float64.  All outcomes are computed in
    one pass: the outcomes' Kraus matrices [[sqrt(a), b], [0, sqrt(c)]],
    stacked, act on the measuring party's axis of the vector in one matrix
    product; each probability is the squared norm of its unnormalized
    post-state; and the weights of every outcome at or above
    NULL_OUTCOME_PROB are read at once from the normalized post-states by
    :func:`_support_weights`.  An outcome below NULL_OUTCOME_PROB is
    reported as ``(p, None)``.  More than MAX_ORACLE_PARTIES parties raise
    PreconditionError.
    """
    m.require_complete()
    k = state.index(m.party)
    n = state.n
    if n > MAX_ORACLE_PARTIES:
        raise PreconditionError(f"oracle supports at most {MAX_ORACLE_PARTIES} parties")
    amps = np.zeros(1 << n)
    amps[0] = math.sqrt(state.x0)
    amps[_support(n)[1:]] = np.sqrt(state.components)
    kraus = np.array([[[math.sqrt(a), b], [0.0, math.sqrt(c)]] for a, b, c in m.outcomes])
    # the party's axis moves to the front, so one product applies every
    # outcome (stacked over the 2^k blocks before the party, it would be
    # one small product per block); einsum keeps it out of BLAS, whose
    # work buffers raise the peak memory of a run
    blocks = 1 << k
    axis = amps.reshape(blocks, 2, -1).swapaxes(0, 1).reshape(2, -1)
    out = np.einsum("kij,jm->kim", kraus, axis).reshape(len(kraus), 2, blocks, -1)
    out = out.swapaxes(1, 2).reshape(len(kraus), -1)
    probs = np.einsum("ij,ij->i", out, out)
    live = probs >= NULL_OUTCOME_PROB
    # an outcome below NULL_OUTCOME_PROB has no normalized post-state: its
    # row is divided by infinity to zero and its weights are never read
    post = out / np.sqrt(np.where(live, probs, np.inf))[:, None]
    weights = _support_weights(post, n).tolist()
    return [
        (p, WState(w, state.labels) if alive else None)
        for p, alive, w in zip(probs.tolist(), live.tolist(), weights)
    ]


# ---------------------------------------------------------------------------
# random sampling


def random_w_state(rng: np.random.Generator, n: int, x0_zero: bool = False) -> WState:
    """Uniform draw from the weight simplex (flat Dirichlet), optionally
    restricted to x0 = 0."""
    if x0_zero:
        comps = rng.dirichlet(np.ones(n))
    else:
        comps = rng.dirichlet(np.ones(n + 1))[1:]
    return WState(tuple(float(c) for c in comps))


def random_measurement(
    rng: np.random.Generator, party: str, weak_radius: float | None = None
) -> LocalMeasurement:
    """Random complete binary measurement.

    Draw (a1, c1, b1), solve (a2, b2, c2) from completeness and reject
    when c2 would go negative.  With ``weak_radius`` the diagonal weights
    stay within that distance of 1/2 and b1 shrinks accordingly.
    """
    while True:
        if weak_radius is not None:
            a1 = 0.5 + weak_radius * float(rng.uniform(-1.0, 1.0))
            c1 = 0.5 + weak_radius * float(rng.uniform(-1.0, 1.0))
            b1 = 0.5 * weak_radius * float(rng.uniform(-1.0, 1.0))
        else:
            a1 = float(rng.uniform(0.02, 0.98))
            c1 = float(rng.uniform(0.0, 1.0))
            b1 = float(rng.normal(0.0, 0.35))
        a2 = 1.0 - a1
        b2 = -math.sqrt(a1) * b1 / math.sqrt(a2)
        c2 = 1.0 - c1 - b1 * b1 - b2 * b2
        if c2 < 0.0:
            continue
        return LocalMeasurement(party, [(a1, b1, c1), (a2, b2, c2)])


# ---------------------------------------------------------------------------
# stochastic execution of protocol trees


@dataclass(frozen=True)
class SimResult:
    """Trial counts per terminal, all drawn from one RNG stream, with
    normal-approximation z-scores against the tree's analytic leaf
    probabilities.  A terminal of probability 0 or 1 whose empirical rate
    differs has ``z = None`` (JSON null, an empty CSV field)."""

    trials: int
    seed: int
    rng: str
    terminals: tuple[dict, ...]
    success_count: int
    success_rate: float
    success_expected: float

    def to_json(self) -> str:
        payload = {
            "trials": self.trials,
            "seed": self.seed,
            "rng": self.rng,
            "success_count": self.success_count,
            "success_rate": self.success_rate,
            "success_expected": self.success_expected,
            "terminals": list(self.terminals),
        }
        return json.dumps(payload, sort_keys=True)

    def to_csv(self) -> str:
        """One row per terminal under a header, written by the ``csv``
        module, so a label with a comma, such as ``EPR(A,B)``, is quoted."""
        # csv loads a C extension (0.13 MB resident); only CSV output needs it
        import csv

        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(("label", "count", "probability", "empirical", "std_err", "z"))
        for t in self.terminals:
            z = "" if t["z"] is None else f"{t['z']:.12g}"
            fields = (f"{t[key]:.12g}" for key in ("probability", "empirical", "std_err"))
            writer.writerow((t["label"], t["count"], *fields, z))
        return out.getvalue().removesuffix("\n")


def _split(rng, count, probs):
    """Share ``count`` trials among children of probabilities ``probs``
    as ``rng.multinomial`` would, draw for draw.

    The probabilities are clipped below at 0 and normalized as plain
    floats, the sum running in order as numpy sums a short array.  Then
    come numpy's own binomial steps: each child but the last takes
    ``rng.binomial(left, q / mass)`` of the ``left`` trials, where q is its
    normalized probability and ``mass`` starts at 1 and loses each q in
    turn, and the draws stop once no trial is left.  A ratio that rounding
    lifts above 1 is drawn at 1, which takes every trial left as numpy's
    draw does, after the same one uniform."""
    if not count:
        return [0] * len(probs)
    clipped = [0.0 if p < 0.0 else p for p in probs]
    total = 0.0
    for p in clipped:
        total += p
    shares = [0] * len(probs)
    left, mass = count, 1.0
    for j in range(len(probs) - 1):
        q = clipped[j] / total
        if q:
            share = rng.binomial(left, min(1.0, q / mass))
            shares[j] = share
            left -= share
            if not left:
                return shares
        mass -= q
    shares[-1] = left
    return shares


def simulate(tree: ProtocolTree, trials: int, seed: int, workers: int | None = None) -> SimResult:
    """Run ``trials`` protocol executions through the tree.

    All trials take one pass over the tree's node table, parents first,
    on one RNG stream: a decision node splits the trials that reach it,
    summed over all of its parents, with one multinomial draw
    (:func:`_split`, numpy's binomial chain on child probabilities
    clipped and normalized as Python floats), and a node that no trial
    reaches draws nothing.  A sum of independent multinomials with equal
    probabilities is one multinomial, so this samples the same
    distribution as splitting path by path, at a cost that does not grow
    with ``trials`` (an integer from 1 to 2**63 - 1, numpy's int64
    counts).  The same pass carries each node's path probability with the
    arithmetic of :meth:`ProtocolTree.leaf_probabilities`, so the
    analytic probability of each label is read off it.  Each truncation
    leaf resolves its cut loop with one binomial coin of its continuation
    value.  Results are byte-identical for a given seed, an integer that
    must not be negative.  ``workers`` is accepted for compatibility and
    ignored.
    """
    trials, seed = _integer("trials", trials), _integer("seed", seed)
    if not 1 <= trials <= 2**63 - 1:
        raise PreconditionError("trials must lie between 1 and 2**63 - 1")
    if seed < 0:
        raise PreconditionError("seed must not be negative")
    # spawn(1)[0]: the stream earlier releases drew their first 2**18 trials from
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed).spawn(1)[0]))

    reach = {tree.root: (trials, 1.0)}  # node -> (trials, path probability)
    for node in reversed(tree.nodes):
        count, mass = reach.pop(node)
        children = node.children
        shares = _split(rng, count, [p for p, _ in children])
        for share, (p, child) in zip(shares, children):
            got = reach.get(child)
            reach[child] = (share, mass * p) if got is None else (got[0] + share, got[1] + mass * p)

    counts: dict = {}
    analytic: dict = {}
    success = 0
    for leaf, (count, mass) in reach.items():
        label = leaf.label()
        counts[label] = counts.get(label, 0) + int(count)
        analytic[label] = analytic.get(label, 0.0) + mass
        if isinstance(leaf, Epr):
            success += int(count)
        elif isinstance(leaf, TruncationLeaf) and count:
            p = min(1.0, max(0.0, leaf.continuation_value))
            success += int(rng.binomial(count, p))

    terminals = []
    for label in sorted(analytic):
        p = analytic[label]
        c = counts[label]
        emp = c / trials
        se = math.sqrt(p * (1.0 - p) / trials) if 0.0 < p < 1.0 else 0.0
        if se > 0.0:
            z = (emp - p) / se
        else:
            # a leaf of probability 0 or 1 has no spread, so a deviation
            # from it has no z-score
            z = 0.0 if abs(emp - p) < 1e-15 else None
        terminals.append(
            {"label": label, "count": c, "probability": p, "empirical": emp,
             "std_err": se, "z": z}
        )
    return SimResult(
        trials=trials,
        seed=seed,
        rng=RNG_ALGORITHM,
        terminals=tuple(terminals),
        success_count=success,
        success_rate=success / trials,
        success_expected=tree.analytic_value(),
    )


# ---------------------------------------------------------------------------
# monotone fuzzing


def _kt_i_violation(pre, outcomes, graph):
    return max(kt_averages(pre, outcomes)[1:])


def _kt_0_violation(pre, outcomes, graph):
    return -kt_averages(pre, outcomes)[0]


def _monotone_violation(fn):
    def check(pre, outcomes, graph):
        before = fn(pre, graph).value
        avg = 0.0
        for p, post in outcomes:
            if post is None:
                continue
            avg += p * fn(post, graph).value
        return avg - before

    return check


# the object-path check of one (state, outcomes, graph) triple; tau and
# gamma are looked up at call time
_SCALAR_CHECKS = {
    "kt_i": _kt_i_violation,
    "kt_0": _kt_0_violation,
    "tau": _monotone_violation(lambda s, g: bounds_mod.tau(s, g)),
    "gamma": _monotone_violation(lambda s, g: bounds_mod.gamma(s, g)),
}
# the native configuration each monotone is fuzzed on, by monotone id: the
# one list of ids, which the command line's --function choices and the
# acceptance criteria iterate in this order
FUZZ_GRAPHS = {"kt_i": None, "kt_0": None, "tau": "III-c", "gamma": "IV"}
FUZZ_PARTIES = 4
SCALAR_CHECK_STATES = 2     # leading states whose pairs rerun on the object path
PATH_AGREEMENT_TOL = 1e-12


@dataclass(frozen=True)
class _RoleTables:
    """The role rules of ``bounds.tau`` and ``bounds.gamma`` as lookup
    tables over a four-party graph's label indices.

    ``unconnected[i]`` and ``differing[i]`` mark the candidates for n1'
    when party i is n1; ``rest[i, j]`` holds the two parties other than
    i and j in label order, and ``e2[i, j]`` / ``e3[i, j]`` the first of
    them with degree 2 / 3.
    """

    degree: np.ndarray
    unconnected: np.ndarray
    differing: np.ndarray
    rest: np.ndarray
    e2: np.ndarray
    e3: np.ndarray

    @classmethod
    def of(cls, graph: ConfigGraph) -> "_RoleTables":
        n = graph.n
        degree = np.array([graph.degree(l) for l in graph.labels])
        adjacent = np.array([[graph.has_edge(u, v) for v in graph.labels] for u in graph.labels])
        rest = np.zeros((n, n, 2), dtype=np.intp)
        for i, j in itertools.permutations(range(n), 2):
            rest[i, j] = [l for l in range(n) if l not in (i, j)]
        return cls(
            degree=degree,
            unconnected=~adjacent & ~np.eye(n, dtype=bool),
            differing=degree[:, None] != degree[None, :],
            rest=rest,
            e2=_pick(rest, (degree[rest] == 2).argmax(axis=-1)),
            e3=_pick(rest, (degree[rest] == 3).argmax(axis=-1)),
        )


def _pick(x: np.ndarray, index: np.ndarray) -> np.ndarray:
    """x[..., index] per row: the last axis of x at one index per row."""
    return np.take_along_axis(x, index[..., None], axis=-1)[..., 0]


def _largest(x: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    """Index of the largest candidate per row; argmax takes the lowest
    index on ties, which is the label-order tie-break of the bounds."""
    return np.where(candidates, x, -np.inf).argmax(axis=-1)


def _tau_values(x: np.ndarray, roles: _RoleTables) -> np.ndarray:
    """``bounds.tau`` over the last axis of x, term for term."""
    n1 = x.argmax(axis=-1)
    n1p = _largest(x, roles.unconnected[n1])
    xn1, xn1p = _pick(x, n1), _pick(x, n1p)
    xp, xpp = _pick(x, roles.rest[n1, n1p, 0]), _pick(x, roles.rest[n1, n1p, 1])
    return 2.0 * xp + 2.0 * xpp - 2.0 * xp * xpp / xn1 + (2.0 / 3.0) * xp * xpp * xn1p / (xn1 * xn1)


def _gamma_values(x: np.ndarray, roles: _RoleTables) -> np.ndarray:
    """``bounds.gamma`` over the last axis of x, term for term."""
    n1 = x.argmax(axis=-1)
    n1p = _largest(x, roles.differing[n1])
    xn1, xn1p = _pick(x, n1), _pick(x, n1p)
    xe2, xe3 = _pick(x, roles.e2[n1, n1p]), _pick(x, roles.e3[n1, n1p])
    return np.where(
        roles.degree[n1] == 3,
        2.0 * xe3
        + (xe2 + xn1p) * (2.0 - xe3 / xn1)
        - 2.0 * xn1p * xe2 / xn1
        + (4.0 / 3.0) * xe2 * xe3 * xn1p / (xn1 * xn1),
        2.0 * xn1p
        + 2.0 * xe3
        - xn1p * xe3 / xn1
        + xe2 * xe3 * xn1p / (3.0 * xn1 * xn1),
    )


_BATCHED_MONOTONES = {"tau": _tau_values, "gamma": _gamma_values}


def _sum_in_order(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Sum along an axis term by term from the first, as the object path's
    loops and ``sum`` do, so that the two paths agree bit for bit."""
    x = np.moveaxis(x, axis, 0)
    total = x[0]
    for term in x[1:]:
        total = total + term
    return total


def _stored(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Party weights as ``WState`` stores them (below ZERO_COMPONENT
    clamped to 0) and its derived x0."""
    x = np.where(x < ZERO_COMPONENT, 0.0, x)
    return x, np.maximum(0.0, 1.0 - _sum_in_order(x))


def _update_batch(x, x0, parties, kraus):
    """``core.component_update`` for every outcome of every pair at once.

    x (S, N) and x0 (S,) are the states, parties (S, M) the measuring
    party of each pair and kraus (S, M, K, 3) the (a, b, c) of each
    outcome.  Returns the probabilities (S, M, K) and the normalized
    weights (S, M, K, N); an outcome below NULL_OUTCOME_PROB is left
    unnormalized.
    """
    a, b, c = kraus[..., 0], kraus[..., 1], kraus[..., 2]
    xk = np.take_along_axis(x, parties, axis=1)[..., None]
    x0 = x0[:, None, None]
    rest = 1.0 - x0 - xk
    amp0 = np.sqrt(x0 * a) + b * np.sqrt(xk)
    p = a * rest + c * xk + amp0 * amp0
    measured = np.arange(x.shape[-1]) == parties[..., None, None]
    new = np.where(measured, (c * xk)[..., None], a[..., None] * x[:, None, None, :])
    return p, new / np.where(p < NULL_OUTCOME_PROB, 1.0, p)[..., None]


def _batched_violations(function_id, graph, comps, parties, kraus) -> np.ndarray:
    """The violation of every (state, measurement) pair, (S, M), equal to
    the object path's ``apply_measurement`` plus check on each pair.

    Outcomes below NULL_OUTCOME_PROB carry no state and add nothing to the
    averages, and the probabilities of each pair must sum to one, as in
    ``kt_averages``.
    """
    x, x0 = _stored(comps)
    p, post = _update_batch(x, x0, parties, kraus)
    total = _sum_in_order(p)
    off = np.abs(total - 1.0) > DISTRIBUTION_SUM_TOL
    if off.any():
        raise InvalidInputError(f"outcome probabilities sum to {total[off][0]}")
    live = p >= NULL_OUTCOME_PROB
    # a state-less outcome is evaluated at its pre state, then weighted 0
    post, post_x0 = _stored(np.where(live[..., None], post, x[:, None, None, :]))
    weight = np.where(live, p, 0.0)
    if function_id == "kt_i":
        return (_sum_in_order(weight[..., None] * post, axis=2) - x[:, None, :]).max(axis=-1)
    if function_id == "kt_0":
        return x0[:, None] - _sum_in_order(weight * post_x0)
    if (x.max(axis=-1) <= 0.0).any() or (post.max(axis=-1) <= 0.0).any():
        raise PreconditionError("the state carries no weight on any party")
    roles = _RoleTables.of(graph)
    value = _BATCHED_MONOTONES[function_id]
    return _sum_in_order(weight * value(post, roles)) - value(x, roles)[:, None]


def _draw_fuzz_inputs(rng, n_states: int, n_measurements: int, weak_radius: float):
    """Random states and weak measurements as arrays, in one pass.

    The states are flat-Dirichlet draws with x0 > 0, as
    :func:`random_w_state`; then come the measuring parties and the
    (a1, c1, b1) draws of :func:`random_measurement` for every pair, each
    pair whose c2 would go negative drawing its three again.  Returns the
    party weights (S, 4), the parties (S, M) and the Kraus triples
    (S, M, 2, 3).
    """
    weights = rng.dirichlet(np.ones(FUZZ_PARTIES + 1), size=n_states)
    shape = (n_states, n_measurements)
    parties = rng.integers(FUZZ_PARTIES, size=shape)
    a1, c1, b1 = np.empty(shape), np.empty(shape), np.empty(shape)
    redraw = np.ones(shape, dtype=bool)
    while redraw.any():
        count = int(redraw.sum())
        a1[redraw] = 0.5 + weak_radius * rng.uniform(-1.0, 1.0, count)
        c1[redraw] = 0.5 + weak_radius * rng.uniform(-1.0, 1.0, count)
        b1[redraw] = 0.5 * weak_radius * rng.uniform(-1.0, 1.0, count)
        a2 = 1.0 - a1
        b2 = -np.sqrt(a1) * b1 / np.sqrt(a2)
        c2 = 1.0 - c1 - b1 * b1 - b2 * b2
        redraw = c2 < 0.0
    kraus = np.stack([np.stack([a1, b1, c1], axis=-1), np.stack([a2, b2, c2], axis=-1)], axis=-2)
    return weights[:, 1:], parties, kraus


def monotone_fuzz(
    function_id: str,
    n_states: int,
    n_measurements: int,
    weak_radius: float = 0.05,
    seed: int = 0,
) -> float:
    """Largest average increase of the requested monotone over random
    states and random weak complete measurements.

    function_id is a key of FUZZ_GRAPHS: "kt_i", "kt_0", "tau" or
    "gamma".  n_states, n_measurements and seed are Python or numpy
    integers, not bools, and weak_radius is a real number from 0 to 0.1.
    A correct monotone never rises on average, so anything above rounding
    noise is a violation.  The tau and gamma checks reassign party roles
    on every outcome and run on their native four-party configurations.

    All states and measurements are drawn at once and evaluated as numpy
    arrays: the component update, the kt averages and tau and gamma with
    their roles read from per-graph lookup tables.  The first
    SCALAR_CHECK_STATES states, with all their measurements, also run
    through the object path (``apply_measurement`` and ``bounds.tau`` or
    ``bounds.gamma``), on their weights, parties and Kraus triples read
    once as Python floats and ints by ``.tolist()``, which hold the array
    elements' values exactly.  The result is the larger of the two maxima,
    and at least the largest disagreement between the paths on a checked
    pair if that exceeds PATH_AGREEMENT_TOL, so a fault on either side
    shows.
    """
    n_states = _integer("n_states", n_states)
    n_measurements = _integer("n_measurements", n_measurements)
    seed = _integer("seed", seed)
    if not isinstance(weak_radius, numbers.Real):
        raise PreconditionError(f"weak_radius must be a number, not {weak_radius!r}")
    if not 0.0 <= weak_radius <= 0.1:
        raise PreconditionError("weak_radius must lie between 0 and 0.1")
    if seed < 0:
        raise PreconditionError("seed must not be negative")
    if n_states < 1 or n_measurements < 1:
        raise PreconditionError("the fuzz needs at least one state and one measurement")
    if function_id not in FUZZ_GRAPHS:
        raise InvalidInputError(f"unknown monotone id {function_id!r}")
    graph = graph_catalog(FUZZ_GRAPHS[function_id]) if FUZZ_GRAPHS[function_id] else None

    rng = np.random.Generator(np.random.PCG64(seed))
    comps, parties, kraus = _draw_fuzz_inputs(rng, n_states, n_measurements, weak_radius)
    batched = _batched_violations(function_id, graph, comps, parties, kraus)

    check = _SCALAR_CHECKS[function_id]
    checked = batched[:SCALAR_CHECK_STATES]
    scalar = np.empty_like(checked)
    rerun = zip(comps[:SCALAR_CHECK_STATES].tolist(), parties[:SCALAR_CHECK_STATES].tolist(),
                kraus[:SCALAR_CHECK_STATES].tolist())
    for s, (weights, row_parties, row_kraus) in enumerate(rerun):
        state = WState(weights)
        for j, (k, outcomes) in enumerate(zip(row_parties, row_kraus)):
            m = LocalMeasurement(state.labels[k], outcomes)
            scalar[s, j] = check(state, apply_measurement(state, m), graph)
    gap = np.abs(scalar - checked).max()
    maxima = [batched.max(), scalar.max()]
    if not gap <= PATH_AGREEMENT_TOL:
        maxima.append(gap)
    return float(np.max(maxima))
