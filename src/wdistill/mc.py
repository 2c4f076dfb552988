"""Amplitude-level oracle, stochastic tree execution and monotone fuzzing.

The oracle re-applies measurements on the full 2^N state vector, which is
the independent check on the component-update rule everything else trusts.
Simulation walks protocol trees by splitting trial counts multinomially at
every branch, which samples the same distribution as per-trial walks but
runs in one pass per node.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import bounds as bounds_mod
from .core import (
    Epr,
    InternalConsistencyError,
    InvalidInputError,
    InvalidMeasurementError,
    LocalMeasurement,
    NULL_OUTCOME_PROB,
    PreconditionError,
    WState,
    apply_measurement,
    graph_catalog,
    kt_averages,
)
from .lpo import DecisionNode, ProtocolTree, TruncationLeaf

MAX_ORACLE_PARTIES = 12
ORACLE_MATCH_TOL = 1e-10
SUPPORT_TOL = 1e-9
RNG_ALGORITHM = "numpy-pcg64"
SIM_CHUNK = 1 << 18  # trials per RNG stream


@dataclass(frozen=True)
class StateVector:
    """Dense amplitude vector for up to MAX_ORACLE_PARTIES qubits.

    Party i occupies bit (N-1-i), so basis index 0 is the all-zero state
    and index 2^(N-1-i) flips exactly party i.
    """

    amplitudes: np.ndarray
    labels: tuple[str, ...]

    @classmethod
    def from_wstate(cls, state: WState) -> "StateVector":
        n = state.n
        if n > MAX_ORACLE_PARTIES:
            raise PreconditionError(f"oracle supports at most {MAX_ORACLE_PARTIES} parties")
        amps = np.zeros(1 << n, dtype=np.complex128)
        amps[0] = math.sqrt(state.x0)
        for i, c in enumerate(state.components):
            amps[1 << (n - 1 - i)] = math.sqrt(c)
        return cls(amps, state.labels)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def to_wstate(self) -> WState:
        """Project back to component form, checking the support stayed on
        Hamming weight <= 1."""
        n = len(self.labels)
        weight_ok = np.zeros(len(self.amplitudes), dtype=bool)
        weight_ok[0] = True
        for i in range(n):
            weight_ok[1 << i] = True
        stray = np.abs(self.amplitudes[~weight_ok]).max(initial=0.0)
        if stray > SUPPORT_TOL:
            raise InternalConsistencyError(
                f"amplitude {stray} outside the weight <= 1 support"
            )
        comps = tuple(
            float(abs(self.amplitudes[1 << (n - 1 - i)]) ** 2) for i in range(n)
        )
        return WState(comps, self.labels)


def statevector_oracle(
    state: WState, m: LocalMeasurement
) -> list[tuple[float, WState | None]]:
    """Measurement outcomes computed on the dense 2^N amplitude vector.

    Independent of the closed-form component update; the two must agree on
    every probability and component to ORACLE_MATCH_TOL.
    """
    if not m.is_complete():
        raise InvalidMeasurementError(
            f"measurement on {m.party!r} is not complete: residuals "
            f"{m.completeness_residuals()}"
        )
    k = state.index(m.party)
    n = state.n
    vec = StateVector.from_wstate(state)
    bit = n - 1 - k
    block = 1 << bit
    shaped = vec.amplitudes.reshape(-1, 2, block)
    results: list[tuple[float, WState | None]] = []
    for a, b, c in m.outcomes:
        out = np.empty_like(shaped)
        out[:, 0, :] = math.sqrt(a) * shaped[:, 0, :] + b * shaped[:, 1, :]
        out[:, 1, :] = math.sqrt(c) * shaped[:, 1, :]
        flat = out.reshape(-1)
        p = float(np.vdot(flat, flat).real)
        if p < NULL_OUTCOME_PROB:
            results.append((p, None))
            continue
        post = StateVector(flat / math.sqrt(p), state.labels)
        results.append((p, post.to_wstate()))
    return results


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
    """Trial counts per terminal with normal-approximation z-scores against
    the tree's analytic leaf probabilities.  A terminal whose probability
    is 0 or 1 but whose empirical rate differs has ``z = None`` (JSON
    null, an empty CSV field)."""

    trials: int
    seed: int
    rng: str
    chunk_size: int
    terminals: tuple[dict, ...]
    success_count: int
    success_rate: float
    success_expected: float

    def to_json(self) -> str:
        payload = {
            "trials": self.trials,
            "seed": self.seed,
            "rng": self.rng,
            "chunk_size": self.chunk_size,
            "success_count": self.success_count,
            "success_rate": self.success_rate,
            "success_expected": self.success_expected,
            "terminals": list(self.terminals),
        }
        return json.dumps(payload, sort_keys=True)

    def to_csv(self) -> str:
        lines = ["label,count,probability,empirical,std_err,z"]
        for t in self.terminals:
            z = "" if t["z"] is None else f"{t['z']:.12g}"
            lines.append(
                f"{t['label']},{t['count']},{t['probability']:.12g},"
                f"{t['empirical']:.12g},{t['std_err']:.12g},{z}"
            )
        return "\n".join(lines)


def _descend(root, count: int, rng: np.random.Generator, counts: dict) -> int:
    """Split ``count`` trials down the tree, depth first and first child
    first, on an explicit stack; returns the successes."""
    successes = 0
    stack = [(root, count)]
    while stack:
        node, count = stack.pop()
        if not isinstance(node, DecisionNode):
            counts[node.label()] = counts.get(node.label(), 0) + count
            if isinstance(node, Epr):
                successes += count
            elif isinstance(node, TruncationLeaf):
                # resolve the cut loop with a coin of its continuation value
                successes += int(rng.binomial(count, min(1.0, max(0.0, node.continuation_value))))
            continue
        probs = np.array([p for p, _ in node.children])
        probs = np.clip(probs, 0.0, None)
        probs /= probs.sum()
        split = rng.multinomial(count, probs)
        stack.extend((child, int(c)) for c, (_, child) in zip(split[::-1], node.children[::-1]) if c)
    return successes


def simulate(tree: ProtocolTree, trials: int, seed: int, workers: int | None = None) -> SimResult:
    """Run ``trials`` protocol executions through the tree.

    Counts are split multinomially branch by branch, depth first on an
    explicit stack, in fixed-size chunks with one RNG stream each, so
    results are byte-identical for a given seed and no tree is too deep to
    walk.  ``workers`` is accepted for compatibility and ignored: the walk
    holds the interpreter lock, so worker threads only slowed it down.
    """
    if trials < 1:
        raise PreconditionError("need at least one trial")
    chunk_count = (trials + SIM_CHUNK - 1) // SIM_CHUNK
    streams = np.random.SeedSequence(seed).spawn(chunk_count)
    sizes = [SIM_CHUNK] * (chunk_count - 1) + [trials - SIM_CHUNK * (chunk_count - 1)]
    counts: dict = {}
    success = 0
    for size, stream in zip(sizes, streams):
        success += _descend(tree.root, size, np.random.Generator(np.random.PCG64(stream)), counts)

    analytic = tree.leaf_probabilities()
    terminals = []
    for label in sorted(set(analytic) | set(counts)):
        p = analytic.get(label, 0.0)
        c = counts.get(label, 0)
        emp = c / trials
        se = math.sqrt(p * (1.0 - p) / trials) if 0.0 < p < 1.0 else 0.0
        if se > 0.0:
            z = (emp - p) / se
        else:
            # a leaf of probability 0 or 1 has no spread, so a deviation
            # from it has no z-score
            z = 0.0 if abs(emp - p) < 1e-15 else None
        terminals.append(
            {"label": label, "count": int(c), "probability": p, "empirical": emp,
             "std_err": se, "z": z}
        )
    return SimResult(
        trials=trials,
        seed=seed,
        rng=RNG_ALGORITHM,
        chunk_size=SIM_CHUNK,
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


def monotone_fuzz(
    function_id: str,
    n_states: int,
    n_measurements: int,
    weak_radius: float = 0.05,
    seed: int = 0,
    x0_zero: bool = False,
) -> float:
    """Largest average increase of the requested monotone over random
    states and random weak complete measurements.

    function_id is one of "kt_i", "kt_0", "tau", "gamma".  A correct
    monotone never rises on average, so anything above rounding noise is a
    violation.  The tau and gamma checks reassign party roles on every
    outcome and run on their native four-party configurations.
    """
    if weak_radius > 0.1:
        raise PreconditionError("weak_radius must not exceed 0.1")
    if n_states < 1 or n_measurements < 1:
        raise PreconditionError("the fuzz needs at least one state and one measurement")
    graph = None
    if function_id == "kt_i":
        check = _kt_i_violation
    elif function_id == "kt_0":
        check = _kt_0_violation
    elif function_id == "tau":
        graph = graph_catalog("III-c")
        check = _monotone_violation(lambda s, g: bounds_mod.tau(s, g))
    elif function_id == "gamma":
        graph = graph_catalog("IV")
        check = _monotone_violation(lambda s, g: bounds_mod.gamma(s, g))
    else:
        raise InvalidInputError(f"unknown monotone id {function_id!r}")

    rng = np.random.Generator(np.random.PCG64(seed))
    worst = -math.inf
    n = 4
    for _ in range(n_states):
        state = random_w_state(rng, n, x0_zero=x0_zero)
        for _ in range(n_measurements):
            party = state.labels[int(rng.integers(n))]
            m = random_measurement(rng, party, weak_radius=weak_radius)
            outcomes = apply_measurement(state, m)
            worst = max(worst, check(state, outcomes, graph))
    return worst
