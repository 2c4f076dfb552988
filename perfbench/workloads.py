"""Inputs, operations and output checks of the four benchmark workloads.

Every workload is a closed loop: one client in one process runs one op
after another on one thread.  Inputs are generated here from the workload
seed with Python's own ``random`` module, so the same seed gives the same
inputs on any numpy version, and the program only ever receives
``WState`` and ``ConfigGraph`` values.

Where a seed could pick inputs whose outputs were never recorded, it picks
from a fixed pool instead: pool entry ``i`` is generated from its own
string seed, and ``reference.json`` holds the outputs of every pool entry.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

from wdistill import bounds, core, lpo, mc
from wdistill.core import ConfigGraph, LocalMeasurement, WState

VALUE_TOL = 1e-12        # p_lpo, p_fl and bound values
TREE_TOL = 1e-9          # analytic value of a protocol tree
SIM_Z_MAX = 5.0          # simulated success rate vs the analytic value
CHECK_TOL = 1e-10        # monotone fuzz maximum, oracle disagreement

# scaling: (family, n); one op is one cold solve, 0.03 s to 1.3 s each
SCALING_GRAPHS = (
    ("complete", 5), ("complete", 6), ("complete", 7),
    ("cycle", 6), ("cycle", 7), ("cycle", 8),
    ("path", 6), ("path", 7), ("path", 8),
    ("pairs", 8), ("pairs", 10), ("pairs", 12),
)

# queries: the twelve fixed presets plus small parametric graphs
QUERY_GRAPHS = (
    "wedge", "triangle", "I", "I'", "I''", "II", "III-a", "III-b", "III-c",
    "IV", "V", "VI", "complete:5", "pairs:6", "cycle:5", "path:6",
)
QUERY_POOL = 4000
QUERY_OPS = 3000

# trees: graph -> loop cap, chosen so that one build takes 0.05 s to 0.4 s
TREE_CAPS = {
    "triangle": 200, "IV": 20, "VI": 30, "III-c": 60, "complete:5": 3, "pairs:6": 8,
}
TREE_POOL = 16           # random x0 > 0 states recorded per graph
TREE_RANDOM_STATES = 2   # of which each seed uses this many
TREE_EPSILON = 1e-3
SIM_TRIALS = 200_000

# audit: monotone fuzz ops per monotone, and oracle batches
FUZZ_IDS = ("kt_i", "kt_0", "tau", "gamma")
FUZZ_OPS = 16
FUZZ_STATES = 30
FUZZ_MEASUREMENTS = 10
ORACLE_OPS = 32
ORACLE_PAIRS = 60
ORACLE_MAX_PARTIES = 12


@dataclass
class Op:
    """One timed call sequence.  ``run`` returns the output that ``check``
    compares with the reference; ``check`` returns None on agreement or a
    message describing the mismatch.  ``work`` returns counts for the
    per-layer metrics.  Only ``run`` is timed."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    work: Callable[[object], dict] = lambda out: {}


@dataclass
class Workload:
    ops: list[Op]
    final: Callable[[], dict] = lambda: {}  # counts read once, after the last op


# ---------------------------------------------------------------------------
# graphs and states


def letter_labels(n: int) -> tuple[str, ...]:
    return tuple(chr(ord("A") + i) for i in range(n))


def family_graph(family: str, labels) -> ConfigGraph:
    """complete, cycle, path or disjoint pairs on ``labels`` in the given
    order; core.graph_catalog has no cycle or path presets."""
    n = len(labels)
    if family == "complete":
        edges = [(labels[i], labels[j]) for i in range(n) for j in range(i + 1, n)]
    elif family == "cycle":
        edges = [(labels[i], labels[(i + 1) % n]) for i in range(n)]
    elif family == "path":
        edges = [(labels[i], labels[i + 1]) for i in range(n - 1)]
    elif family == "pairs":
        edges = [(labels[2 * i], labels[2 * i + 1]) for i in range(n // 2)]
    else:
        raise ValueError(f"unknown graph family {family!r}")
    return ConfigGraph(labels, edges)


def named_graph(name: str) -> ConfigGraph:
    """A fixed preset, ``family:n`` for the catalog's parametric presets,
    or ``cycle:n`` / ``path:n`` built here on labels A, B, ..."""
    if ":" not in name:
        return core.graph_catalog(name)
    family, n = name.split(":")
    if family in ("cycle", "path"):
        return family_graph(family, letter_labels(int(n)))
    return core.graph_catalog(family, int(n))


def relabelled(rng: random.Random, n: int) -> tuple[str, ...]:
    """n distinct random labels in ascending order.

    The engine reads labels only through their order (tie-breaks go to the
    lowest index, edges are stored with the smaller label first), so any
    ascending relabelling of a graph gives the same values as the letters
    A, B, ... that the reference was recorded on.
    """
    names = set()
    while len(names) < n:
        names.add("".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(4)))
    return tuple(sorted(names))


def random_state(rng: random.Random, labels, x0_zero: bool) -> WState:
    """Uniform draw from the weight simplex (flat Dirichlet)."""
    weights = [rng.expovariate(1.0) for _ in range(len(labels) + (0 if x0_zero else 1))]
    total = sum(weights)
    return WState([w / total for w in weights[-len(labels):]], labels)


def random_measurement(rng: random.Random, party: str) -> LocalMeasurement:
    """Random complete binary measurement: draw (a1, b1, c1), solve the
    second outcome from completeness, reject when c2 would be negative."""
    while True:
        a1 = rng.uniform(0.02, 0.98)
        c1 = rng.random()
        b1 = rng.gauss(0.0, 0.35)
        a2 = 1.0 - a1
        b2 = -math.sqrt(a1) * b1 / math.sqrt(a2)
        c2 = 1.0 - c1 - b1 * b1 - b2 * b2
        if c2 >= 0.0:
            return LocalMeasurement(party, [(a1, b1, c1), (a2, b2, c2)])


def query_input(i: int) -> tuple[str, WState]:
    """Pool entry i of the queries workload: a graph name and a random
    state on its parties, x0 > 0 in about half of the entries."""
    rng = random.Random(f"perfbench/queries/{i}")
    name = rng.choice(QUERY_GRAPHS)
    g = named_graph(name)
    return name, random_state(rng, g.labels, x0_zero=rng.random() < 0.5)


def tree_state(name: str, j: int) -> WState:
    """Pool entry j of the random x0 > 0 states for tree graph ``name``."""
    rng = random.Random(f"perfbench/trees/{name}/{j}")
    return random_state(rng, named_graph(name).labels, x0_zero=False)


# ---------------------------------------------------------------------------
# checks


def _value_mismatch(what: str, got, want, tol: float) -> str | None:
    if want is None or got is None:
        return None if got is want else f"{what}: got {got!r}, reference {want!r}"
    if not abs(got - want) <= tol:
        return f"{what}: got {got!r}, reference {want!r} (|diff| > {tol:g})"
    return None


def memo_entries(solver) -> dict:
    """Size of a solver's memo, as a count for the per-layer metrics."""
    reports = getattr(solver, "reports", None)
    return {} if reports is None else {"lpo.p3.memo_entries": len(reports())}


def _first(*messages):
    return next((m for m in messages if m is not None), None)


def sim_z(rate: float, p: float, trials: int) -> float:
    """z-score of a simulated success rate against probability p."""
    if p <= 0.0 or p >= 1.0:
        return 0.0 if rate == p else math.inf
    return (rate - p) / math.sqrt(p * (1.0 - p) / trials)


def oracle_disagreement(fast, slow) -> float:
    """Largest difference between two outcome lists of one measurement:
    probabilities, components and x0 of each post-measurement state."""
    if len(fast) != len(slow):
        return math.inf
    worst = 0.0
    for (p, s1), (q, s2) in zip(fast, slow):
        worst = max(worst, abs(p - q))
        if (s1 is None) != (s2 is None):
            return math.inf
        if s1 is not None:
            worst = max(worst, abs(s1.x0 - s2.x0),
                        max(abs(a - b) for a, b in zip(s1.components, s2.components)))
    return worst


# ---------------------------------------------------------------------------
# the workloads


def scaling(seed: int, ref: dict) -> Workload:
    """Cold p_lpo at the standard W state on the four graph families, each
    graph relabelled from the seed."""
    rng = random.Random(f"perfbench/scaling/{seed}")
    work = Workload([])
    for family, n in SCALING_GRAPHS:
        key = f"{family}:{n}"
        g = family_graph(family, relabelled(rng, n))
        w = core.standard_w(g.labels)

        def run(w=w, g=g):
            solver = lpo.PhaseThreeSolver()
            return solver.p_lpo(w, g), solver

        def check(out, key=key):
            return _value_mismatch(f"p_lpo {key}", out[0], ref["scaling"][key], VALUE_TOL)

        work.ops.append(Op(f"p_lpo {key}", run, check, lambda out: memo_entries(out[1])))
    return work


def queries(seed: int, ref: dict) -> Workload:
    """What ``wdistill prob`` computes, for QUERY_OPS pool entries drawn
    from the seed, all sharing one solver."""
    rng = random.Random(f"perfbench/queries/{seed}")
    solver = lpo.PhaseThreeSolver()
    work = Workload([], lambda: memo_entries(solver))
    graphs: dict[str, ConfigGraph] = {}
    for i in rng.sample(range(QUERY_POOL), QUERY_OPS):
        name, state = query_input(i)
        g = graphs.setdefault(name, named_graph(name))

        def run(state=state, g=g):
            p = lpo.p_lpo(state, g, solver=solver)
            fl = lpo.p_fl(g)
            report = bounds.resolve_bound(state, g)
            return p, fl, None if report is None else report.value

        def check(out, i=i, name=name):
            p, fl, bound = out
            return _first(
                _value_mismatch(f"p_lpo pool[{i}]", p, ref["queries"]["p_lpo"][i], VALUE_TOL),
                _value_mismatch(f"p_fl {name}", fl, ref["queries"]["p_fl"][name], VALUE_TOL),
                _value_mismatch(f"bound pool[{i}]", bound, ref["queries"]["bound"][i], VALUE_TOL),
            )

        work.ops.append(Op(f"prob {name}", run, check))
    return work


def trees(seed: int, ref: dict) -> Workload:
    """Tree unrolling then stochastic execution, at the standard W state and
    at pool states drawn from the seed, on every tree graph."""
    rng = random.Random(f"perfbench/trees/{seed}")
    work = Workload([])
    for name, cap in TREE_CAPS.items():
        g = named_graph(name)
        picks = rng.sample(range(TREE_POOL), TREE_RANDOM_STATES)
        cases = [("W", core.standard_w(g.labels), None)]
        cases += [(f"pool[{j}]", tree_state(name, j), j) for j in picks]
        for tag, state, j in cases:
            sim_seed = rng.randrange(2 ** 32)

            def run(state=state, g=g, cap=cap, sim_seed=sim_seed):
                solver = lpo.PhaseThreeSolver()
                tree = lpo.build_protocol_tree(state, g, TREE_EPSILON, cap, solver=solver)
                result = mc.simulate(tree, SIM_TRIALS, sim_seed, workers=1)
                return tree, result, solver

            def check(out, what=f"tree {name} {tag}", name=name, j=j):
                tree, result, _ = out
                recorded = ref["trees"][name]
                want = recorded["w"] if j is None else recorded["random"][j]
                value = tree.analytic_value()
                z = sim_z(result.success_rate, value, SIM_TRIALS)
                return _first(
                    _value_mismatch(f"{what} analytic value", value, want, TREE_TOL),
                    None if abs(z) <= SIM_Z_MAX else
                    f"{what}: simulated rate {result.success_rate} is {z:.1f} sigma "
                    f"from the analytic value {value}",
                )

            def count(out):
                return {"lpo.tree.nodes": out[0].node_count(), "mc.simulate.trials": SIM_TRIALS,
                        **memo_entries(out[2])}

            work.ops.append(Op(f"tree {name}", run, check, count))
    return work


def audit(seed: int, ref: dict) -> Workload:
    """Monotone fuzz of each monotone, then batches of the component update
    against the dense state-vector oracle on up to 12 parties."""
    rng = random.Random(f"perfbench/audit/{seed}")
    work = Workload([])
    fuzz_checks = FUZZ_STATES * FUZZ_MEASUREMENTS
    for fid in FUZZ_IDS:
        for _ in range(FUZZ_OPS):
            fuzz_seed = rng.randrange(2 ** 32)

            def run(fid=fid, fuzz_seed=fuzz_seed):
                return mc.monotone_fuzz(fid, FUZZ_STATES, FUZZ_MEASUREMENTS,
                                        weak_radius=0.05, seed=fuzz_seed)

            def check(out, fid=fid):
                return None if out <= CHECK_TOL else f"monotone {fid} rose by {out:.3e}"

            work.ops.append(Op(f"fuzz {fid}", run, check, lambda out: {"checks": fuzz_checks}))
    for b in range(ORACLE_OPS):
        pairs = []
        for j in range(ORACLE_PAIRS):
            n = 2 + (b * ORACLE_PAIRS + j) % (ORACLE_MAX_PARTIES - 1)
            labels = letter_labels(n)
            state = random_state(rng, labels, x0_zero=rng.random() < 0.5)
            pairs.append((state, random_measurement(rng, rng.choice(labels))))

        def run(pairs=pairs):
            return max(oracle_disagreement(core.apply_measurement(s, m),
                                           mc.statevector_oracle(s, m))
                       for s, m in pairs)

        def check(out):
            return None if out <= CHECK_TOL else f"oracle disagrees by {out:.3e}"

        work.ops.append(Op("oracle batch", run, check, lambda out: {"checks": ORACLE_PAIRS}))
    return work


WORKLOADS = {"scaling": scaling, "queries": queries, "trees": trees, "audit": audit}
