"""The least-party-out protocol and its success-probability engine.

Three phases: remove the x0 weight, symmetrize with the equal-or-vanish
subroutine, then peel parties off in order of graph connectivity.  The
recursion over party subsets reduces the whole protocol to a family of
one-dimensional maximizations over the peel-off parameter alpha, each of
which is solved exactly: the cycle-success function is recovered as a
polynomial, its shared (1 - alpha) root is deflated, and the maximum is
taken over alpha = 0, alpha = 1 and the real critical points between.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import chebyshev as npcheb
from numpy.polynomial import polynomial as nppoly

from .core import (
    FAILURE,
    ConfigGraph,
    Epr,
    Failure,
    InternalConsistencyError,
    InvalidInputError,
    LocalMeasurement,
    NULL_OUTCOME_PROB,
    OutcomeDistribution,
    PreconditionError,
    Residual,
    WState,
    component_update,
)
from .evroutine import X0_TOL, _degrees, _restrict_edges, _select, _step, enumerate_ev, ev_measurement

LIMIT_EDGE = 1e-6              # argmax this close to 1 counts as a limit
COEF_TRIM = 1e-11
MAX_TREE_LEVELS = 3_000        # decision nodes on one branch of a protocol tree

SQRT3 = math.sqrt(3.0)


# ---------------------------------------------------------------------------
# phase I: removing the x0 weight


def phase1_measurement(state: WState) -> LocalMeasurement:
    """Measurement by the dominant party that cancels the x0 weight on
    outcome 1 and zeroes that party's own weight on outcome 2."""
    x0 = state.x0
    if x0 <= X0_TOL:
        raise PreconditionError("x0 is already zero")
    xn = state.max_component()
    if xn <= 0.0:
        raise PreconditionError("state has no entangled party")
    r = x0 / xn
    # smaller root of mu^2 - (2 + r) mu + 1 = 0
    mu = 2.0 / (2.0 + r + math.sqrt(r * r + 4.0 * r))
    b1 = -math.sqrt(mu * r)
    b2 = mu * math.sqrt(r) / math.sqrt(1.0 - mu)
    return LocalMeasurement(state.dominant_party(), [(mu, b1, mu), (1.0 - mu, b2, 0.0)])


def phase1_success_probability(state: WState) -> float:
    """Probability that one x0-removal round succeeds:
    2 x_n1 (1 - x0) / (x0 + 2 x_n1 + sqrt(x0^2 + 4 x_n1 x0))."""
    x0 = state.x0
    xn = state.max_component()
    return 2.0 * xn * (1.0 - x0) / (x0 + 2.0 * xn + math.sqrt(x0 * x0 + 4.0 * xn * x0))


def _phase1_step(comps, labels):
    """The x0-removal measurement on raw components and its children as
    ``(p, comps, labels)``: outcome 1 cancels x0 and renormalizes, outcome
    2 zeroes the measuring party, which leaves state and graph."""
    st = WState(comps, labels)
    m = phase1_measurement(st)
    k = labels.index(m.party)
    p1 = phase1_success_probability(st)
    total = sum(comps)
    children = [(p1, tuple(c / total for c in comps), labels)]
    p2 = 1.0 - p1
    if p2 >= NULL_OUTCOME_PROB:
        a2 = m.outcomes[1][0]
        rest = tuple(a2 * c / p2 for i, c in enumerate(comps) if i != k)
        children.append((p2, rest, labels[:k] + labels[k + 1:]))
    return m, children


def _peel_step(labels, edges, alpha: float):
    """The peel-off measurement by the least-connected party (lowest index
    on a tie) and its children as ``(p, comps, labels)``: outcome 1 keeps
    weight 1 on that party and alpha elsewhere, normalized; outcome 2
    removes the party and leaves the others uniform."""
    k = min(labels, key=_degrees(labels, edges).__getitem__)
    n = len(labels)
    p1 = (1.0 + alpha * (n - 1)) / n
    scale = 1.0 / (n * p1)
    m = LocalMeasurement.diagonal(k, [(alpha, 1.0), (1.0 - alpha, 0.0)])
    children = [(p1, tuple(scale if l == k else alpha * scale for l in labels), labels)]
    p2 = (1.0 - alpha) * (n - 1) / n
    if p2 >= NULL_OUTCOME_PROB:
        rest = tuple(1.0 / (n - 1) for _ in range(n - 1))
        children.append((p2, rest, tuple(l for l in labels if l != k)))
    return m, children


def phase1_distribution(state: WState, graph: ConfigGraph) -> OutcomeDistribution:
    """Iterate x0-removal until every branch lands on an x0 = 0 state or a
    product state.  Residual terminals keep the pruned graph."""
    if set(state.labels) != set(graph.labels):
        raise InvalidInputError("state parties and graph nodes differ")
    entries: dict = {}

    def visit(comps, labels, pathp):
        live = sum(1 for c in comps if c > 0.0)
        x0 = max(0.0, 1.0 - sum(comps))
        if len(labels) < 2 or live <= 1:
            entries[FAILURE] = entries.get(FAILURE, 0.0) + pathp
            return
        if x0 <= X0_TOL:
            total = sum(comps)
            st = WState(tuple(c / total for c in comps), labels)
            key = Residual(st, graph.induced(labels))
            entries[key] = entries.get(key, 0.0) + pathp
            return
        for p, sub, sublab in _phase1_step(comps, labels)[1]:
            visit(sub, sublab, pathp * p)

    visit(state.components, state.labels, 1.0)
    items = sorted(
        ((t, p) for t, p in entries.items()),
        key=lambda tp: (isinstance(tp[0], Failure), -tp[1]),
    )
    return OutcomeDistribution(items)


# ---------------------------------------------------------------------------
# phase III: the alpha optimizer


@dataclass(frozen=True)
class OptimizationReport:
    """Solved maximization of one peel-off recursion node.

    ``f_polynomial`` holds ascending power coefficients of the cycle
    success function f; the maximized objective is f(a) / (1 - a^m) when
    the node can loop (m = |S| - 1) and plain f(a) otherwise.
    """

    value: float
    argmax_alpha: float
    attained_at_limit: bool
    f_polynomial: tuple[float, ...]
    subgraph_key: str
    has_loop: bool
    loop_order: int

    def objective(self, alpha: float) -> float:
        return _objective_value(
            np.asarray(self.f_polynomial), self.has_loop, self.loop_order, alpha
        )

    def to_json(self) -> dict:
        return {
            "subgraph": self.subgraph_key,
            "value": self.value,
            "argmax_alpha": self.argmax_alpha,
            "attained_at_limit": self.attained_at_limit,
            "f_polynomial": list(self.f_polynomial),
            "has_loop": self.has_loop,
        }


def _chebyshev_nodes(count: int) -> np.ndarray:
    i = np.arange(count)
    return 0.5 * (1.0 + np.cos((2 * i + 1) * np.pi / (2 * count)))


def fit_polynomial(xs, ys) -> np.ndarray:
    """Interpolate samples of a polynomial, returning trimmed ascending
    power coefficients.  Exact for degree < len(xs) up to rounding."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    ch = npcheb.Chebyshev.fit(xs, ys, deg=len(xs) - 1, domain=[0.0, 1.0])
    scale = max(1.0, float(np.max(np.abs(ch.coef))))
    trimmed = npcheb.chebtrim(ch.coef, tol=COEF_TRIM * scale)
    ch = npcheb.Chebyshev(trimmed, domain=[0.0, 1.0])
    poly = ch.convert(kind=np.polynomial.Polynomial, domain=[0.0, 1.0], window=[0.0, 1.0])
    return nppoly.polytrim(poly.coef, tol=COEF_TRIM * scale)


def _objective_value(f_coef: np.ndarray, has_loop: bool, m: int, alpha) -> float:
    """Evaluate f(a) or the deflated f(a)/(1 - a^m), regular on all of
    [0, 1] because f(1) = 0 whenever the node loops.  ``alpha`` may be an
    array."""
    if not has_loop:
        return nppoly.polyval(alpha, f_coef)
    quotient, remainder = nppoly.polydiv(f_coef, np.array([1.0, -1.0]))
    del remainder  # asserted small by the caller
    denom = nppoly.polyval(alpha, np.ones(m))
    return nppoly.polyval(alpha, quotient) / denom


def _subgraph_key(labels, edges) -> str:
    es = ",".join(f"{a}{b}" for a, b in sorted(edges))
    return f"{'|'.join(labels)}[{es}]"


class PhaseThreeSolver:
    """Memoized recursion over party subsets.

    Values depend only on the induced subgraph, so the memo is keyed by
    (ordered labels, edge set).  Build the table exclusively, then share it
    read-only; all other operations here are pure.
    """

    def __init__(self):
        self._memo: dict = {}

    # -- recursion -----------------------------------------------------

    def f_alpha(self, labels, edges, alpha: float) -> float:
        """One-cycle success function f for the subset with these labels."""
        labels = tuple(labels)
        edges = _restrict_edges(frozenset(edges), labels)
        n = len(labels)
        if n <= 2:
            raise PreconditionError("the cycle function needs more than two parties")
        (p_alpha, y, _), *rest = _peel_step(labels, edges, alpha)[1]
        total = sum(p * self.p3(sub, edges).value for p, _, sub in rest)
        for term, lam in enumerate_ev(y, labels, edges).items():
            if term is FAILURE or len(term) == n:
                continue
            total += p_alpha * lam * self.p3(term, edges).value
        return total

    def p3(self, labels, edges) -> OptimizationReport:
        """Best asymptotic success probability for a standard W state on
        ``labels`` against the induced subgraph."""
        labels = tuple(labels)
        edges = _restrict_edges(frozenset(edges), labels)
        key = (labels, edges)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        report = self._solve(labels, edges)
        self._memo[key] = report
        return report

    def _solve(self, labels, edges) -> OptimizationReport:
        name = _subgraph_key(labels, edges)
        n = len(labels)
        if n < 2:
            report = OptimizationReport(0.0, 0.0, False, (0.0,), name, False, 1)
        elif n == 2:
            value = 1.0 if edges else 0.0
            report = OptimizationReport(value, 0.0, False, (value,), name, False, 1)
        elif not edges:
            report = OptimizationReport(0.0, 0.0, False, (0.0,), name, False, n - 1)
        else:
            report = self._optimize(labels, edges, name)
        return report

    def _optimize(self, labels, edges, name) -> OptimizationReport:
        n = len(labels)
        m = n - 1
        has_loop = min(_degrees(labels, edges).values()) > 0  # an isolated party never loops

        # |S| + 2 nodes: f has degree below |S|, so the two spare nodes
        # check the fit
        xs = _chebyshev_nodes(n + 2)
        f_coef = fit_polynomial(xs, [self.f_alpha(labels, edges, float(x)) for x in xs])
        if len(f_coef) > n:
            raise InternalConsistencyError(
                f"cycle function on {name} has degree {len(f_coef) - 1}, above {n - 1}"
            )
        if has_loop:
            f_at_1 = float(nppoly.polyval(1.0, f_coef))
            if abs(f_at_1) > 1e-10:
                raise PreconditionError(
                    f"cycle function does not vanish at alpha=1 on {name}: {f_at_1}"
                )
            # d/da (q / s) has the numerator q's - qs', q = f / (1 - a),
            # s = 1 + a + ... + a^(m-1)
            q = nppoly.polydiv(f_coef, np.array([1.0, -1.0]))[0]
            s = np.ones(m)
            slope = nppoly.polysub(
                nppoly.polymul(nppoly.polyder(q), s), nppoly.polymul(q, nppoly.polyder(s))
            )
        else:
            slope = nppoly.polyder(f_coef)
        # companion-matrix eigenvalues: real roots come back with zero
        # imaginary part, the others in conjugate pairs
        roots = nppoly.polyroots(slope)
        roots = roots[roots.imag == 0].real
        points = np.array([0.0, *roots[(roots > 0.0) & (roots < 1.0)], 1.0])
        vals = _objective_value(f_coef, has_loop, m, points)
        best = int(np.argmax(vals))
        x_star, v_star = float(points[best]), float(vals[best])
        v_zero, v_end = float(vals[0]), float(vals[-1])
        tol = 1e-12 * max(1.0, abs(v_star), abs(v_zero), abs(v_end))
        attained_at_limit = False
        if v_zero >= max(v_star, v_end) - tol:  # prefer alpha = 0 on a plateau
            x_star, v_star = 0.0, v_zero
        elif v_end >= v_star - tol or x_star >= 1.0 - LIMIT_EDGE:
            x_star, v_star = 1.0, v_end
            attained_at_limit = True
        value = min(1.0, max(0.0, float(v_star)))
        return OptimizationReport(
            value, float(x_star), attained_at_limit,
            tuple(float(c) for c in f_coef), name, has_loop, m,
        )

    def value_at(self, labels, edges, alpha: float) -> float:
        """The looped-protocol value when the peel-off parameter is pinned
        to ``alpha`` instead of the optimum."""
        report = self.p3(tuple(labels), frozenset(edges))
        if len(report.f_polynomial) == 1 and not report.has_loop:
            return report.value
        return report.objective(alpha)

    def p3_diagnostic(self, labels, edges) -> dict[str, float]:
        """Value obtained for every minimal-degree choice of the peel-off
        party, bypassing the lowest-index tie-break."""
        labels = tuple(labels)
        edges = _restrict_edges(frozenset(edges), labels)
        deg = _degrees(labels, edges)
        dmin = min(deg.values())
        out = {}
        for k in (l for l in labels if deg[l] == dmin):
            reordered = (k,) + tuple(l for l in labels if l != k)
            out[k] = PhaseThreeSolver().p3(reordered, edges).value
        return out

    # -- whole-protocol values ------------------------------------------

    def p_lpo(self, state: WState, graph: ConfigGraph) -> float:
        """Overall success probability of the protocol on (state, graph)."""
        if set(state.labels) != set(graph.labels):
            raise InvalidInputError("state parties and graph nodes differ")
        if state.x0 > X0_TOL:
            total = 0.0
            for term, p in phase1_distribution(state, graph).items():
                if isinstance(term, Residual):
                    total += p * self.p_lpo(term.state, term.graph)
            return total
        edges = frozenset(graph.edges)
        total = 0.0
        for term, lam in enumerate_ev(state.components, state.labels, edges).items():
            if term is FAILURE:
                continue
            total += lam * self.p3(term, edges).value
        return total

    def reports(self) -> list[OptimizationReport]:
        """Memo contents, largest subsets first (audit trail of a query)."""
        return sorted(
            self._memo.values(), key=lambda r: (-len(r.subgraph_key), r.subgraph_key)
        )


def f_alpha(parties, graph: ConfigGraph, alpha: float, solver: PhaseThreeSolver | None = None) -> float:
    solver = solver or PhaseThreeSolver()
    return solver.f_alpha(tuple(parties), graph.edges, alpha)


def p3(parties, graph: ConfigGraph, solver: PhaseThreeSolver | None = None) -> OptimizationReport:
    solver = solver or PhaseThreeSolver()
    return solver.p3(tuple(parties), graph.edges)


def p_lpo(state: WState, graph: ConfigGraph, solver: PhaseThreeSolver | None = None) -> float:
    solver = solver or PhaseThreeSolver()
    return solver.p_lpo(state, graph)


# ---------------------------------------------------------------------------
# the baseline recursion


def p_fl(graph: ConfigGraph) -> float:
    """Success probability of the subset-averaging baseline protocol.

    Complete induced subgraphs succeed outright, three-party non-complete
    subgraphs with an edge reach 2/3, and everything larger averages over
    single-party removals.
    """
    if graph.n < 2:
        raise PreconditionError("need at least two nodes")
    memo: dict = {}

    def value(labels: tuple[str, ...]) -> float:
        hit = memo.get(labels)
        if hit is not None:
            return hit
        sub = graph.induced(labels)
        n = len(labels)
        if n == 2:
            out = 1.0 if sub.edges else 0.0
        elif sub.is_complete():
            out = 1.0
        elif n == 3:
            out = 2.0 / 3.0 if sub.edges else 0.0
        elif not sub.edges:
            out = 0.0
        else:
            out = sum(value(tuple(l for l in labels if l != drop)) for drop in labels) / n
        memo[labels] = out
        return out

    return value(tuple(graph.labels))


# ---------------------------------------------------------------------------
# executable protocol trees


@dataclass(frozen=True)
class TruncationLeaf:
    """Loop cut off after loop_cap cycles.  ``continuation_value`` is the
    success probability the unbounded loop would still collect from here."""

    state: WState
    graph: ConfigGraph
    continuation_value: float

    def label(self) -> str:
        return f"TRUNC(W{self.state.n}({','.join(self.state.labels)}))"


@dataclass(frozen=True)
class DecisionNode:
    state: WState
    graph: ConfigGraph
    measurement: LocalMeasurement
    phase: str  # "phase1" | "isolate" | "ev" | "phase3"
    children: tuple[tuple[float, object], ...]
    alpha: float | None = None
    cycle: int | None = None

    def label(self) -> str:
        if self.phase == "phase3":
            return (
                f"W{self.state.n}({','.join(self.state.labels)}) "
                f"a={self.alpha:.6g} c{self.cycle}"
            )
        return f"{self.phase} {self.measurement.party}"


@dataclass(frozen=True)
class ProtocolTree:
    """Finite executable rendering of the three protocol phases.

    Inner nodes are :class:`DecisionNode`; leaves are the core terminals
    :class:`~wdistill.core.Epr` (success) and ``FAILURE``, plus a
    :class:`TruncationLeaf` wherever a loop was cut.  Equal subtrees are
    one shared object, so the nodes form a DAG; :meth:`analytic_value`
    and :meth:`node_count` visit each shared node once, and
    :meth:`node_count` still counts the unrolled tree.
    """

    root: object
    state: WState
    graph: ConfigGraph
    epsilon: float
    loop_cap: int

    def analytic_value(self, credit_truncation: bool = True) -> float:
        """Success probability of the tree.  With truncation credit each
        cut loop contributes its continuation value; without it the cut
        loops count as failures, a lower bound that grows with loop_cap.

        The credited value is not exactly that of the unbounded protocol
        at the tree's alphas: the continuation value comes from
        :meth:`PhaseThreeSolver.value_at`, whose sub-values are the
        optimizer's limits, while the tree runs limit-attained subtrees at
        alpha = 1 - epsilon.  At the standard W state with epsilon 1e-3 the
        gap is 1.7e-4 on complete:5 with loop cap 3, 7.9e-5 on IV with loop
        cap 20, and about 1e-14 on triangle, VI and III-c."""

        memo: dict[int, float] = {}

        def walk(node) -> float:
            if isinstance(node, Epr):
                return 1.0
            if isinstance(node, Failure):
                return 0.0
            if isinstance(node, TruncationLeaf):
                return node.continuation_value if credit_truncation else 0.0
            if id(node) not in memo:
                memo[id(node)] = sum(p * walk(child) for p, child in node.children)
            return memo[id(node)]

        return walk(self.root)

    def truncation_mass(self) -> float:
        def walk(node, pathp) -> float:
            if isinstance(node, TruncationLeaf):
                return pathp
            if not isinstance(node, DecisionNode):
                return 0.0
            return sum(walk(child, pathp * p) for p, child in node.children)

        return walk(self.root, 1.0)

    def leaf_probabilities(self) -> dict[str, float]:
        """Path probability aggregated per leaf label."""
        acc: dict[str, float] = {}

        def walk(node, pathp):
            if not isinstance(node, DecisionNode):
                acc[node.label()] = acc.get(node.label(), 0.0) + pathp
                return
            for p, child in node.children:
                walk(child, pathp * p)

        walk(self.root, 1.0)
        return acc

    def node_count(self) -> int:
        """Nodes of the unrolled tree: a shared subtree counts once for
        every place it occurs."""
        memo: dict[int, int] = {}

        def walk(node) -> int:
            if not isinstance(node, DecisionNode):
                return 1
            if id(node) not in memo:
                memo[id(node)] = 1 + sum(walk(child) for _, child in node.children)
            return memo[id(node)]

        return walk(self.root)

    def to_dot(self) -> str:
        lines = ["digraph protocol {", "  node [shape=box, fontsize=10];"]
        counter = [0]

        def walk(node) -> int:
            me = counter[0]
            counter[0] += 1
            shape = "" if isinstance(node, DecisionNode) else " shape=oval"
            lines.append(f'  n{me} [label="{node.label()}"{shape}];')
            if isinstance(node, DecisionNode):
                for p, child in node.children:
                    cid = walk(child)
                    lines.append(f'  n{me} -> n{cid} [label="{p:.6g}"];')
            return me

        walk(self.root)
        lines.append("}")
        return "\n".join(lines)

    def to_json(self) -> dict:
        def walk(node):
            if isinstance(node, TruncationLeaf):
                return {"leaf": node.label(), "continuation_value": node.continuation_value}
            if not isinstance(node, DecisionNode):
                return {"leaf": node.label()}
            out = {
                "label": node.label(),
                "phase": node.phase,
                "party": node.measurement.party,
                "children": [{"probability": p, "node": walk(c)} for p, c in node.children],
            }
            if node.alpha is not None:
                out["alpha"] = node.alpha
            return out

        return {
            "epsilon": self.epsilon,
            "loop_cap": self.loop_cap,
            "analytic_value": self.analytic_value(),
            "success_lower_bound": self.analytic_value(credit_truncation=False),
            "truncation_mass": self.truncation_mass(),
            "root": walk(self.root),
        }


def build_protocol_tree(
    state: WState,
    graph: ConfigGraph,
    epsilon: float = 1e-3,
    loop_cap: int = 60,
    solver: PhaseThreeSolver | None = None,
) -> ProtocolTree:
    """Unroll the protocol into a finite tree.

    Loops on a standard W subset run loop_cap times; the residual mass
    lands on a truncation leaf annotated with the value the unbounded loop
    would still collect.  Limit-attained optimizations use alpha = 1 -
    epsilon.  Phase-1, isolate and equal-or-vanish children come from the
    same branch rules as :func:`phase1_distribution` and
    :func:`~wdistill.evroutine.enumerate_ev`.

    Each distinct subtree is built once and shared wherever it recurs (a
    subtree depends only on its state and on the loop counts of its own
    label subsets), so the tree holds far fewer objects than
    :meth:`ProtocolTree.node_count` reports.  A branch deeper than
    MAX_TREE_LEVELS decision nodes raises :class:`PreconditionError`,
    because walking it recursively would overflow the C stack.
    """
    if not (0.0 < epsilon < 0.5):
        raise PreconditionError("epsilon must lie in (0, 0.5)")
    if loop_cap < 1:
        raise PreconditionError("loop_cap must be at least 1")
    if set(state.labels) != set(graph.labels):
        raise InvalidInputError("state parties and graph nodes differ")
    solver = solver or PhaseThreeSolver()
    limit = sys.getrecursionlimit()
    if limit < 100_000:
        sys.setrecursionlimit(100_000)

    full_edges = frozenset(graph.edges)
    shared: dict = {}  # sharing key -> (subtree, decision levels on its deepest branch)
    too_deep = (
        f"a branch of the tree goes deeper than {MAX_TREE_LEVELS} decision levels; lower loop_cap"
    )

    def build(comps, labels, loops: dict, depth: int):
        """The subtree for this state below ``depth`` decision levels and
        its own number of levels; an equal subtree built before is reused."""
        # drop parties that carry no weight
        live = tuple(i for i, c in enumerate(comps) if c > 0.0)
        if len(live) != len(comps):
            labels = tuple(labels[i] for i in live)
            comps = tuple(comps[i] for i in live)
        if len(labels) < 2:
            return FAILURE, 0
        # labels only shrink along a branch, so a loop count over other
        # parties is never read below here
        parties = frozenset(labels)
        loops = {k: v for k, v in loops.items() if k <= parties}
        key = (comps, labels, frozenset(loops.items()))
        hit = shared.get(key)
        if hit is None:
            hit = shared[key] = decide(comps, labels, loops, depth)
        if depth + hit[1] > MAX_TREE_LEVELS:
            raise PreconditionError(too_deep)
        return hit

    def branch(steps, loops: dict, depth: int):
        """Children ``(p, subtree)`` of a decision node below ``depth``
        levels, and the levels from that node down."""
        if depth >= MAX_TREE_LEVELS:
            raise PreconditionError(too_deep)
        built = [(p, *build(sub, sublab, loops, depth + 1)) for p, sub, sublab in steps]
        below = max((levels for _, _, levels in built), default=0)
        return [(p, node) for p, node, _ in built], 1 + below

    def decide(comps, labels, loops: dict, depth: int):
        """The subtree for a state with no equal subtree built yet."""
        x0 = max(0.0, 1.0 - sum(comps))
        edges = _restrict_edges(full_edges, labels)
        st = WState(comps, labels)
        g = ConfigGraph(labels, edges)
        if x0 > X0_TOL:
            m, steps = _phase1_step(comps, labels)
            children, levels = branch(steps, loops, depth)
            return DecisionNode(st, g, m, "phase1", tuple(children)), levels

        tag, party = _select(comps, labels, edges)
        if tag == "fail2":
            return FAILURE, 0
        if tag == "terminal":
            if len(labels) == 2:
                return Epr(labels), 0
            seen = loops.get(frozenset(labels), 0)
            report = solver.p3(labels, edges)
            alpha = 1.0 - epsilon if report.attained_at_limit else report.argmax_alpha
            if seen >= loop_cap:
                return TruncationLeaf(st, g, solver.value_at(labels, edges, alpha)), 0
            m, steps = _peel_step(labels, edges, alpha)
            children, levels = branch(steps, {**loops, frozenset(labels): seen + 1}, depth)
            node = DecisionNode(st, g, m, "phase3", tuple(children), alpha=alpha, cycle=seen + 1)
            return node, levels

        steps, fail = _step(comps, labels, tag, party)
        children, levels = branch(steps, loops, depth)
        if fail:
            children.append((fail, FAILURE))
        if tag == "isolate":
            m = LocalMeasurement.diagonal(party, [(1.0, 0.0), (0.0, 1.0)])
            return DecisionNode(st, g, m, "isolate", tuple(children)), levels
        return DecisionNode(st, g, ev_measurement(st, party), "ev", tuple(children)), levels

    root, _ = build(state.components, state.labels, {}, 0)
    return ProtocolTree(root, state, graph, epsilon, loop_cap)


# ---------------------------------------------------------------------------
# the four-party paw-graph closed form and its weak-measurement response


PAW_EDGES = (("A", "B"), ("A", "C"), ("A", "D"), ("B", "D"))


def paw_closed_form(components) -> float:
    """Protocol value on the four-party paw graph for a sorted x0 = 0 state.

    The adjacency is pinned by the formula: edges AB, AC, AD, BD, so the
    hub A holds the largest component and the pendant C the third largest:

        2(xB + xC + xD) - xB xD / xA - 2 xB xC / xA - 2 xC xD / xA
        + (3 + 2 sqrt(3))/3 * xB xC xD / xA^2

    The lone -1 cross term sits on the edge-supported pair (B, D); losing
    down to a pair without an edge costs the full -2.
    """
    xa, xb, xc, xd = components
    if not (xa >= xb >= xc >= xd >= 0.0):
        raise PreconditionError("components must be sorted in descending order")
    if abs(xa + xb + xc + xd - 1.0) > 1e-9:
        raise PreconditionError("needs an x0 = 0 state")
    return (
        2.0 * (xb + xc + xd)
        - xb * xd / xa
        - 2.0 * xb * xc / xa
        - 2.0 * xc * xd / xa
        + (3.0 + 2.0 * SQRT3) / 3.0 * xb * xc * xd / (xa * xa)
    )


@dataclass(frozen=True)
class WeakImprovementReport:
    """Average protocol-value change when the dominant party of the state
    (1-3t, t, t, t) makes a weak diagonal measurement with bias delta.

    ``numeric_delta`` averages the paw-graph closed form over the two
    outcomes directly; ``quadratic_expression`` evaluates the reference
    second-order response -d^2 t^2/(1-3t) (20 - t (12 - 8 sqrt(3))/(1-3t)).
    The two disagree in sign for t near 1/4; both are reported so the
    discrepancy stays visible.
    """

    t: float
    delta: float
    numeric_delta: float
    quadratic_expression: float


def g6_weak_improvement(t: float, delta: float) -> WeakImprovementReport:
    if not (0.0 < t < 0.25):
        raise PreconditionError("t must lie in (0, 1/4)")
    if not (abs(delta) < 1.0):
        raise PreconditionError("delta must lie in (-1, 1)")
    comps = (1.0 - 3.0 * t, t, t, t)
    pre = paw_closed_form(comps)
    a1, c1 = (1.0 + delta) / 2.0, (1.0 - delta) / 2.0
    numeric = 0.0
    for a, c in ((a1, c1), (1.0 - a1, 1.0 - c1)):
        p, post, _ = component_update(comps, 0.0, 0, a, 0.0, c)
        if p < NULL_OUTCOME_PROB:
            continue
        numeric += p * paw_closed_form(post)
    numeric -= pre
    printed = -(delta * delta) * (t * t / (1.0 - 3.0 * t)) * (
        20.0 - t * (12.0 - 8.0 * SQRT3) / (1.0 - 3.0 * t)
    )
    return WeakImprovementReport(t, delta, numeric, printed)
