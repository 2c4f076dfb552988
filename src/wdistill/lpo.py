"""The least-party-out protocol and its success-probability engine.

Three phases: remove the x0 weight, symmetrize with the equal-or-vanish
subroutine, then peel parties off in order of graph connectivity.  The
recursion over party subsets reduces the whole protocol to a family of
one-dimensional maximizations over the peel-off parameter alpha, each of
which is solved exactly: one walk of the peel-off node reads the cycle
success function off as an exact sum of monomials c a^e (1 - a)^v, its
shared (1 - alpha) factor is divided out term by term, and the maximum is
taken over alpha = 0, alpha = 1 and the real critical points between.
The power coefficients reported as ``f_polynomial`` are expanded from
the monomials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
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
    StandardW,
    WState,
    component_update,
)
from .evroutine import X0_TOL, _degrees, _restrict_edges, _select, _step, enumerate_ev, ev_measurement

LIMIT_EDGE = 1e-6              # argmax this close to 1 counts as a limit
MAX_LOOP_CAP = 1_000           # loops a protocol tree runs on one W subset

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


def _peel_party(labels, edges) -> str:
    """The party that peels off: the least connected, lowest index on a
    tie."""
    return min(labels, key=_degrees(labels, edges).__getitem__)


def _peel_step(labels, edges, alpha: float):
    """The peel-off measurement by :func:`_peel_party` and its children as
    ``(p, comps, labels)``: outcome 1 keeps weight 1 on that party and
    alpha elsewhere, normalized; outcome 2 removes the party and leaves the
    others uniform."""
    k = _peel_party(labels, edges)
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


def _peel_walk(labels, edges) -> list[tuple[tuple[str, ...], int, int]]:
    """Every path from the peel-off node to a standard W state on T, as
    ``(T, e, v)``: the path has probability |T|/n a^e (1 - a)^v.

    Outcome 2 reaches S minus k at (0, 1).  After outcome 1 every
    equal-or-vanish ratio is exactly alpha, so each party's unnormalized
    weight is a^e (1 - a)^v with its own e and a shared v: equalizing
    party j raises every other e by one, vanishing removes j and raises
    v, and isolating removes the party (after the last maximal one the
    rest are maximal at e + 1).  :func:`_select` sees the exponents coded
    as 2^-(e - e_min), so no alpha is needed.
    """
    k = _peel_party(labels, edges)
    out = [(tuple(l for l in labels if l != k), 0, 1)]

    def walk(exps, labels, edges, v):
        if len(labels) < 2:
            return
        low = min(exps)
        tag, party = _select(tuple(0.5 ** (e - low) for e in exps), labels, edges)
        if tag == "terminal":
            out.append((labels, low, v))
        if tag in ("terminal", "fail2"):
            return
        j = labels.index(party)
        rest = labels[:j] + labels[j + 1:]
        drop = (exps[:j] + exps[j + 1:], rest, _restrict_edges(edges, rest))
        if tag == "isolate":
            walk(*drop, v)
            return
        walk(tuple(e if i == j else e + 1 for i, e in enumerate(exps)), labels, edges, v)
        walk(*drop, v + 1)  # vanish

    walk(tuple(0 if l == k else 1 for l in labels), labels, edges, 0)
    return out


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

    ``terms`` is the cycle success function f as an exact sum of monomials
    ``(c, e, v)``, f(a) = sum c a^e (1 - a)^v with c >= 0; the maximized
    objective is f(a) / (1 - a^m) when the node can loop (m = |S| - 1) and
    plain f(a) otherwise.  ``f_polynomial`` holds the ascending power
    coefficients of the same f, expanded from ``terms``.
    """

    value: float
    argmax_alpha: float
    attained_at_limit: bool
    terms: tuple[tuple[float, int, int], ...]
    subgraph_key: str
    has_loop: bool
    loop_order: int

    @property
    def f_polynomial(self) -> tuple[float, ...]:
        return tuple(float(c) for c in _power_coefficients(self.terms))

    def objective(self, alpha):
        return _objective_value(self.terms, self.has_loop, self.loop_order, alpha)

    def to_json(self) -> dict:
        return {
            "subgraph": self.subgraph_key,
            "value": self.value,
            "argmax_alpha": self.argmax_alpha,
            "attained_at_limit": self.attained_at_limit,
            "f_polynomial": list(self.f_polynomial),
            "has_loop": self.has_loop,
        }


def _power_coefficients(terms) -> np.ndarray:
    """Ascending power coefficients of sum c a^e (1 - a)^v, each one a
    correctly rounded sum of its binomial contributions; trailing zeros
    are dropped."""
    parts: dict[int, list[float]] = {}
    for c, e, v in terms:
        for i in range(v + 1):
            parts.setdefault(e + i, []).append((-1) ** i * math.comb(v, i) * c)
    return nppoly.polytrim([math.fsum(parts.get(d, ())) for d in range(max(parts) + 1)])


def _objective_value(terms, has_loop: bool, m: int, alpha):
    """f(a), or f(a) / (1 - a^m) on a looping node, in monomial form: every
    term of a looping node has v >= 1, so the shared (1 - a) is divided
    out exactly.  ``alpha`` may be an array."""
    a = np.asarray(alpha, dtype=float)
    if not has_loop:
        return sum(c * a**e * (1.0 - a) ** v for c, e, v in terms)
    total = sum(c * a**e * (1.0 - a) ** (v - 1) for c, e, v in terms)
    return total / nppoly.polyval(a, np.ones(m))


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
        if n < 2 or not edges:
            report = OptimizationReport(0.0, 0.0, False, ((0.0, 0, 0),), name, False, max(1, n - 1))
        elif n == 2:
            report = OptimizationReport(1.0, 0.0, False, ((1.0, 0, 0),), name, False, 1)
        else:
            report = self._optimize(labels, edges, name)
        return report

    def _cycle_terms(self, labels, edges) -> list[tuple[float, int, int]]:
        """The cycle function f as monomials ``(c, e, v)``, one per (e, v):
        each path of :func:`_peel_walk` to a subset T other than S adds
        |T|/n p3(T) at its (e, v)."""
        n = len(labels)
        parts: dict[tuple[int, int], list[float]] = {}
        for term, e, v in _peel_walk(labels, edges):
            if len(term) < n:
                parts.setdefault((e, v), []).append(len(term) * self.p3(term, edges).value)
        return [(math.fsum(cs) / n, e, v) for (e, v), cs in sorted(parts.items())]

    def _optimize(self, labels, edges, name) -> OptimizationReport:
        n = len(labels)
        m = n - 1
        has_loop = min(_degrees(labels, edges).values()) > 0  # an isolated party never loops
        terms = self._cycle_terms(labels, edges)
        for c, e, v in terms:
            if e + v > m or (has_loop and v < 1):
                raise InternalConsistencyError(
                    f"cycle function on {name} has the term a^{e} (1 - a)^{v}"
                )
        if has_loop:
            # d/da (q / s) has the numerator q's - qs', q = f / (1 - a),
            # s = 1 + a + ... + a^(m-1)
            q = _power_coefficients([(c, e, v - 1) for c, e, v in terms])
            s = np.ones(m)
            slope = nppoly.polysub(
                nppoly.polymul(nppoly.polyder(q), s), nppoly.polymul(q, nppoly.polyder(s))
            )
        else:
            slope = nppoly.polyder(_power_coefficients(terms))
        # companion-matrix eigenvalues: real roots come back with zero
        # imaginary part, the others in conjugate pairs
        roots = nppoly.polyroots(slope)
        roots = roots[roots.imag == 0].real
        points = np.array([0.0, *roots[(roots > 0.0) & (roots < 1.0)], 1.0])
        vals = _objective_value(terms, has_loop, m, points)
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
            value, x_star, attained_at_limit, tuple(terms), name, has_loop, m
        )

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
    continuation_value: float

    def label(self) -> str:
        return f"TRUNC(W{self.state.n}({','.join(self.state.labels)}))"


@dataclass(frozen=True, eq=False)
class DecisionNode:
    """One measurement of a protocol tree, compared and hashed by identity."""

    state: WState
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
    :class:`TruncationLeaf` wherever a loop was cut.  A tree from
    :func:`ev_tree` stops at standard W states instead, so its leaves are
    :class:`~wdistill.core.StandardW` and ``FAILURE``.  Equal subtrees are
    one shared object, so the nodes form a DAG.  Every method below is a
    loop over :attr:`nodes`, so none recurses however deep the tree is;
    :meth:`node_count` still counts the unrolled tree.  Values are summed
    children first; whatever moves from the root down, the leaf
    probabilities, the truncation mass and :func:`wdistill.mc.simulate`'s
    trial counts, is one :meth:`_flow` over the table, parents first.
    """

    root: object
    epsilon: float | None
    loop_cap: int

    @cached_property
    def nodes(self) -> tuple[DecisionNode, ...]:
        """The distinct decision nodes below the root, each one after all
        of its children (the root last)."""
        # in a DAG a node is finished before its other stack entries pop
        done: dict[DecisionNode, None] = {}
        stack = [(self.root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                done[node] = None
            elif isinstance(node, DecisionNode) and node not in done:
                stack.append((node, True))
                stack.extend((child, False) for _, child in reversed(node.children))
        return tuple(done)

    def analytic_value(self, credit_truncation: bool = True) -> float:
        """Success probability of the tree.  With truncation credit each
        cut loop contributes its continuation value; without it the cut
        loops count as failures, a lower bound that grows with loop_cap.

        The credited value is not exactly that of the unbounded protocol
        at the tree's alphas: the continuation value is the optimized
        node's :meth:`OptimizationReport.objective` at the tree's alpha,
        whose sub-values are the optimizer's limits, while the tree runs
        limit-attained subtrees at alpha = 1 - epsilon.  At the standard W
        state with epsilon 1e-3 the gap is 1.7e-4 on complete:5 with loop
        cap 3, 7.9e-5 on IV with loop cap 20, and about 1e-14 on triangle,
        VI and III-c."""

        value: dict[DecisionNode, float] = {}

        def of(node) -> float:
            if isinstance(node, DecisionNode):
                return value[node]
            if isinstance(node, Epr):
                return 1.0
            if isinstance(node, TruncationLeaf) and credit_truncation:
                return node.continuation_value
            return 0.0

        for node in self.nodes:
            value[node] = sum(p * of(child) for p, child in node.children)
        return of(self.root)

    def node_count(self) -> int:
        """Nodes of the unrolled tree: a shared subtree counts once for
        every place it occurs."""
        count: dict[DecisionNode, int] = {}  # a leaf is never a key and counts 1
        for node in self.nodes:
            count[node] = 1 + sum(count.get(child, 1) for _, child in node.children)
        return count.get(self.root, 1)

    def _flow(self, amount, split) -> dict:
        """What reaches each distinct leaf when ``amount`` enters at the
        root: one pass over the node table, parents first, in which every
        decision node shares what reaches it among its children by
        ``split(amount, probabilities)``; what reaches a node along several
        paths is summed before it is shared."""
        reach = {self.root: amount}
        for node in reversed(self.nodes):
            shares = split(reach.pop(node), [p for p, _ in node.children])
            for share, (_, child) in zip(shares, node.children):
                reach[child] = reach.get(child, 0) + share
        return reach

    def _leaf_mass(self) -> dict:
        """Probability of ending on each distinct leaf, summed over every
        path."""
        return self._flow(1.0, lambda mass, probs: [mass * p for p in probs])

    def truncation_mass(self) -> float:
        return sum((p for leaf, p in self._leaf_mass().items() if isinstance(leaf, TruncationLeaf)), 0.0)

    def leaf_probabilities(self) -> dict[str, float]:
        """Path probability aggregated per leaf label."""
        acc: dict[str, float] = {}
        for leaf, p in self._leaf_mass().items():
            acc[leaf.label()] = acc.get(leaf.label(), 0.0) + p
        return acc

    def _ids(self) -> dict:
        """Export id of every distinct node, children before parents, with
        leaves merged by value."""
        leaves = [c for node in self.nodes for _, c in node.children if not isinstance(c, DecisionNode)]
        table = [*dict.fromkeys(leaves), *self.nodes] if self.nodes else [self.root]
        return {node: i for i, node in enumerate(table)}

    def to_dot(self) -> str:
        lines = ["digraph protocol {", "  node [shape=box, fontsize=10];"]
        ids = self._ids()
        for node, i in ids.items():
            shape = "" if isinstance(node, DecisionNode) else " shape=oval"
            lines.append(f'  n{i} [label="{node.label()}"{shape}];')
            for p, child in node.children if isinstance(node, DecisionNode) else ():
                lines.append(f'  n{i} -> n{ids[child]} [label="{p:.6g}"];')
        lines.append("}")
        return "\n".join(lines)

    def to_json(self) -> dict:
        """The tree as a node table: each distinct node once, with an
        ``"id"``; children and ``"root"`` refer to ids.  Only a protocol
        tree (``loop_cap`` >= 1) reports its success values: the leaves of
        an EV tree are standard W states, which are not failures."""
        ids = self._ids()

        def entry(node):
            if isinstance(node, TruncationLeaf):
                return {"leaf": node.label(), "continuation_value": node.continuation_value}
            if not isinstance(node, DecisionNode):
                return {"leaf": node.label()}
            out = {
                "label": node.label(),
                "phase": node.phase,
                "party": node.measurement.party,
                "children": [{"probability": p, "node": ids[c]} for p, c in node.children],
            }
            if node.alpha is not None:
                out["alpha"] = node.alpha
            return out

        values = {} if self.loop_cap < 1 else {
            "analytic_value": self.analytic_value(),
            "success_lower_bound": self.analytic_value(credit_truncation=False),
            "truncation_mass": self.truncation_mass(),
        }
        return {
            "epsilon": self.epsilon,
            "loop_cap": self.loop_cap,
            **values,
            "root": ids[self.root],
            "nodes": [{"id": i, **entry(node)} for node, i in ids.items()],
        }


def build_protocol_tree(
    state: WState,
    graph: ConfigGraph,
    epsilon: float = 1e-3,
    loop_cap: int = 60,
    solver: PhaseThreeSolver | None = None,
) -> ProtocolTree:
    """Unroll the protocol into a finite tree.

    Loops on a standard W subset run loop_cap times, at most MAX_LOOP_CAP;
    the residual mass lands on a truncation leaf annotated with the value
    the unbounded loop would still collect.  Limit-attained optimizations
    use alpha = 1 - epsilon.  Phase-1, isolate and equal-or-vanish children
    come from the same branch rules as :func:`phase1_distribution` and
    :func:`~wdistill.evroutine.enumerate_ev`.

    Each distinct subtree is built once and shared wherever it recurs: it
    depends only on its state and on its cycle, the number of peel-offs
    already made on its own labels (labels only shrink along a branch).
    The first return to a standard W state builds its later cycles deepest
    first, so the build's stack does not grow with loop_cap.
    """
    if not (0.0 < epsilon < 0.5):
        raise PreconditionError("epsilon must lie in (0, 0.5)")
    if not (1 <= loop_cap <= MAX_LOOP_CAP):
        raise PreconditionError(f"loop_cap must lie between 1 and {MAX_LOOP_CAP}")
    return _unroll(state, graph, epsilon, loop_cap, solver or PhaseThreeSolver())


def ev_tree(state: WState, graph: ConfigGraph) -> ProtocolTree:
    """The equal-or-vanish subroutine as a tree, for DOT export and by-hand
    inspection: the protocol walk stopped at the first standard W state.

    Its leaves are :class:`~wdistill.core.StandardW` and ``FAILURE``, and
    its :meth:`~ProtocolTree.leaf_probabilities` are the probabilities of
    :func:`~wdistill.evroutine.ev_distribution`.
    """
    if state.x0 > X0_TOL:
        raise PreconditionError(f"equal-or-vanish needs x0 = 0, got {state.x0}")
    return _unroll(state, graph, None, 0, None)


def _unroll(state, graph, epsilon, loop_cap: int, solver) -> ProtocolTree:
    """The walk of :func:`build_protocol_tree`, unchecked but for the label
    sets.  At ``loop_cap`` 0 it stops at every standard W state, so that no
    peel-off, solver or epsilon is needed."""
    if set(state.labels) != set(graph.labels):
        raise InvalidInputError("state parties and graph nodes differ")
    full_edges = frozenset(graph.edges)
    shared: dict = {}  # (comps, labels, cycle) -> subtree

    def build(comps, labels, cycle: int):
        """The subtree for this state after ``cycle`` peel-offs on these
        labels; an equal subtree built before is reused."""
        # drop parties that carry no weight
        live = tuple(i for i, c in enumerate(comps) if c > 0.0)
        if len(live) != len(comps):
            labels = tuple(labels[i] for i in live)
            comps = tuple(comps[i] for i in live)
            cycle = 0
        if len(labels) < 2:
            return FAILURE
        key = (comps, labels, cycle)
        if key not in shared:
            shared[key] = decide(comps, labels, cycle)
        return shared[key]

    def branch(steps, labels, cycle: int) -> list:
        return [(p, build(sub, sublab, cycle if sublab == labels else 0)) for p, sub, sublab in steps]

    def decide(comps, labels, cycle: int):
        """The subtree for a state with no equal subtree built yet."""
        x0 = max(0.0, 1.0 - sum(comps))
        edges = _restrict_edges(full_edges, labels)
        st = WState(comps, labels)
        if x0 > X0_TOL:
            m, steps = _phase1_step(comps, labels)
            return DecisionNode(st, m, "phase1", tuple(branch(steps, labels, cycle)))

        tag, party = _select(comps, labels, edges)
        if tag == "fail2":
            return FAILURE
        if tag == "terminal":
            if loop_cap == 0:
                return StandardW(labels)
            if len(labels) == 2:
                return Epr(labels)
            report = solver.p3(labels, edges)
            alpha = 1.0 - epsilon if report.attained_at_limit else report.argmax_alpha
            if cycle >= loop_cap:
                return TruncationLeaf(st, report.objective(alpha))
            if cycle == 1:
                # the first return to this W state: build its later cycles
                # deepest first, so that each finds the next one built
                for later in range(loop_cap, 1, -1):
                    build(comps, labels, later)
            m, steps = _peel_step(labels, edges, alpha)
            children = branch(steps, labels, cycle + 1)
            return DecisionNode(st, m, "phase3", tuple(children), alpha=alpha, cycle=cycle + 1)

        steps, fail = _step(comps, labels, tag, party)
        children = branch(steps, labels, cycle)
        if fail:
            children.append((fail, FAILURE))
        if tag == "isolate":
            m = LocalMeasurement.diagonal(party, [(1.0, 0.0), (0.0, 1.0)])
            return DecisionNode(st, m, "isolate", tuple(children))
        return DecisionNode(st, ev_measurement(st, party), "ev", tuple(children))

    root = build(state.components, state.labels, 0)
    return ProtocolTree(root, epsilon, loop_cap)


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
