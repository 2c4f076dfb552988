"""The least-party-out protocol and its success-probability engine.

Three phases: remove the x0 weight, symmetrize with the equal-or-vanish
subroutine, then peel parties off in order of graph connectivity.  The
recursion over party subsets reduces the whole protocol to a family of
one-dimensional maximizations over the peel-off parameter alpha, one per
subgraph shape, each of which is solved exactly: one walk of the
peel-off node reads the cycle success function off as an exact sum of
monomials c a^e (1 - a)^v, its shared (1 - alpha) factor is divided out
term by term, and the maximum is taken over alpha = 0, alpha = 1 and the
real critical points between.
The power coefficients reported as ``f_polynomial`` are expanded from
the monomials.

A shape is the :func:`~wdistill.core._adjacency` neighbour masks of the
subgraph's labels in order.  The walks, the subset recursion and the
baseline :func:`p_fl` all recurse on masks, never on labels; labels
enter only where a report or a state is handed out.  Every recursion
written as a closure that calls itself drops its own name when it
returns or raises, so reference counting frees all a query made and
nothing is left for the cyclic garbage collector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .core import (
    FAILURE,
    ConfigGraph,
    Epr,
    InternalConsistencyError,
    InvalidInputError,
    InvalidPartyError,
    LocalMeasurement,
    NULL_OUTCOME_PROB,
    OutcomeDistribution,
    PreconditionError,
    Residual,
    StandardW,
    WState,
    ZERO_COMPONENT,
    _adjacency,
    _integer,
    _members,
    _same_parties,
    component_update,
)
from .evroutine import (
    X0_TOL,
    _check_ev_input,
    _decide,
    _equalized,
    _isolate_outcomes,
    _isolated,
    _measure_outcomes,
    _scan,
    _vanished,
    _without,
    enumerate_ev,
    ev_measurement,
)

LIMIT_EDGE = 1e-6              # argmax this close to 1 counts as a limit
MAX_LOOP_CAP = 1_000           # loops a protocol tree runs on one W subset

SQRT3 = math.sqrt(3.0)


# ---------------------------------------------------------------------------
# phase I: removing the x0 weight


def _phase1_round(comps):
    """One x0-removal round on raw components, as ``(k, r, mu, p1)``: the
    dominant position k (the lowest on a tie), r = x0 / x_k, the smaller
    root mu of mu^2 - (2 + r) mu + 1 = 0, and the success probability
    p1 = 2 x_k (1 - x0) / (x0 + 2 x_k + sqrt(x0^2 + 4 x_k x0)).  As in
    :class:`WState`, components below ``ZERO_COMPONENT`` count as 0 here.
    With no entangled party r and mu are undefined, and it raises."""
    held = [0.0 if c < ZERO_COMPONENT else c for c in comps]
    x0 = max(0.0, 1.0 - sum(held))
    xn = max(held)
    if xn <= 0.0:
        raise PreconditionError("state has no entangled party")
    r = x0 / xn
    mu = 2.0 / (2.0 + r + math.sqrt(r * r + 4.0 * r))
    p1 = 2.0 * xn * (1.0 - x0) / (x0 + 2.0 * xn + math.sqrt(x0 * x0 + 4.0 * xn * x0))
    return held.index(xn), r, mu, p1


def phase1_measurement(state: WState) -> LocalMeasurement:
    """Measurement by the dominant party that cancels the x0 weight on
    outcome 1 and zeroes that party's own weight on outcome 2."""
    if state.x0 <= X0_TOL:
        raise PreconditionError("x0 is already zero")
    k, r, mu, _ = _phase1_round(state.components)
    b1 = -math.sqrt(mu * r)
    b2 = mu * math.sqrt(r) / math.sqrt(1.0 - mu)
    return LocalMeasurement(state.labels[k], [(mu, b1, mu), (1.0 - mu, b2, 0.0)])


def phase1_success_probability(state: WState) -> float:
    """Probability that one x0-removal round succeeds:
    2 x_n1 (1 - x0) / (x0 + 2 x_n1 + sqrt(x0^2 + 4 x_n1 x0)), which is 0
    on a state with no entangled party."""
    if state.max_component() <= 0.0:
        return 0.0
    return _phase1_round(state.components)[3]


def _phase1_step(comps, live):
    """The x0-removal round on raw components indexed by position, 0.0
    outside ``live``, and its children as ``(p, comps, live)``: outcome 1
    cancels x0 and renormalizes, outcome 2 zeroes the dominant party,
    which leaves state and graph."""
    k, _, mu, p1 = _phase1_round(comps)
    total = sum(comps)
    children = [(p1, tuple(c / total for c in comps), live)]
    p2 = 1.0 - p1
    if p2 >= NULL_OUTCOME_PROB:
        a2 = 1.0 - mu
        rest = [a2 * c / p2 for c in comps]
        rest[k] = 0.0
        children.append((p2, tuple(rest), live & ~(1 << k)))
    return children


def _peel_party(adj, live) -> int:
    """The position that peels off: the least connected live party, the
    lowest position on a tie."""
    return min(
        (i for i in range(len(adj)) if live >> i & 1), key=lambda i: (adj[i] & live).bit_count()
    )


def _peel_step(adj, live, alpha: float):
    """The peel-off position k of :func:`_peel_party` and the children of
    its measurement as ``(p, comps)``, weights indexed by position: outcome
    1 keeps weight 1 on k and alpha elsewhere, normalized; outcome 2
    removes k and leaves the others uniform."""
    k = _peel_party(adj, live)
    n = live.bit_count()
    p1 = (1.0 + alpha * (n - 1)) / n
    scale = 1.0 / (n * p1)
    peeled = [alpha * scale if live >> i & 1 else 0.0 for i in range(len(adj))]
    peeled[k] = scale
    children = [(p1, tuple(peeled))]
    p2 = (1.0 - alpha) * (n - 1) / n
    if p2 >= NULL_OUTCOME_PROB:
        rest = live & ~(1 << k)
        uniform = tuple(1.0 / (n - 1) if rest >> i & 1 else 0.0 for i in range(len(adj)))
        children.append((p2, uniform))
    return k, children


def _peel_walk(adj) -> list[tuple[int, int, int]]:
    """Every path from the peel-off node to a standard W state on T, as
    ``(T, e, v)`` with T a mask of live positions: the path has
    probability |T|/n a^e (1 - a)^v.

    Outcome 2 reaches S minus k at (0, 1).  After outcome 1 every
    equal-or-vanish ratio is exactly alpha, so each live party's
    unnormalized weight is a^e (1 - a)^v with its own e and a shared v.
    The walk carries the least exponent ``low`` and ``levels``, one mask
    of live parties per exponent from ``low`` up: ``levels[0]`` holds the
    maximal parties, the mask :func:`_decide` acts on, so no alpha is
    needed.  Equalizing party j, at level L >= 1, raises every other e by
    one: j moves to level L - 1 and ``low`` rises by one.  Vanishing
    removes j and raises v, and isolating removes the party; if no
    maximal party is left, the empty leading levels go and ``low`` rises
    by their number.  Empty trailing levels are dropped.  The walk also
    carries ``isolated``, the live parties with no live neighbour, which
    :func:`_decide` reads: equalizing keeps it, and a removal updates it
    with :func:`_without`, which tests only the removed party's
    neighbours.
    """
    n = len(adj)
    full = (1 << n) - 1
    k = _peel_party(adj, full)
    others = full & ~(1 << k)
    out = [(others, 0, 1)]

    def walk(levels, live, isolated, low, v):
        if live.bit_count() < 2:
            return
        tag, j = _decide(levels[0], adj, live, isolated)
        if tag == "terminal":
            out.append((live, low, v))
        if tag in ("terminal", "fail2"):
            return
        bit = 1 << j
        at = 0
        while not levels[at] & bit:
            at += 1
        rest = (*levels[:at], levels[at] ^ bit, *levels[at + 1:])
        if tag == "isolate":
            lead = 0
            while not rest[lead]:
                lead += 1
            low += lead
            rest = rest[lead:]
        else:
            raised = (*rest[:at - 1], rest[at - 1] | bit, *rest[at:])
            while not raised[-1]:
                raised = raised[:-1]
            walk(raised, live, isolated, low + 1, v)  # equalize
            v += 1  # vanish
        while not rest[-1]:
            rest = rest[:-1]
        walk(rest, *_without(adj, live, isolated, j), low, v)

    try:
        walk((1 << k, others), full, _isolated(adj, full), 0, 0)
    finally:
        del walk  # the closure holds itself: reference counting frees the walk
    return out


def _phase1_walk(comps, live) -> list:
    """:func:`phase1_distribution` from the parties in ``live``, its
    residuals as ``(comps, live)``, weights normalized and clamped as in
    :class:`WState`."""
    entries: dict = {}

    def visit(comps, live, pathp):
        # walk weights are finite and >= 0, so each one that is not 0.0 carries weight
        if live.bit_count() < 2 or len(comps) - comps.count(0.0) <= 1:
            entries[FAILURE] = entries.get(FAILURE, 0.0) + pathp
            return
        total = sum(comps)
        if 1.0 - total <= X0_TOL:
            normed = [c / total for c in comps]
            key = (tuple([0.0 if c < ZERO_COMPONENT else c for c in normed]), live)
            entries[key] = entries.get(key, 0.0) + pathp
            return
        for p, sub, sublive in _phase1_step(comps, live):
            visit(sub, sublive, pathp * p)

    try:
        visit(tuple(comps), live, 1.0)
    finally:
        del visit  # the closure holds itself: reference counting frees the walk
    return sorted(entries.items(), key=lambda tp: (tp[0] is FAILURE, -tp[1]))


def phase1_distribution(state: WState, graph: ConfigGraph) -> OutcomeDistribution:
    """Iterate x0-removal until every branch lands on an x0 = 0 state or a
    product state.  Residual terminals keep the pruned graph."""
    _same_parties(state, graph)
    out = []
    for key, p in _phase1_walk(state.components, (1 << state.n) - 1):
        if key is not FAILURE:
            comps, live = key
            sub = _members(state.labels, live)
            key = Residual(WState([c for i, c in enumerate(comps) if live >> i & 1], sub), graph.induced(sub))
        out.append((key, p))
    return OutcomeDistribution(out)


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
    return _trim(np.array([math.fsum(parts.get(d, ())) for d in range(max(parts) + 1)]))


def _trim(c: np.ndarray) -> np.ndarray:
    """``c`` without its trailing zeros, keeping at least one entry."""
    n = len(c)
    while n > 1 and c[n - 1] == 0:
        n -= 1
    return c[:n]


def _derivative(c: np.ndarray) -> np.ndarray:
    """Power coefficients of the derivative; a constant gives ``[0.0]``."""
    return c[1:] * np.arange(1, len(c)) if len(c) > 1 else c[:1] * 0


def _roots(c: np.ndarray) -> np.ndarray:
    """Every root of the power series ``c``, sorted: the eigenvalues of
    its companion matrix (Edelman and Murakami, Math. Comp. 64, 1995).
    This is numpy 2.x's ``polyroots`` step for step, with its unrotated
    companion matrix, so the roots agree with it to the last bit."""
    c = _trim(c)
    if len(c) < 2:
        return np.array([])
    if len(c) == 2:
        return np.array([-c[0] / c[1]])
    companion = np.eye(len(c) - 1, k=-1)
    companion[:, -1] -= c[:-1] / c[-1]
    roots = np.linalg.eigvals(companion)
    roots.sort()
    return roots


def _objective_value(terms, has_loop: bool, m: int, alpha):
    """f(a), or f(a) / (1 - a^m) on a looping node, in monomial form: every
    term of a looping node has v >= 1, so the shared (1 - a) is divided
    out exactly.  ``alpha`` may be an array.

    The one evaluator of the objective, for :meth:`OptimizationReport.objective`,
    :func:`f_alpha` and the optimizer.  Each power a^e and (1 - a)^v is
    taken once per exponent with numpy's pow, the terms are added in
    order from 0, and the loop's divisor 1 + a + ... + a^(m-1) is summed
    by Horner's rule as numpy's ``polyval`` does, so values are
    bit-identical to summing the terms one by one.  Python's float ``**``
    differs from numpy's pow in the last bit on some inputs, and the
    built-in ``sum`` of Python floats is compensated from CPython 3.12 on,
    so neither may stand in here; the pinned values hold on CPython 3.11.
    """
    a = np.asarray(alpha, dtype=float)
    b = 1.0 - a
    drop = 1 if has_loop else 0
    pa: dict = {}
    pb: dict = {}
    total = 0
    for c, e, v in terms:
        v -= drop
        if e not in pa:
            pa[e] = a**e
        if v not in pb:
            pb[v] = b**v
        total += c * pa[e] * pb[v]
    if not has_loop:
        return total
    s = 1.0 + a * 0
    for _ in range(m - 1):
        s = 1.0 + s * a
    return total / s


def _subgraph_key(labels, adj) -> str:
    """``labels`` and the edges the masks ``adj`` give them, as
    ``A|B|C[AB,BC]``: each edge once, smaller label first, in label order."""
    order = sorted(range(len(labels)), key=labels.__getitem__)
    es = [f"{labels[i]}{labels[j]}" for x, i in enumerate(order) for j in order[x + 1:] if adj[i] >> j & 1]
    return f"{'|'.join(labels)}[{','.join(es)}]"


def _induced(adj, live) -> tuple[int, ...]:
    """The neighbour masks of the subgraph on the positions set in
    ``live``, renumbered in order: each live bit is mapped to its rank
    once, and each kept mask is rebuilt from its live neighbour bits."""
    rank = {}  # live bit -> the bit of its rank
    r = 1
    rest = live
    while rest:
        bit = rest & -rest
        rank[bit] = r
        r <<= 1
        rest ^= bit
    out = []
    for bit in rank:
        nbrs = adj[bit.bit_length() - 1] & live
        m = 0
        while nbrs:
            b = nbrs & -nbrs
            m |= rank[b]
            nbrs ^= b
        out.append(m)
    return tuple(out)


def _cover(memo, adj) -> list:
    """The children ``(live, masks)`` of the memo entry ``adj``, in walk
    order, that are not a child of a child one party smaller.  Expanding
    the cover, and each cover below it, meets every child."""
    children = memo[adj][1]
    full = (1 << len(adj)) - 1
    reached = {  # each grandchild g, the child's one gone bit r put back
        g & ((1 << r) - 1) | g >> r << (r + 1)
        for child, sub_adj in children if child.bit_count() == len(adj) - 1
        for r in [(child ^ full).bit_length() - 1]
        for g, _ in memo[sub_adj][1]
    }
    return [entry for entry in children if entry[0] not in reached]


def _distinct(labels) -> tuple:
    """``labels`` as a tuple; a label named twice raises InvalidInputError."""
    labels = tuple(labels)
    if len(set(labels)) != len(labels):
        raise InvalidInputError(f"duplicate parties in {labels}")
    return labels


class PhaseThreeSolver:
    """Memoized recursion over party subsets.

    Inside the recursion a subgraph is its neighbour masks in label order,
    and values depend on nothing else: the walks work on positions, and
    the peel-off and :func:`~wdistill.evroutine._decide` ties go to the
    lowest one.  So the memo is keyed by the masks, and subgraphs whose
    masks are equal share one solve.  The same graph with its parties in
    another order may have other masks and, from five parties on, another
    value: the lowest position decides which least-connected party is
    peeled off (see :meth:`p3_diagnostic`).  Each entry holds the report,
    which names no labels, and its children, the subsets whose values it
    reads, each as its live mask over the entry's positions and its own
    masks.
    A report depends only on the cycle function's terms, on whether the
    node can loop and on its size, so :meth:`_optimize` runs once per
    distinct ``(terms, has_loop, n)`` and shapes that meet the same key
    share its report.  The size is in the key because loop-free shapes of
    different sizes can have equal terms but not an equal ``loop_order``.
    The labelled index files the report of each subset asked for under its
    root, the labels and masks a query started from, by its live mask.
    Labels name a report only where it is handed out: in :meth:`p3`, and
    in :meth:`audit`, which expands the index through the children into
    every labelled subset met, the list :meth:`reports` sorts.  Build the
    tables exclusively, then share them read-only; all other operations
    here are pure.
    """

    def __init__(self):
        self._memo: dict = {}       # masks -> (report, children)
        self._optimized: dict = {}  # (terms, has_loop, n) -> report
        self._labelled: dict = {}   # (labels, masks) of a root -> {live mask: report}

    # -- recursion -----------------------------------------------------

    def p3(self, labels, edges) -> OptimizationReport:
        """Best asymptotic success probability for a standard W state on
        ``labels`` against the induced subgraph."""
        labels = _distinct(labels)
        adj = _adjacency(labels, edges)
        report = self._report(self._index(labels, adj), adj, (1 << len(labels)) - 1)
        return replace(report, subgraph_key=_subgraph_key(labels, adj))

    def _index(self, labels, adj) -> dict:
        """The labelled index of the root (labels, adj): its reports by
        live mask."""
        return self._labelled.setdefault((labels, adj), {})

    def _report(self, index, adj, live) -> OptimizationReport:
        """The report of the subset ``live`` of the root whose masks are
        ``adj`` and whose labelled index is ``index``."""
        report = index.get(live)
        if report is None:
            report = index[live] = self._solve(_induced(adj, live))[0]
        return report

    def _solve(self, adj) -> tuple[OptimizationReport, tuple[tuple[int, tuple[int, ...]], ...]]:
        """The memo entry of the subgraph ``adj``: its report and its
        children, solved on a miss."""
        if adj not in self._memo:
            n = len(adj)
            if n > 2 and any(adj):
                terms, children = self._cycle_terms(adj)
                key = (tuple(terms), all(adj), n)
                report = self._optimized.get(key)
                if report is None:
                    report = self._optimized[key] = self._optimize(adj, terms)
                self._memo[adj] = report, children
            else:  # no peel-off: two joined parties succeed, anything else fails
                c = 1.0 if any(adj) else 0.0
                report = OptimizationReport(c, 0.0, False, ((c, 0, 0),), "", False, max(1, n - 1))
                self._memo[adj] = report, ()
        return self._memo[adj]

    def _cycle_terms(self, adj) -> tuple[list[tuple[float, int, int]], tuple]:
        """The cycle function f as monomials ``(c, e, v)``, one per (e, v):
        each path of :func:`_peel_walk` to a subset T other than S adds
        |T|/n p3(T) at its (e, v).  Also returns each such T once, as its
        live mask and its :func:`_induced` masks, in walk order."""
        n = len(adj)
        weight: dict[int, float] = {}                  # T -> |T| p3(T)
        children: dict[int, tuple[int, ...]] = {}      # T -> its masks
        parts: dict[tuple[int, int], list[float]] = {}
        for live, e, v in _peel_walk(adj):
            if live.bit_count() < n:
                if live not in weight:
                    sub = children[live] = _induced(adj, live)
                    weight[live] = live.bit_count() * self._solve(sub)[0].value
                parts.setdefault((e, v), []).append(weight[live])
        terms = [(math.fsum(cs) / n, e, v) for (e, v), cs in sorted(parts.items())]
        return terms, tuple(children.items())

    def _optimize(self, adj, terms) -> OptimizationReport:
        m = len(adj) - 1
        has_loop = all(adj)  # an isolated party never loops
        for c, e, v in terms:
            if e + v > m or (has_loop and v < 1):
                raise InternalConsistencyError(
                    f"cycle function on the subgraph {adj} has the term a^{e} (1 - a)^{v}"
                )
        # the slope numerator as numpy 2.x's polyder, polymul and polysub
        # build it: products by convolution, trailing zeros trimmed
        if has_loop:
            # d/da (q / s) has the numerator q's - qs', q = f / (1 - a),
            # s = 1 + a + ... + a^(m-1)
            q = _power_coefficients([(c, e, v - 1) for c, e, v in terms])
            # q's is never longer than qs': untrimmed, both have
            # len(q) + m - 2 entries, and qs' ends in (m - 1) q[-1], which
            # is 0 only when q is [0.0]
            left = _trim(np.convolve(_derivative(q), np.ones(m)))
            slope = -_trim(np.convolve(q, np.arange(1.0, m)))
            slope[:len(left)] += left
            slope = _trim(slope)
        else:
            slope = _derivative(_power_coefficients(terms))
        # the roots as numpy 2.x's polyroots finds them: real ones come
        # back with zero imaginary part, the others in conjugate pairs
        roots = _roots(slope)
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
        return OptimizationReport(value, x_star, attained_at_limit, tuple(terms), "", has_loop, m)

    def p3_diagnostic(self, labels, edges) -> dict[str, float]:
        """Value obtained for every minimal-degree choice of the peel-off
        party, bypassing the lowest-index tie-break: each choice is solved
        with that party named first.  Only the shape memo fills, so
        :meth:`reports` does not change."""
        labels = _distinct(labels)
        deg = [nbrs.bit_count() for nbrs in _adjacency(labels, edges)]
        return {
            k: self._solve(_adjacency((k, *(l for l in labels if l != k)), edges))[0].value
            for k, d in zip(labels, deg) if d == min(deg)
        }

    # -- whole-protocol values ------------------------------------------

    def p_lpo(self, state: WState, graph: ConfigGraph) -> float:
        """Overall success probability of the protocol on (state, graph):
        one recursion on a branch's weights and live mask, through phase I
        and the equal-or-vanish walk to the standard W terminals.  A state
        that names the parties in the graph's order reads the graph's kept
        masks; any other order has its own masks built."""
        labels = state.labels
        if labels == graph.labels:
            adj = graph._masks
        else:
            _same_parties(state, graph)
            adj = _adjacency(labels, graph.edges)
        index = self._index(labels, adj)

        def value(comps, live) -> float:
            total = 0.0
            if 1.0 - sum(comps) > X0_TOL:
                for key, p in _phase1_walk(comps, live):
                    if key is not FAILURE:
                        total += p * value(*key)
                return total
            for term, lam in enumerate_ev(comps, adj, live).items():
                if term is not FAILURE:
                    total += lam * self._report(index, adj, term).value
            return total

        try:
            return value(state.components, (1 << len(labels)) - 1)
        finally:
            del value  # the closure holds itself, and through it the solver

    def audit(self) -> dict:
        """Every labelled subset the recursion has met, as a new dict from
        ``(labels, masks)`` to the report named for those labels: each
        subset of the labelled index, the duplicates across roots removed,
        and below it the children of its shape, relabelled.  Each subset is
        listed once, children first.

        Every shape is expanded through its :func:`_cover`, built once per
        shape: on a dense graph the cover is a few children, where
        expanding all of them would revisit about 3^n / 2 subsets.  The
        subsets met in one expansion are kept in ``seen``, so that none is
        expanded twice from the same start."""
        met: dict = {}
        covers: dict = {}     # masks -> their cover

        def expand(labels, adj, seen):
            cover = covers.get(adj)
            if cover is None:
                cover = covers[adj] = _cover(self._memo, adj)
            for child, sub_adj in cover:
                sub = _members(labels, child)
                if sub not in seen:
                    seen.add(sub)
                    if (sub, sub_adj) not in met:
                        expand(sub, sub_adj, seen)
            met[(labels, adj)] = replace(self._memo[adj][0], subgraph_key=_subgraph_key(labels, adj))

        asked = dict.fromkeys(
            (_members(labels, live), _induced(adj, live))
            for (labels, adj), index in self._labelled.items() for live in index
        )
        # largest first, so that most smaller entries are met below one
        try:
            for labels, adj in sorted(asked, key=lambda key: -len(key[0])):
                if (labels, adj) not in met:
                    expand(labels, adj, set())
        finally:
            del expand  # the closure holds itself, and through it met and covers
        return met

    def reports(self) -> list[OptimizationReport]:
        """Every labelled subset met, largest first (audit trail of a
        query)."""
        return sorted(
            self.audit().values(), key=lambda r: (-len(r.subgraph_key), r.subgraph_key)
        )


def f_alpha(parties, graph: ConfigGraph, alpha: float, solver: PhaseThreeSolver | None = None) -> float:
    """The cycle function f of the peel-off node on ``parties`` at
    ``alpha``, summed from the monomials of its report's ``terms``."""
    parties = tuple(parties)
    if len(parties) <= 2:
        raise PreconditionError("the cycle function needs more than two parties")
    if not 0.0 <= alpha <= 1.0:
        raise PreconditionError(f"alpha {alpha} lies outside [0, 1]")
    return float(_objective_value(p3(parties, graph, solver).terms, False, 0, alpha))


def p3(parties, graph: ConfigGraph, solver: PhaseThreeSolver | None = None) -> OptimizationReport:
    """The solved peel-off recursion for a standard W state on ``parties``,
    distinct nodes of ``graph``."""
    parties = tuple(parties)
    unknown = set(parties) - set(graph.labels)
    if unknown:
        raise InvalidPartyError(f"unknown parties {sorted(map(str, unknown))}")
    solver = solver or PhaseThreeSolver()
    return solver.p3(parties, graph.edges)


def p_lpo(state: WState, graph: ConfigGraph, solver: PhaseThreeSolver | None = None) -> float:
    solver = solver or PhaseThreeSolver()
    return solver.p_lpo(state, graph)


# ---------------------------------------------------------------------------
# the baseline recursion


def p_fl(graph: ConfigGraph) -> float:
    """Success probability of the subset-averaging baseline protocol at the
    standard W state: a value of the graph alone, whatever state a query
    holds.

    Complete induced subgraphs succeed outright, three-party non-complete
    subgraphs with an edge reach 2/3, and everything larger averages over
    single-party removals.  A subset is a mask of live positions over the
    graph's own neighbour masks, and each one is valued once; the loops
    visit only its set bits, the lowest first.  Each average is summed from
    int 0 in that order, one addition at a time.  The result is kept on the
    graph instance, so later calls on the same graph return it.
    """
    if graph.n < 2:
        raise PreconditionError("need at least two nodes")
    kept = graph._kept
    hit = kept.get("p_fl")
    if hit is not None:
        return hit
    adj = graph._masks
    memo: dict[int, float] = {}

    def value(live: int) -> float:
        """The value on the parties at the positions set in ``live``."""
        hit = memo.get(live)
        if hit is not None:
            return hit
        n = live.bit_count()
        ends = 0  # twice the edges
        rest = live
        while rest:
            bit = rest & -rest
            ends += (adj[bit.bit_length() - 1] & live).bit_count()
            rest ^= bit
        if n == 2:
            out = 1.0 if ends else 0.0
        elif ends == n * (n - 1):
            out = 1.0
        elif n == 3:
            out = 2.0 / 3.0 if ends else 0.0
        elif not ends:
            out = 0.0
        else:
            # drop each party in turn, the lowest position first
            out = 0
            rest = live
            while rest:
                bit = rest & -rest
                out += value(live ^ bit)
                rest ^= bit
            out /= n
        memo[live] = out
        return out

    try:
        out = kept["p_fl"] = value((1 << graph.n) - 1)
    finally:
        del value  # the closure holds itself, and through it the memo
    return out


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
    one shared object, so the nodes form a DAG.  :attr:`nodes` is its
    table: the distinct decision nodes, each after all of its children
    (the root last), in the order :func:`_unroll` made them.  Every method
    below is a loop over that table, so none recurses however deep the
    tree is; :meth:`node_count` still counts the unrolled tree.  Values
    are summed children first; whatever moves from the root down, the leaf
    probabilities, the truncation mass and :func:`wdistill.mc.simulate`'s
    trial counts, is one loop over the table, parents first.
    """

    root: object
    epsilon: float | None
    loop_cap: int
    nodes: tuple[DecisionNode, ...] = field(repr=False, compare=False)

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
        for node in self.nodes:
            total = 0
            for p, child in node.children:
                if isinstance(child, DecisionNode):
                    v = value[child]
                elif isinstance(child, Epr):
                    v = 1.0
                elif credit_truncation and isinstance(child, TruncationLeaf):
                    v = child.continuation_value
                else:
                    v = 0.0
                total += p * v
            value[node] = total
        if isinstance(self.root, DecisionNode):
            return value[self.root]
        # a tree that is one leaf: an EPR pair, a failure or a standard W state
        return 1.0 if isinstance(self.root, Epr) else 0.0

    def node_count(self) -> int:
        """Nodes of the unrolled tree: a shared subtree counts once for
        every place it occurs."""
        count: dict[DecisionNode, int] = {}  # a leaf is never a key and counts 1
        for node in self.nodes:
            count[node] = 1 + sum(count.get(child, 1) for _, child in node.children)
        return count.get(self.root, 1)

    def _leaf_mass(self) -> dict:
        """Probability of ending on each distinct leaf, summed over every
        path: one pass over the node table, parents first, in which every
        decision node shares what reaches it, summed over all of its
        parents, as ``mass * p`` among its children."""
        reach = {self.root: 1.0}
        for node in reversed(self.nodes):
            mass = reach.pop(node)
            for p, child in node.children:
                reach[child] = reach.get(child, 0) + mass * p
        return reach

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
            # a DOT string is quoted: a backslash or quote in a label is escaped
            label = node.label().replace("\\", "\\\\").replace('"', '\\"')
            lines.append(f'  n{i} [label="{label}"{shape}];')
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

    Loops on a standard W subset run loop_cap times, an integer from 1 to
    MAX_LOOP_CAP; the residual mass lands on a truncation leaf annotated
    with the value the unbounded loop would still collect.  Limit-attained
    optimizations use alpha = 1 - epsilon.  Phase-1, isolate and
    equal-or-vanish children come from the same branch rules as
    :func:`phase1_distribution` and
    :func:`~wdistill.evroutine.enumerate_ev`; each peel-off reads its
    report by live mask, as :meth:`PhaseThreeSolver.p_lpo` does.

    Each distinct subtree is built once and shared wherever it recurs: it
    depends only on its state and on its cycle, the number of peel-offs
    already made on its own labels (labels only shrink along a branch).
    What a node measures and which states its children reach depend on
    its state alone, so they are worked out once per state and reused in
    every cycle; the work per state does not grow with loop_cap, only the
    number of nodes does.  The first return to a standard W state builds
    its later cycles deepest first, so the build's stack does not grow
    with loop_cap.
    """
    if not (0.0 < epsilon < 0.5):
        raise PreconditionError("epsilon must lie in (0, 0.5)")
    if 1.0 - epsilon == 1.0:
        raise PreconditionError(f"epsilon {epsilon} is too small: 1 - epsilon rounds to 1")
    loop_cap = _integer("loop_cap", loop_cap)
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
    _check_ev_input(state, graph)
    return _unroll(state, graph, None, 0, None)


@dataclass(frozen=True)
class _StateStep:
    """The part of a protocol-tree node that no loop cycle changes, worked
    out once per component tuple.  ``held`` is the mask of parties that
    carry weight.  A state whose node is a leaf in every cycle (``FAILURE``,
    an EPR pair, or a standard W state of an EV tree) holds only ``leaf``;
    any other holds the validated state, its measurement and phase, and its
    children ``(p, comps)`` with the failure mass.  A peel-off also holds
    its optimizer report and alpha."""

    held: int
    leaf: object = None
    state: WState | None = None
    measurement: LocalMeasurement | None = None
    phase: str | None = None
    steps: tuple = ()
    fail: float = 0.0
    report: OptimizationReport | None = None
    alpha: float | None = None


def _unroll(state, graph, epsilon, loop_cap: int, solver) -> ProtocolTree:
    """The walk of :func:`build_protocol_tree`, unchecked but for the label
    sets.  At ``loop_cap`` 0 it stops at every standard W state, so that no
    peel-off, solver or epsilon is needed.  Like the equal-or-vanish walk
    it carries weights indexed by position, 0.0 outside a live mask.

    A node depends on its components and on its cycle.  What depends on
    the components alone, the :class:`_StateStep`, is worked out once per
    component tuple and kept in ``table`` beside that state's own
    ``{cycle: subtree}`` dict, so one lookup of the tuple finds both, and
    every cycle of a loop reuses the step: a cycle only wraps the step's
    children into a :class:`DecisionNode`, or cuts the loop with a
    :class:`TruncationLeaf` at the cap.  The keys of ``table`` are the
    nodes of the finite loop graph that the unrolled tree repeats.  Each
    decision node is made after all of its children and appended to
    ``nodes`` as it is made, which gives the tree's node table."""
    _same_parties(state, graph)
    labels = state.labels
    adj = _adjacency(labels, graph.edges)
    index = None if solver is None else solver._index(labels, adj)
    table: dict = {}  # comps -> (_StateStep, {cycle: subtree})
    nodes: list = []

    def state_step(comps) -> _StateStep:
        """The cycle-free part of the node for ``comps``."""
        held = 0
        for i, c in enumerate(comps):
            if c > 0.0:
                held |= 1 << i
        if held.bit_count() < 2:
            return _StateStep(held, FAILURE)
        x0 = max(0.0, 1.0 - sum(comps))
        names = _members(labels, held)
        st = WState(tuple(c for i, c in enumerate(comps) if held >> i & 1), names)
        if x0 > X0_TOL:
            steps = [(p, sub) for p, sub, _ in _phase1_step(comps, held)]
            return _StateStep(held, None, st, phase1_measurement(st), "phase1", steps)

        top, maxmask, tied = _scan(comps, held)
        tag, k = _decide(maxmask, adj, held, _isolated(adj, held))
        if tag == "fail2":
            return _StateStep(held, FAILURE)
        if tag == "terminal":
            if loop_cap == 0:
                return _StateStep(held, StandardW(names))
            if len(names) == 2:
                return _StateStep(held, Epr(names))
            report = solver._report(index, adj, held)
            alpha = 1.0 - epsilon if report.attained_at_limit else report.argmax_alpha
            k, steps = _peel_step(adj, held, alpha)
            m = LocalMeasurement.diagonal(labels[k], [(alpha, 1.0), (1.0 - alpha, 0.0)])
            return _StateStep(held, None, st, m, "phase3", steps, report=report, alpha=alpha)

        if tag == "isolate":
            p, fail = _isolate_outcomes(comps[k])
            steps = [(p, _vanished(comps, k))] if p else []
            m = LocalMeasurement.diagonal(labels[k], [(1.0, 0.0), (0.0, 1.0)])
            return _StateStep(held, None, st, m, "isolate", steps, fail)
        a, pe, pv = _measure_outcomes(comps[k], top)
        steps = []
        if pe:  # the lowest tied position holds the largest weight
            steps.append((pe, _equalized(comps, k, (tied & -tied).bit_length() - 1, a, pe)))
        if pv:
            steps.append((pv, _vanished(comps, k)))
        return _StateStep(held, None, st, ev_measurement(st, labels[k]), "ev", steps)

    def build(comps, live: int, cycle: int):
        """The subtree for this state after ``cycle`` peel-offs on these
        parties; an equal subtree built before is reused.  ``live`` holds
        the parties of the node that leads here: the count carries over
        only if every one of them still carries weight."""
        entry = table.get(comps)
        if entry is None:
            entry = table[comps] = (state_step(comps), {})
        s, made = entry
        if s.leaf is not None:
            return s.leaf
        if s.held != live:
            live, cycle = s.held, 0
        node = made.get(cycle)
        if node is not None:
            return node
        if s.phase == "phase3":
            if cycle >= loop_cap:
                node = made[cycle] = TruncationLeaf(s.state, s.report.objective(s.alpha))
                return node
            if cycle == 1:
                # the first return to this W state: build its later cycles
                # deepest first, so that each finds the next one built
                for later in range(loop_cap, 1, -1):
                    build(comps, live, later)
            after = cycle + 1
        else:
            after = cycle
        children = []
        for p, sub in s.steps:
            children.append((p, build(sub, live, after)))
        if s.fail:
            children.append((s.fail, FAILURE))
        node = made[cycle] = DecisionNode(
            s.state, s.measurement, s.phase, tuple(children),
            alpha=s.alpha, cycle=after if s.phase == "phase3" else None,
        )
        nodes.append(node)
        return node

    try:
        root = build(state.components, (1 << len(labels)) - 1, 0)
    finally:
        del build  # the closure holds itself, and through it table and nodes
    return ProtocolTree(root, epsilon, loop_cap, tuple(nodes))


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
