"""The "equal or vanish" subroutine.

Given an x0 = 0 state and a configuration graph, parties take turns
measuring so that each turn either lifts a lagging component up to the
current maximum or removes that party from the system.  The subroutine
terminates in standard W states on subsets of the parties (or outright
failure), and because the branch tree is finite it can be enumerated
exactly.  The rules here are also the equal-or-vanish steps of
:func:`wdistill.lpo.build_protocol_tree`; the explicit branch tree is
that builder's node table, stopped at standard W states
(:func:`wdistill.lpo.ev_tree`).
"""

from __future__ import annotations

from .core import (
    FAILURE,
    ConfigGraph,
    InternalConsistencyError,
    InvalidInputError,
    LocalMeasurement,
    MAX_EQUAL_RTOL,
    NULL_OUTCOME_PROB,
    OutcomeDistribution,
    PreconditionError,
    StandardW,
    WState,
)

X0_TOL = 1e-12


def _degrees(labels, edges) -> dict[str, int]:
    deg = {l: 0 for l in labels}
    for a, b in edges:
        deg[a] += 1
        deg[b] += 1
    return deg


def _neighbors(label, edges) -> set[str]:
    out = set()
    for a, b in edges:
        if a == label:
            out.add(b)
        elif b == label:
            out.add(a)
    return out


def _select(comps, labels, edges):
    """Next action for an x0 = 0 node, as (tag, party).

    Order of the rules matters: isolated nodes are dealt with before the
    all-maximal terminal check, and the measuring party is the lowest-index
    non-maximal party connected to a maximal one, falling back to the
    lowest-index non-maximal party.
    """
    deg = _degrees(labels, edges)
    isolated = [l for l in labels if deg[l] == 0]
    if isolated:
        if len(labels) == 2:
            return "fail2", None
        return "isolate", isolated[0]
    xmax = max(comps)
    maximal = [c >= xmax * (1.0 - MAX_EQUAL_RTOL) for c in comps]
    if all(maximal):
        return "terminal", None
    max_parties = {labels[i] for i in range(len(labels)) if maximal[i]}
    fallback = None
    for i, l in enumerate(labels):
        if maximal[i]:
            continue
        if fallback is None:
            fallback = l
        if _neighbors(l, edges) & max_parties:
            return "measure", l
    return "measure", fallback


def ev_measurement(state: WState, k: str) -> LocalMeasurement:
    """The two-outcome measurement that equalizes or removes party ``k``.

    Outcome 1 lifts x_k to the current maximum, outcome 2 sets it to zero.
    """
    xk = state.component(k)
    xmax = state.max_component()
    if xk >= xmax * (1.0 - MAX_EQUAL_RTOL):
        raise PreconditionError(f"component of {k!r} is already maximal")
    a = xk / xmax
    return LocalMeasurement(k, [(a, 0.0, 1.0), (1.0 - a, 0.0, 0.0)])


# ---------------------------------------------------------------------------
# exact enumeration

# Branch steps on raw tuples; x0 stays exactly 0 throughout so only the
# party weights are tracked.


def _step(comps, labels, tag, party):
    """Children of an isolate or measure step, as ``(p, comps, labels)``,
    and the failure mass.

    Isolating party k keeps the others entangled with probability 1 - x_k
    and fails otherwise.  Measuring k either lifts x_k to the current
    maximum ('equal', which keeps the ``labels`` object) or removes k
    ('vanish').  Outcomes rarer than NULL_OUTCOME_PROB are dropped.
    """
    k = labels.index(party)
    xk = comps[k]
    rest = labels[:k] + labels[k + 1:]
    children = []
    if tag == "isolate":
        p = 1.0 - xk
        if p >= NULL_OUTCOME_PROB:
            children.append((p, tuple(c / p for c in comps[:k] + comps[k + 1:]), rest))
        return children, xk if xk >= NULL_OUTCOME_PROB else 0.0
    imax = comps.index(max(comps))
    a = xk / comps[imax]
    pe = a * (1.0 - xk) + xk
    if pe >= NULL_OUTCOME_PROB:
        new = [a * c / pe for c in comps]
        new[k] = new[imax]  # force the intended exact tie
        children.append((pe, tuple(new), labels))
    pv = (1.0 - a) * (1.0 - xk)
    if pv >= NULL_OUTCOME_PROB:
        children.append((pv, tuple(c / (1.0 - xk) for c in comps[:k] + comps[k + 1:]), rest))
    return children, 0.0


def _restrict_edges(edges, labels):
    keep = set(labels)
    return frozenset(e for e in edges if e[0] in keep and e[1] in keep)


def enumerate_ev(comps, labels, edges) -> dict:
    """Exhaustively walk the equal-or-vanish tree.

    Returns a map from terminal to probability; terminals are either an
    ordered tuple of party labels (a standard W state on those parties) or
    the FAILURE sentinel.  Raw-tuple variant of :func:`ev_distribution`;
    its rules :func:`_select` and :func:`_step` are shared with the
    protocol-tree builder, whose walk stopped at standard W states is
    :func:`wdistill.lpo.ev_tree`.
    """
    acc: dict = {}
    depth_cap = 2 * len(labels)

    def visit(comps, labels, edges, pathp, depth):
        if depth > depth_cap:
            raise InternalConsistencyError("equal-or-vanish recursion too deep")
        if len(labels) < 2:
            acc[FAILURE] = acc.get(FAILURE, 0.0) + pathp
            return
        tag, party = _select(comps, labels, edges)
        if tag == "fail2":
            acc[FAILURE] = acc.get(FAILURE, 0.0) + pathp
            return
        if tag == "terminal":
            acc[labels] = acc.get(labels, 0.0) + pathp
            return
        children, fail = _step(comps, labels, tag, party)
        for p, sub, sublab in children:
            subedges = edges if sublab is labels else _restrict_edges(edges, sublab)
            visit(sub, sublab, subedges, pathp * p, depth + 1)
        if fail:
            acc[FAILURE] = acc.get(FAILURE, 0.0) + pathp * fail

    visit(tuple(comps), tuple(labels), frozenset(edges), 1.0, 0)
    return acc


def _check_support(terminals, comps, labels, edges):
    """Every W terminal must contain each initially-maximal party or be
    disconnected from it."""
    xmax = max(comps)
    maximal = [labels[i] for i, c in enumerate(comps) if c >= xmax * (1.0 - MAX_EQUAL_RTOL)]
    for term in terminals:
        if term is FAILURE:
            continue
        members = set(term)
        for m in maximal:
            if m in members:
                continue
            if _neighbors(m, edges) & members:
                raise InternalConsistencyError(
                    f"terminal {term} is adjacent to the maximal party {m!r}"
                )


def ev_distribution(state: WState, graph: ConfigGraph) -> OutcomeDistribution:
    """Exact terminal distribution of the equal-or-vanish subroutine.

    Keys are StandardW terminals (party tuples in state order) plus a
    single Failure entry collecting every dead end.
    """
    if state.x0 > X0_TOL:
        raise PreconditionError(f"equal-or-vanish needs x0 = 0, got {state.x0}")
    if set(state.labels) != set(graph.labels):
        raise InvalidInputError("state parties and graph nodes differ")
    acc = enumerate_ev(state.components, state.labels, graph.edges)
    _check_support(acc.keys(), state.components, state.labels, graph.edges)
    entries = []
    fail = 0.0
    for term, p in acc.items():
        if term is FAILURE:
            fail += p
        else:
            entries.append((StandardW(term), p))
    entries.sort(key=lambda tp: (-len(tp[0].parties), tp[0].parties))
    if fail > 0.0:
        entries.append((FAILURE, fail))
    return OutcomeDistribution(entries)


def full_set_lambda(state: WState) -> float:
    """Closed form for the probability that no party gets removed:
    N * prod(x_k, k != n1) / x_n1^(N-2)."""
    comps = state.components
    xmax = max(comps)
    imax = comps.index(xmax)
    prod = 1.0
    for i, c in enumerate(comps):
        if i != imax:
            prod *= c
    return len(comps) * prod / xmax ** (len(comps) - 2)


def ev_order_sensitivity(state: WState, graph: ConfigGraph) -> float:
    """Largest change in any terminal probability when the measuring-party
    tie-break prefers the highest index instead of the lowest.

    Reversing the party order flips every lowest-index choice of
    :func:`_select`, so this compares the enumeration on the state with
    the enumeration on its reversal.  Diagnostic only: nothing in the
    protocol relies on the answer being zero, this just records how the
    enumeration responds to the one choice left open by the selection
    rules.
    """

    def by_party_set(comps, labels):
        out: dict = {}
        for term, p in enumerate_ev(comps, labels, graph.edges).items():
            key = term if term is FAILURE else tuple(sorted(term))
            out[key] = out.get(key, 0.0) + p
        return out

    base = by_party_set(state.components, state.labels)
    rev = by_party_set(state.components[::-1], state.labels[::-1])
    return max(abs(base.get(key, 0.0) - rev.get(key, 0.0)) for key in base.keys() | rev.keys())
