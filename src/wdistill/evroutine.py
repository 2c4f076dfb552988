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

The walks run on position bitmasks.  A walk reads one neighbour mask per
party position, from :func:`~wdistill.core._adjacency`, and carries the
set of parties still in play as a live mask beside a component tuple
indexed by position.  :func:`_scan` finds the mask of maximal live
parties and the mask of those exactly at the largest weight in one loop
over the weights, and :func:`_decide` answers from the maximal mask and
the mask of isolated parties (live, with no live neighbour) with a
position.  A measure step's outcome probabilities come from
:func:`_measure_outcomes` alone, and an isolate step's from
:func:`_isolate_outcomes`; the equal child's weights come from
:func:`_equalized` and a removal child's from :func:`_vanished`, in both
:func:`enumerate_ev` and the protocol-tree builder, which calls these
rules itself.

Both walks carry the isolated mask instead of scanning for it at each
node: an equal child keeps it, and :func:`_without` gives a removal
child its mask, testing only the removed party's live neighbours.  The
peel-off walk of :mod:`wdistill.lpo` passes :func:`_decide` its own mask
of maximal parties.  :func:`enumerate_ev` keys its terminals by live
mask, which :func:`ev_distribution` names.  Each walk drops its
self-recursive closure when it returns or raises, so reference counting
frees all it made and nothing is left for the cyclic garbage collector.

:func:`enumerate_ev` takes every isolate and measure step by one rule,
and builds and walks only the children that the masks cannot settle.
The equal child is the terminal on every live party when the measured
party is the only live one not exactly at the largest weight.  A removal
child is failure when fewer than two parties are left, and the terminal
on the rest when none of them is isolated and all are exactly tied.
Each outcome rescales every weight by the same float operations (a
removal divides each by 1 - x_k), which map equal floats to equal
floats, so an exact tie stays exact in the child.  A near tie, within
``MAX_EQUAL_RTOL`` but not exact, may round apart once rescaled, so it is
not settled this way.
"""

from __future__ import annotations

from .core import (
    FAILURE,
    ConfigGraph,
    InternalConsistencyError,
    LocalMeasurement,
    MAX_EQUAL_RTOL,
    NULL_OUTCOME_PROB,
    OutcomeDistribution,
    PreconditionError,
    StandardW,
    WState,
    _adjacency,
    _members,
    _require_weight,
    _same_parties,
)

X0_TOL = 1e-12


def _scan(comps, live):
    """The largest weight ``top`` and two masks of live parties, built in
    one loop over the weights: those within ``MAX_EQUAL_RTOL`` of ``top``
    (maximal) and those exactly at ``top`` (tied).

    ``comps`` holds one weight per position, 0.0 at every position outside
    the ``live`` mask.  The mask of isolated parties is not found here:
    :func:`enumerate_ev` carries it along its walk, and the protocol-tree
    builder asks :func:`_isolated` for it.
    """
    top = max(comps)
    floor = top * (1.0 - MAX_EQUAL_RTOL)
    maxmask = tied = 0
    bit = 1
    for c in comps:
        if c >= floor:
            maxmask |= bit
            if c == top:
                tied |= bit
        bit <<= 1
    return top, maxmask & live, tied & live


def _decide(maxmask, adj, live, isolated):
    """Next action for an x0 = 0 node, given the mask of maximal live
    parties and the mask of live parties with no live neighbour, as
    (tag, position).

    Order of the rules matters: isolated parties are dealt with before the
    all-maximal terminal check, the lowest position first, and the
    measuring party is the lowest-position non-maximal party next to a
    maximal one, falling back to the lowest-position non-maximal party.
    The weights themselves are not read, so any walk that can say which
    parties are maximal shares the rule, and a walk that changes ``live``
    one party at a time can carry ``isolated`` along with
    :func:`_without` instead of scanning every position at each node.
    """
    if isolated:
        return ("fail2", None) if live.bit_count() == 2 else ("isolate", (isolated & -isolated).bit_length() - 1)
    if maxmask == live:
        return "terminal", None
    lagging = live & ~maxmask
    rest = lagging
    while rest:
        bit = rest & -rest
        i = bit.bit_length() - 1
        if adj[i] & maxmask:
            return "measure", i
        rest ^= bit
    return "measure", (lagging & -lagging).bit_length() - 1


def _isolated(adj, live):
    """The mask of live parties with no live neighbour."""
    isolated = 0
    rest = live
    while rest:
        bit = rest & -rest
        if not adj[bit.bit_length() - 1] & live:
            isolated |= bit
        rest ^= bit
    return isolated


def _without(adj, live, isolated, j):
    """The live mask without position j, and its :func:`_isolated` mask
    from ``isolated``, the one of ``live``: j leaves it, and of the
    others only j's live neighbours can have lost their last live
    neighbour, so only they are tested."""
    bit = 1 << j
    live ^= bit
    isolated &= ~bit
    nbrs = adj[j] & live
    while nbrs:
        b = nbrs & -nbrs
        if not adj[b.bit_length() - 1] & live:
            isolated |= b
        nbrs ^= b
    return live, isolated


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


def _measure_outcomes(xk, top):
    """The measure step of a party of weight ``xk`` against the largest
    weight ``top``: the ratio a = xk / top and the probabilities of the
    equal and vanish outcomes, each 0.0 where it is rarer than
    NULL_OUTCOME_PROB and dropped."""
    a = xk / top
    pe = a * (1.0 - xk) + xk
    pv = (1.0 - a) * (1.0 - xk)
    return a, pe if pe >= NULL_OUTCOME_PROB else 0.0, pv if pv >= NULL_OUTCOME_PROB else 0.0


def _isolate_outcomes(xk):
    """The isolate step of a party of weight ``xk``: the probability
    1 - x_k that the others stay entangled and the failure mass x_k, each
    0.0 where it is rarer than NULL_OUTCOME_PROB and dropped."""
    p = 1.0 - xk
    return p if p >= NULL_OUTCOME_PROB else 0.0, xk if xk >= NULL_OUTCOME_PROB else 0.0


def _vanished(comps, k):
    """The weights after party k vanishes: the others divided by
    1 - x_k, and 0.0 at k."""
    keep = 1.0 - comps[k]
    new = [c / keep for c in comps]
    new[k] = 0.0
    return tuple(new)


def _equalized(comps, k, imax, a, pe):
    """The weights after party k's equal outcome of probability ``pe`` at
    the ratio ``a``: each rescaled by a / pe, and x_k set to the largest
    one, at the lowest position ``imax``, so that the tie is exact."""
    new = [a * c / pe for c in comps]
    new[k] = new[imax]  # force the intended exact tie
    return tuple(new)


def enumerate_ev(comps, adj, live) -> dict:
    """Exhaustively walk the equal-or-vanish tree from the parties in the
    mask ``live``, over the neighbour masks ``adj``.

    Returns a map from terminal to probability; terminals are either a
    live mask (a standard W state on those positions) or the FAILURE
    sentinel.  Raw-tuple variant of :func:`ev_distribution`, which names
    the masks; its rules, :func:`_scan`, :func:`_decide`, the outcomes
    and :func:`_equalized` and :func:`_vanished`, are shared with the
    protocol-tree builder, whose walk stopped at standard W states is
    :func:`wdistill.lpo.ev_tree`.

    The walk carries the isolated mask: it starts from :func:`_isolated`
    at the root, an equal child keeps it, and a removal child gets its
    own from :func:`_without`.  Every isolate or measure step of party k
    takes one path.  Its outcomes come from :func:`_isolate_outcomes`,
    with no equal outcome, or from :func:`_measure_outcomes`, with no
    failure mass, and the depth check raises before any child.  The
    equal child is the terminal on ``live`` when k is the only live
    party not exactly tied, and is otherwise built by :func:`_equalized`
    and walked.  The removal child is FAILURE when fewer than two
    parties are left, the terminal on the rest when none is isolated and
    all are exactly tied, since the common division by 1 - x_k keeps
    exact ties exact, and is otherwise built by :func:`_vanished` and
    walked.  An isolate step's failure mass comes last.  A settled child
    adds the mass its visit would add, with the same products in the same
    order, so the map and its key order are those of the full walk.
    Every walked child has at least two live parties, so only the root is
    tested for fewer.
    """
    if live.bit_count() < 2:
        return {FAILURE: 1.0}
    acc: dict = {}
    depth_cap = 2 * live.bit_count()

    def visit(comps, live, isolated, pathp, depth):
        top, maxmask, tied = _scan(comps, live)
        tag, k = _decide(maxmask, adj, live, isolated)
        if tag == "fail2":
            acc[FAILURE] = acc.get(FAILURE, 0.0) + pathp
            return
        if tag == "terminal":
            acc[live] = acc.get(live, 0.0) + pathp
            return
        if tag == "isolate":
            a = pe = 0.0
            pv, fail = _isolate_outcomes(comps[k])
        else:
            a, pe, pv = _measure_outcomes(comps[k], top)
            fail = 0.0
        if (pe or pv) and depth >= depth_cap:
            raise InternalConsistencyError("equal-or-vanish recursion too deep")
        if pe:
            if live & ~tied == 1 << k:
                acc[live] = acc.get(live, 0.0) + pathp * pe
            else:
                equal = _equalized(comps, k, (tied & -tied).bit_length() - 1, a, pe)
                visit(equal, live, isolated, pathp * pe, depth + 1)
        if pv:
            rest, alone = _without(adj, live, isolated, k)
            if rest.bit_count() < 2:
                acc[FAILURE] = acc.get(FAILURE, 0.0) + pathp * pv
            elif not alone and not rest & ~tied:
                acc[rest] = acc.get(rest, 0.0) + pathp * pv
            else:
                visit(_vanished(comps, k), rest, alone, pathp * pv, depth + 1)
        if fail:
            acc[FAILURE] = acc.get(FAILURE, 0.0) + pathp * fail

    try:
        visit(tuple(comps), live, _isolated(adj, live), 1.0, 0)
    finally:
        del visit  # the closure holds itself: reference counting frees the walk
    return acc


def _check_support(terminals, comps, adj):
    """Every W terminal mask must contain each initially-maximal position
    or be disconnected from it.

    Only the positions within 0.9 MAX_EQUAL_RTOL of the largest weight are
    checked.  A position at the edge of the tolerance can drift out of it
    once the walk rescales the weights, since each step moves a weight's
    ratio to the largest by a few ulps, and the walk then measures it.  A
    walk takes at most 2n steps, so for any graph the engine can solve
    the drift stays far below the 0.1 MAX_EQUAL_RTOL margin.
    """
    xmax = max(comps)
    maximal = [i for i, c in enumerate(comps) if c >= xmax * (1.0 - 0.9 * MAX_EQUAL_RTOL)]
    for term in terminals:
        if term is FAILURE:
            continue
        for i in maximal:
            if not term >> i & 1 and adj[i] & term:
                raise InternalConsistencyError(f"terminal {term:b} is adjacent to the maximal position {i}")


def _check_ev_input(state: WState, graph: ConfigGraph) -> None:
    """The subroutine's domain: an x0 = 0 state on the graph's parties."""
    if state.x0 > X0_TOL:
        raise PreconditionError(f"equal-or-vanish needs x0 = 0, got {state.x0}")
    _same_parties(state, graph)


def ev_distribution(state: WState, graph: ConfigGraph) -> OutcomeDistribution:
    """Exact terminal distribution of the equal-or-vanish subroutine.

    Keys are StandardW terminals (party tuples in state order) plus a
    single Failure entry collecting every dead end.
    """
    _check_ev_input(state, graph)
    adj = _adjacency(state.labels, graph.edges)
    acc = enumerate_ev(state.components, adj, (1 << state.n) - 1)
    _check_support(acc.keys(), state.components, adj)
    entries = [(StandardW(_members(state.labels, t)), p) for t, p in acc.items() if t is not FAILURE]
    entries.sort(key=lambda tp: (-len(tp[0].parties), tp[0].parties))
    fail = acc.get(FAILURE, 0.0)
    if fail > 0.0:
        entries.append((FAILURE, fail))
    return OutcomeDistribution(entries)


def full_set_lambda(state: WState) -> float:
    """Closed form for the probability that no party gets removed:
    N * prod(x_k, k != n1) / x_n1^(N-2).  A state with no weight on any
    party raises :class:`PreconditionError`."""
    _require_weight(state)
    comps = state.components
    xmax = max(comps)
    imax = comps.index(xmax)
    prod = 1.0
    for i, c in enumerate(comps):
        if i != imax:
            prod *= c
    return len(comps) * prod / xmax ** (len(comps) - 2)

