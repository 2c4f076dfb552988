"""The walks on position bitmasks against the label-and-edge walks they
replaced.

``reference_select``, ``reference_enumerate_ev`` and ``reference_peel_walk``
are the earlier forms of the selection rule, which is now
:func:`wdistill.evroutine._decide` on the masks of
:func:`~wdistill.evroutine._scan` and :func:`~wdistill.evroutine._isolated`,
of :func:`~wdistill.evroutine.enumerate_ev` and of
:func:`wdistill.lpo._peel_walk`: they pass a subset as its labels and its
restricted edge set, and read degrees and neighbours off the edges at
every node.  The engine's walks must return the same dicts and lists,
key order included, once their live masks are read as labels.

``single_loop_select`` and ``coded_peel_walk`` are the mask forms that
came before the selection rule was split into the maximal-party mask and
:func:`wdistill.evroutine._decide`: one loop that checks isolation and
maximality together, and a peel-off walk that codes each exponent e as
the weight 2^-(e - e_min) for it.  The split rule must act the same on
every input, and the peel-off walk return the same lists.

``exponent_peel_walk`` is the peel-off walk that carried one exponent per
position, infinite for a removed party, before the walk kept one mask of
live parties per exponent level; the level walk must return the same
lists.  :func:`wdistill.lpo._induced` must renumber every subset as
:func:`~wdistill.core._adjacency` does on its labels and restricted edges.

``scan_decide`` is :func:`wdistill.evroutine._decide` as it was before
the walks carried the mask of isolated parties: it scans every position
for a live party with no live neighbour at each node.  The
``exponent_peel_walk`` reference calls it, so the level walk, which
carries the mask and updates it with :func:`~wdistill.evroutine._without`,
is checked against the scanning rule.  The four-argument rule must answer
as ``scan_decide`` does, and the update must equal a fresh scan.

The equal-or-vanish walk is also checked against the label walk on
near-tie states, whose maximal parties lie below the largest weight by
up to twice ``MAX_EQUAL_RTOL``, on full live masks and on partial ones
with the other weights at 0.0, as warm ``p_lpo`` walks them after phase
I.  The walk takes every step by one rule: the equal child is the
terminal on every live party only when the measured party is the only
one not exactly tied, and the removal child is failure when fewer than
two parties are left and the terminal on the rest only when none is
isolated and all are exactly tied; any other child is walked.  It
carries the isolated mask with :func:`~wdistill.evroutine._without` as
the peel-off walk does.

A planted fault in each, a selection rule that measures the highest
lagging position, an isolated-mask update that never adds a newly
isolated neighbour (in the peel-off walk and in the equal-or-vanish
walk), an ``_induced`` that ranks bits from the top, a scan that reports
every maximal party as exactly tied and one that does so only at nodes
with an isolated party, must be caught by these checks.  An equal child
whose tie is not forced keeps its party lagging, and the walk's depth
check must stop it.

The near-tie states on their graphs also check the protocol-tree
builder's equal-or-vanish steps: the leaves of
:func:`~wdistill.lpo.ev_tree` must be the probabilities of
:func:`~wdistill.evroutine.ev_distribution`, whose support check must
pass on every one of them, and must catch a scan that counts only the
parties exactly at the largest weight as maximal.

The protocol trees are checked against ``data/tree_pinned.json``, the
values of trees built by the label-and-edge walk: node counts exactly,
values within 1e-12 (another numpy may move the last bits of the
optimizer's roots).  Re-record (only when a value is meant to move) with
``PYTHONPATH=src python tests/test_walk_oracle.py``.
"""

import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest

from wdistill import (
    FAILURE,
    ConfigGraph,
    WState,
    build_protocol_tree,
    ev_distribution,
    ev_tree,
    graph_catalog,
    standard_w,
)
from wdistill.core import (
    MAX_EQUAL_RTOL,
    NULL_OUTCOME_PROB,
    InternalConsistencyError,
    _adjacency,
    _members,
    _restrict_edges,
)
from wdistill import evroutine as ev_mod
from wdistill import lpo as lpo_mod
from wdistill.evroutine import _decide, _isolated, _scan, _without, enumerate_ev
from wdistill.lpo import PhaseThreeSolver, _induced, _peel_party, _peel_walk
from wdistill.mc import random_w_state

DATA = Path(__file__).parent / "data" / "tree_pinned.json"
FIXED_PRESETS = ["wedge", "triangle", "I", "I'", "I''", "II", "III-a", "III-b", "III-c", "IV", "V", "VI"]
TREE_CAPS = {"triangle": 200, "IV": 20, "VI": 30, "III-c": 60, "complete:5": 3, "pairs:6": 8}
TREE_EPSILON = 1e-3
FLOAT_TOL = 1e-12


# ---------------------------------------------------------------------------
# the label-and-edge walks


def reference_degrees(labels, edges):
    deg = {l: 0 for l in labels}
    for a, b in edges:
        deg[a] += 1
        deg[b] += 1
    return deg


def reference_neighbors(label, edges):
    return {b if a == label else a for a, b in edges if label in (a, b)}


def reference_select(comps, labels, edges):
    """Next action for an x0 = 0 node, as (tag, party label)."""
    deg = reference_degrees(labels, edges)
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
        if reference_neighbors(l, edges) & max_parties:
            return "measure", l
    return "measure", fallback


def reference_step(comps, labels, tag, party):
    """Children of an isolate or measure step as ``(p, comps, labels)``,
    and the failure mass."""
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
        new[k] = new[imax]
        children.append((pe, tuple(new), labels))
    pv = (1.0 - a) * (1.0 - xk)
    if pv >= NULL_OUTCOME_PROB:
        children.append((pv, tuple(c / (1.0 - xk) for c in comps[:k] + comps[k + 1:]), rest))
    return children, 0.0


def reference_enumerate_ev(comps, labels, edges):
    acc = {}

    def visit(comps, labels, edges, pathp):
        if len(labels) < 2:
            acc[FAILURE] = acc.get(FAILURE, 0.0) + pathp
            return
        tag, party = reference_select(comps, labels, edges)
        if tag == "fail2":
            acc[FAILURE] = acc.get(FAILURE, 0.0) + pathp
            return
        if tag == "terminal":
            acc[labels] = acc.get(labels, 0.0) + pathp
            return
        children, fail = reference_step(comps, labels, tag, party)
        for p, sub, sublab in children:
            subedges = edges if sublab is labels else _restrict_edges(edges, sublab)
            visit(sub, sublab, subedges, pathp * p)
        if fail:
            acc[FAILURE] = acc.get(FAILURE, 0.0) + pathp * fail

    visit(tuple(comps), tuple(labels), frozenset(edges), 1.0)
    return acc


def reference_peel_walk(labels, edges):
    k = min(labels, key=reference_degrees(labels, edges).__getitem__)
    out = [(tuple(l for l in labels if l != k), 0, 1)]

    def walk(exps, labels, edges, v):
        if len(labels) < 2:
            return
        low = min(exps)
        tag, party = reference_select(tuple(0.5 ** (e - low) for e in exps), labels, edges)
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
        walk(*drop, v + 1)

    walk(tuple(0 if l == k else 1 for l in labels), labels, edges, 0)
    return out


# ---------------------------------------------------------------------------
# the single-loop selection and the exponent walk coded as weights


def single_loop_select(comps, adj, live):
    """Next action for an x0 = 0 node, as (tag, position)."""
    floor = max(comps) * (1.0 - MAX_EQUAL_RTOL)
    maxmask = 0
    bit = 1
    for nbrs, c in zip(adj, comps):
        if live & bit:
            if not nbrs & live:
                return ("fail2", None) if live.bit_count() == 2 else ("isolate", bit.bit_length() - 1)
            if c >= floor:
                maxmask |= bit
        bit <<= 1
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


def coded_peel_walk(adj):
    """The peel-off walk's ``(T, e, v)`` paths, each exponent handed to the
    selection rule as the weight 2^-(e - e_min)."""
    n = len(adj)
    full = (1 << n) - 1
    k = _peel_party(adj, full)
    out = [(full & ~(1 << k), 0, 1)]

    def walk(exps, live, v):
        if live.bit_count() < 2:
            return
        low = min(exps)
        tag, j = single_loop_select(tuple(0.5 ** (e - low) for e in exps), adj, live)
        if tag == "terminal":
            out.append((live, low, v))
        if tag in ("terminal", "fail2"):
            return
        drop = (exps[:j] + (math.inf,) + exps[j + 1:], live & ~(1 << j))
        if tag == "isolate":
            walk(*drop, v)
            return
        walk(tuple(e if i == j else e + 1 for i, e in enumerate(exps)), live, v)
        walk(*drop, v + 1)  # vanish

    walk(tuple(0 if i == k else 1 for i in range(n)), full, 0)
    return out


# ---------------------------------------------------------------------------
# the scanning selection rule and the walk on one exponent per position


def scan_decide(maxmask, adj, live):
    """Next action for an x0 = 0 node, given the mask of maximal live
    parties, as (tag, position).

    Order of the rules matters: isolated parties (no live neighbour) are
    dealt with before the all-maximal terminal check, and the measuring
    party is the lowest-position non-maximal party next to a maximal one,
    falling back to the lowest-position non-maximal party.  The weights
    themselves are not read, so any walk that can say which parties are
    maximal shares the rule.
    """
    bit = 1
    for nbrs in adj:
        if not nbrs & live and live & bit:
            return ("fail2", None) if live.bit_count() == 2 else ("isolate", bit.bit_length() - 1)
        bit <<= 1
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


def exponent_peel_walk(adj) -> list[tuple[int, int, int]]:
    """Every path from the peel-off node to a standard W state on T, as
    ``(T, e, v)`` with T a mask of live positions: the path has
    probability |T|/n a^e (1 - a)^v.

    Outcome 2 reaches S minus k at (0, 1).  After outcome 1 every
    equal-or-vanish ratio is exactly alpha, so each party's unnormalized
    weight is a^e (1 - a)^v with its own e and a shared v: equalizing
    party j raises every other e by one, vanishing removes j and raises
    v, and isolating removes the party (after the last maximal one the
    rest are maximal at e + 1).  The maximal parties are the live ones at
    the least exponent, the mask ``scan_decide`` acts on, so no alpha is
    needed; a removed party's exponent is infinite.
    """
    n = len(adj)
    full = (1 << n) - 1
    k = _peel_party(adj, full)
    out = [(full & ~(1 << k), 0, 1)]

    def walk(exps, live, v):
        if live.bit_count() < 2:
            return
        low = min(exps)
        maxmask = 0
        bit = 1
        for e in exps:
            if e == low:
                maxmask |= bit
            bit <<= 1
        tag, j = scan_decide(maxmask, adj, live)
        if tag == "terminal":
            out.append((live, low, v))
        if tag in ("terminal", "fail2"):
            return
        drop = (exps[:j] + (math.inf,) + exps[j + 1:], live & ~(1 << j))
        if tag == "isolate":
            walk(*drop, v)
            return
        walk(tuple(e if i == j else e + 1 for i, e in enumerate(exps)), live, v)
        walk(*drop, v + 1)  # vanish

    walk(tuple(0 if i == k else 1 for i in range(n)), full, 0)
    return out


def highest_lagging_decide(maxmask, adj, live, isolated):
    """A planted fault: :func:`_decide`, but a measuring step picks the
    highest lagging position."""
    tag, j = _decide(maxmask, adj, live, isolated)
    if tag == "measure":
        j = (live & ~maxmask).bit_length() - 1
    return tag, j


def never_adds_isolated(adj, live, isolated, j):
    """A planted fault: :func:`_without`, but a neighbour of j left with
    no live neighbour is never added to the isolated mask."""
    bit = 1 << j
    return live & ~bit, isolated & ~bit


def untied_scan(comps, live):
    """A planted fault: :func:`_scan` reporting every maximal party as
    exactly tied, so that :func:`enumerate_ev` reads the equal child of a
    last lagging party as the terminal on every live party, and the
    removal child of any step as the terminal on the others, whenever
    they are only within MAX_EQUAL_RTOL of the largest weight."""
    top, maxmask, _ = _scan(comps, live)
    return top, maxmask, maxmask


def plant_maximal_isolate_scan(monkeypatch):
    """Plants a fault: :func:`_scan` reporting every maximal party as
    exactly tied at a node with an isolated party, which it reads with
    :func:`_isolated` on the neighbour masks of the walk (caught from the
    walk's call for its root mask), so that :func:`enumerate_ev` ends an
    isolate step at the terminal on the others when they are only within
    MAX_EQUAL_RTOL of the largest weight; the measure steps, which run
    only at nodes without one, keep their guard."""
    walk = {}

    def isolated(adj, live):
        walk["adj"] = adj
        return _isolated(adj, live)

    def maximal_isolate_scan(comps, live):
        top, maxmask, tied = _scan(comps, live)
        return top, maxmask, maxmask if _isolated(walk["adj"], live) else tied

    monkeypatch.setattr(ev_mod, "_isolated", isolated)
    monkeypatch.setattr(ev_mod, "_scan", maximal_isolate_scan)


def exact_maximal_scan(comps, live):
    """A planted fault: :func:`_scan` ignoring MAX_EQUAL_RTOL, so that only
    the parties exactly at the largest weight count as maximal and the
    walk measures a near-tied one."""
    top, _, tied = _scan(comps, live)
    return top, tied, tied


def skipped_tie_equalized(comps, k, imax, a, pe):
    """A planted fault: :func:`wdistill.evroutine._equalized` without the
    forced exact tie, so that party k stays lagging at the same ratio in
    the equal child and the walk measures it again and again."""
    return tuple(a * c / pe for c in comps)


def top_ranked_induced(adj, live):
    """A planted fault: :func:`_induced` with the live bits ranked from the
    highest position down."""
    kept = [i for i in range(len(adj)) if live >> i & 1][::-1]
    rank = {i: r for r, i in enumerate(kept)}
    return tuple(sum(1 << rank[j] for j in kept if adj[i] >> j & 1) for i in kept)


# ---------------------------------------------------------------------------
# graphs and states


def family_graph(family, n):
    labels = tuple("ABCDEFGHIJKLMN"[:n])
    if family == "cycle":
        return ConfigGraph(labels, [(labels[i], labels[(i + 1) % n]) for i in range(n)])
    if family == "path":
        return ConfigGraph(labels, [(labels[i], labels[i + 1]) for i in range(n - 1)])
    return graph_catalog(family, n)


def oracle_graphs():
    graphs = {name: graph_catalog(name) for name in FIXED_PRESETS}
    for family in ("complete", "cycle", "path"):
        for n in range(3, 11):
            graphs[f"{family}:{n}"] = family_graph(family, n)
    for n in (4, 6, 8, 10):
        graphs[f"pairs:{n}"] = family_graph("pairs", n)
    return graphs


def ev_states(g, seed):
    """Seeded random x0 = 0 states on ``g``, with a zero weight, ties and
    a uniform state among them."""
    rng = np.random.default_rng(seed)
    states = [tuple(float(c) for c in rng.dirichlet(np.ones(g.n))) for _ in range(12)]
    states.append(tuple([1.0 / g.n] * g.n))
    states.append(tuple([1.0 / (g.n - 1)] * (g.n - 1) + [0.0]))
    heavy = [0.5 / (g.n - 2)] * g.n
    heavy[0] = heavy[-1] = 0.25
    states.append(tuple(heavy))
    return [WState(c, g.labels).components for c in states]


def named_graph(name):
    preset, _, size = name.partition(":")
    return graph_catalog(preset, int(size) if size else None)


def tree_states(name):
    """The standard W state, one x0 > 0 and one x0 = 0 random state."""
    g = named_graph(name)
    rng = np.random.default_rng(sum(map(ord, name)))
    return {
        "W": standard_w(g.labels),
        "x0": WState(random_w_state(rng, g.n).components, g.labels),
        "x0=0": WState(random_w_state(rng, g.n, x0_zero=True).components, g.labels),
    }


def tree_values(name, state):
    g = named_graph(name)
    tree = build_protocol_tree(state, g, TREE_EPSILON, TREE_CAPS[name], solver=PhaseThreeSolver())
    return {
        "analytic_value": tree.analytic_value(),
        "success_lower_bound": tree.analytic_value(credit_truncation=False),
        "node_count": tree.node_count(),
    }


# ---------------------------------------------------------------------------
# tests

ORACLE_GRAPHS = oracle_graphs()


@pytest.mark.parametrize("name", list(ORACLE_GRAPHS))
def test_enumerate_ev_matches_the_label_walk(name):
    g = ORACLE_GRAPHS[name]
    for comps in ev_states(g, sum(map(ord, name))):
        walked = enumerate_ev(comps, _adjacency(g.labels, g.edges), (1 << g.n) - 1)
        got = {term if term is FAILURE else _members(g.labels, term): p for term, p in walked.items()}
        want = reference_enumerate_ev(comps, g.labels, g.edges)
        assert list(got.items()) == list(want.items()), (name, comps)


@pytest.mark.parametrize("name", list(ORACLE_GRAPHS))
def test_peel_walk_matches_the_label_walk(name):
    g = ORACLE_GRAPHS[name]
    # the whole graph and every subset its recursion solves
    solver = PhaseThreeSolver()
    solver.p_lpo(standard_w(g.labels), g)
    subsets = [(g.labels, _adjacency(g.labels, g.edges)), *(key for key in solver.audit() if len(key[0]) > 2)]
    for labels, masks in subsets:
        walked = [(_members(labels, live), e, v) for live, e, v in _peel_walk(masks)]
        assert walked == reference_peel_walk(labels, _restrict_edges(g.edges, labels)), (name, labels)


def random_select_input(rng):
    """Weights, neighbour masks and a live mask: some parties isolated,
    some positions dead at weight 0.0, and weights tied with the largest
    one up to and just past MAX_EQUAL_RTOL."""
    n = int(rng.integers(2, 9))
    adj = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.4:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    live = int(rng.integers(1, 1 << n))
    comps = [float(rng.random()) if live >> i & 1 else 0.0 for i in range(n)]
    top = max(comps)
    for i in range(n):
        if live >> i & 1 and rng.random() < 0.4:
            comps[i] = top * (1.0 - float(rng.choice([0.0, 0.5, 1.0, 1.5, 2.0])) * MAX_EQUAL_RTOL)
    return tuple(comps), tuple(adj), live


NEAR_TIES = (0.0, 0.5, 0.999, 1.0, 1.001, 1.5, 2.0)   # in units of MAX_EQUAL_RTOL


def connected(adj):
    """Whether the graph of the neighbour masks ``adj`` is connected."""
    reached = frontier = 1
    while frontier:
        bit = frontier & -frontier
        frontier ^= bit
        new = adj[bit.bit_length() - 1] & ~reached
        reached |= new
        frontier |= new
    return reached == (1 << len(adj)) - 1


def near_tie_inputs(seed, count):
    """Seeded x0 = 0 states on random graphs with n = 3 to 7, shaped like
    ``random_select_input``: about half of the parties lie below the
    largest weight by a multiple of MAX_EQUAL_RTOL from NEAR_TIES, so
    that the walks meet last lagging parties beside exact ties, near ties
    on both sides of the tolerance and distinct weights.  Weights are
    normalized to sum 1, which keeps exact ties exact."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(3, 8))
        adj = random_masks(rng, n)
        comps = [float(rng.random()) for _ in range(n)]
        top = max(comps)
        for i in range(n):
            if rng.random() < 0.5:
                comps[i] = top * (1.0 - float(rng.choice(NEAR_TIES)) * MAX_EQUAL_RTOL)
        total = sum(comps)
        yield tuple(c / total for c in comps), adj


def partial_near_tie_inputs(seed, count):
    """``near_tie_inputs`` on a seeded random live mask of at least two
    parties, as ``(comps, adj, live)``: the weights outside the mask are
    0.0 and the rest are normalized to sum 1 again, as on the walks that
    warm ``p_lpo`` runs after phase I.  A draw of fewer than two parties
    is skipped, so about four in five of the ``count`` inputs are kept."""
    rng = np.random.default_rng(seed + 1)
    for comps, adj in near_tie_inputs(seed, count):
        live = int(rng.integers(1, 1 << len(adj)))
        if live.bit_count() < 2:
            continue
        total = sum(c for i, c in enumerate(comps) if live >> i & 1)
        yield tuple(c / total if live >> i & 1 else 0.0 for i, c in enumerate(comps)), adj, live


def near_tie_mismatch(count=4_000):
    """The first near-tie input on which :func:`enumerate_ev` and
    ``reference_enumerate_ev`` differ, key order included, or None; also
    how many of the live subgraphs met were connected and how many were
    not.  The inputs are ``count`` full masks of seed 26 and the partial
    masks of seed 30; the reference walks the live labels, their weights
    and their restricted edges."""
    shapes = {True: 0, False: 0}
    full = ((comps, adj, (1 << len(adj)) - 1) for comps, adj in near_tie_inputs(26, count))
    for comps, adj, live in itertools.chain(full, partial_near_tie_inputs(30, count)):
        labels = _members("ABCDEFG", live)
        n = len(labels)
        sub = _induced(adj, live)
        edges = {(labels[i], labels[j]) for i in range(n) for j in range(i + 1, n) if sub[i] >> j & 1}
        walked = enumerate_ev(comps, adj, live)
        got = [(term if term is FAILURE else _members("ABCDEFG", term), p) for term, p in walked.items()]
        want = reference_enumerate_ev(_members(comps, live), labels, edges)
        if got != list(want.items()):
            return (comps, adj, live), shapes
        shapes[connected(sub)] += 1
    return None, shapes


def test_enumerate_ev_matches_the_label_walk_on_near_ties():
    mismatch, shapes = near_tie_mismatch()
    assert mismatch is None, mismatch
    assert min(shapes.values()) > 500, shapes


def test_the_near_tie_check_catches_a_shortcut_without_its_tie_guard(monkeypatch):
    monkeypatch.setattr(ev_mod, "_scan", untied_scan)
    assert near_tie_mismatch()[0] is not None


def test_the_near_tie_check_catches_an_isolate_shortcut_on_maximal_parties(monkeypatch):
    plant_maximal_isolate_scan(monkeypatch)
    assert near_tie_mismatch()[0] is not None


def test_the_near_tie_check_catches_a_planted_isolated_update_fault(monkeypatch):
    monkeypatch.setattr(ev_mod, "_without", never_adds_isolated)
    assert near_tie_mismatch()[0] is not None


def depth_errors():
    """How many of the wedge's ``ev_states`` make :func:`enumerate_ev`
    raise, each with the depth check's message."""
    g = ORACLE_GRAPHS["wedge"]
    adj = _adjacency(g.labels, g.edges)
    raised = 0
    for comps in ev_states(g, sum(map(ord, "wedge"))):
        try:
            enumerate_ev(comps, adj, (1 << g.n) - 1)
        except InternalConsistencyError as exc:
            assert str(exc) == "equal-or-vanish recursion too deep"
            raised += 1
    return raised


def test_the_depth_check_stops_an_equal_child_that_stays_lagging(monkeypatch):
    assert depth_errors() == 0
    monkeypatch.setattr(ev_mod, "_equalized", skipped_tie_equalized)
    assert depth_errors() == 13   # of 15: the uniform state and one more never measure


def near_tie_states(count):
    """The first ``count`` seed-26 ``near_tie_inputs`` as states on their
    graphs, the parties labelled A, B, C, ... by position."""
    for comps, adj in near_tie_inputs(26, count):
        n = len(adj)
        labels = "ABCDEFG"[:n]
        edges = [(labels[i], labels[j]) for i in range(n) for j in range(i + 1, n) if adj[i] >> j & 1]
        yield WState(comps, labels), ConfigGraph(labels, edges)


def support_errors(count):
    """How many of ``near_tie_states(count)`` make :func:`ev_distribution`
    raise, each with the support check's message."""
    raised = 0
    for state, g in near_tie_states(count):
        try:
            ev_distribution(state, g)
        except InternalConsistencyError as exc:
            assert "adjacent to the maximal position" in str(exc), exc
            raised += 1
    return raised


def test_ev_tree_leaves_are_the_ev_distribution_on_near_ties():
    # parties at the edge of MAX_EQUAL_RTOL may drift out of it as the
    # walk rescales; the tree builder takes the same steps as the walk
    for state, g in near_tie_states(4_000):
        got = ev_tree(state, g).leaf_probabilities()
        want = {t.label(): p for t, p in ev_distribution(state, g).items()}
        assert got.keys() == want.keys(), state
        for label, p in want.items():
            assert got[label] == pytest.approx(p, abs=1e-14), (state, label)


def test_the_support_check_catches_a_scan_without_its_tolerance(monkeypatch):
    assert support_errors(1_000) == 0
    monkeypatch.setattr(ev_mod, "_scan", exact_maximal_scan)
    assert support_errors(1_000) > 0


def test_decide_matches_the_scanning_decide():
    rng = np.random.default_rng(24)
    tags = set()
    for _ in range(20_000):
        comps, adj, live = random_select_input(rng)
        floor = max(comps) * (1.0 - MAX_EQUAL_RTOL)
        maxmask = sum(1 << i for i, c in enumerate(comps) if c >= floor) & live
        got = _decide(maxmask, adj, live, _isolated(adj, live))
        assert got == scan_decide(maxmask, adj, live), (maxmask, adj, live)
        tags.add(got[0])
    assert tags == {"fail2", "isolate", "terminal", "measure"}


def test_the_isolated_update_matches_a_fresh_scan():
    rng = np.random.default_rng(21)
    for n in [1, 2, 3, 4, 5, 6, 7, 7]:
        adj = random_masks(rng, n)
        for live in range(1 << n):
            isolated = _isolated(adj, live)
            assert isolated == sum(1 << i for i in range(n) if live >> i & 1 and not adj[i] & live), (adj, live)
            for j in range(n):
                if live >> j & 1:
                    rest = live & ~(1 << j)
                    assert _without(adj, live, isolated, j) == (rest, _isolated(adj, rest)), (adj, live, j)


def test_select_matches_the_single_loop_select():
    rng = np.random.default_rng(7)
    tags = set()
    for _ in range(20_000):
        comps, adj, live = random_select_input(rng)
        got = _decide(_scan(comps, live)[1], adj, live, _isolated(adj, live))
        assert got == single_loop_select(comps, adj, live), (comps, adj, live)
        tags.add(got[0])
    assert tags == {"fail2", "isolate", "terminal", "measure"}


def labelled_graph_masks(n):
    """The neighbour masks of every graph on n labelled parties."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for chosen in range(1 << len(pairs)):
        adj = [0] * n
        for b, (i, j) in enumerate(pairs):
            if chosen >> b & 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
        yield tuple(adj)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_peel_walk_matches_the_coded_walk_on_every_small_graph(n):
    for adj in labelled_graph_masks(n):
        assert _peel_walk(adj) == coded_peel_walk(adj), adj


@pytest.mark.parametrize(
    "name", ["complete:5", "complete:6", "complete:7", "cycle:6", "cycle:7", "cycle:8",
             "path:6", "path:7", "path:8", "pairs:8", "pairs:10", "pairs:12"],
)
def test_peel_walk_matches_the_coded_walk_on_the_scaling_graphs(name):
    family, _, n = name.partition(":")
    g = family_graph(family, int(n))
    w = standard_w(g.labels)
    solver = PhaseThreeSolver()
    solver.p_lpo(w, g)
    shapes = [adj for adj in solver._memo if len(adj) > 2]
    assert _adjacency(w.labels, g.edges) in shapes
    for adj in shapes:
        assert _peel_walk(adj) == coded_peel_walk(adj), (name, adj)


def random_masks(rng, n):
    """The neighbour masks of a random graph on n parties, each edge drawn
    with one probability for the whole graph."""
    density = float(rng.choice([0.15, 0.3, 0.5, 0.7, 0.9]))
    adj = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return tuple(adj)


def exponent_walk_mismatch():
    """The first of 2,000 seeded random graphs on 6 to 9 parties on which
    :func:`_peel_walk` and ``exponent_peel_walk`` differ, or None."""
    rng = np.random.default_rng(20)
    for _ in range(2_000):
        adj = random_masks(rng, int(rng.integers(6, 10)))
        if lpo_mod._peel_walk(adj) != exponent_peel_walk(adj):
            return adj
    return None


def test_peel_walk_matches_the_exponent_walk_on_random_graphs():
    assert exponent_walk_mismatch() is None


def test_the_exponent_walk_catches_a_planted_isolated_update_fault(monkeypatch):
    monkeypatch.setattr(lpo_mod, "_without", never_adds_isolated)
    assert exponent_walk_mismatch() is not None


@pytest.mark.parametrize("name", ["cycle:12", "pairs:14"])
def test_peel_walk_matches_the_exponent_walk_on_every_solved_shape(name):
    family, _, n = name.partition(":")
    g = family_graph(family, int(n))
    w = standard_w(g.labels)
    solver = PhaseThreeSolver()
    solver.p_lpo(w, g)
    shapes = [adj for adj in solver._memo if len(adj) > 2]
    assert _adjacency(w.labels, g.edges) in shapes
    for adj in shapes:
        assert _peel_walk(adj) == exponent_peel_walk(adj), (name, adj)


def coded_walk_mismatch(max_n):
    """The first graph on at most ``max_n`` parties on which
    :func:`_peel_walk` and ``coded_peel_walk`` differ, or None."""
    for n in range(3, max_n + 1):
        for adj in labelled_graph_masks(n):
            if _peel_walk(adj) != coded_peel_walk(adj):
                return adj
    return None


def test_the_coded_walk_catches_a_planted_selection_fault(monkeypatch):
    assert coded_walk_mismatch(5) is None
    monkeypatch.setattr(lpo_mod, "_decide", highest_lagging_decide)
    assert coded_walk_mismatch(5) is not None


def induced_mismatch():
    """The first ``(adj, live)`` on which ``wdistill.lpo._induced`` differs
    from :func:`_adjacency` on the live labels and their restricted edges,
    over every live mask of seeded random graphs on at most 7 parties, or
    None."""
    rng = np.random.default_rng(21)
    for n in [1, 2, 3, 4, 5, 6, 7, 7]:
        labels = tuple("ABCDEFG"[:n])
        adj = random_masks(rng, n)
        edges = {(labels[i], labels[j]) for i in range(n) for j in range(i + 1, n) if adj[i] >> j & 1}
        for live in range(1 << n):
            members = _members(labels, live)
            if lpo_mod._induced(adj, live) != _adjacency(members, _restrict_edges(edges, members)):
                return adj, live
    return None


def test_induced_matches_the_restricted_edges():
    assert induced_mismatch() is None
    adj = _adjacency("ABCD", {("A", "B"), ("B", "C"), ("A", "D")})
    assert _induced(adj, 0b1111) == adj
    assert _induced(adj, 0b0100) == (0,)
    assert _induced(adj, 0) == ()
    assert _induced(adj, 0b1101) == (0b100, 0, 0b001)


def test_the_induced_check_catches_a_planted_ranking_fault(monkeypatch):
    monkeypatch.setattr(lpo_mod, "_induced", top_ranked_induced)
    assert induced_mismatch() is not None


@pytest.fixture(scope="module")
def pinned():
    return json.loads(DATA.read_text())


def test_the_pinned_trees_are_the_tree_list(pinned):
    assert {name: sorted(cases) for name, cases in pinned.items()} == {
        name: sorted(tree_states(name)) for name in TREE_CAPS
    }


@pytest.mark.parametrize("name", list(TREE_CAPS))
def test_protocol_tree_matches_the_label_walk(pinned, name):
    for tag, state in tree_states(name).items():
        got, want = tree_values(name, state), pinned[name][tag]
        assert got["node_count"] == want["node_count"], (name, tag)
        for key in ("analytic_value", "success_lower_bound"):
            assert math.isclose(got[key], want[key], rel_tol=0.0, abs_tol=FLOAT_TOL), (name, tag, key)


if __name__ == "__main__":
    recorded = {name: {tag: tree_values(name, s) for tag, s in tree_states(name).items()} for name in TREE_CAPS}
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps(recorded, indent=1) + "\n")
    print(f"recorded {sum(map(len, recorded.values()))} trees in {DATA}")
