"""Closed-form success-probability bounds and entanglement monotones.

Each bound takes a state plus a graph of the matching configuration
family, assigns structural roles to the parties (dominant party, its
unconnected or edge-complementary partner, and so on) and evaluates one
fixed formula.  All values upper-bound what any local protocol can do and
are met by the least-party-out protocol whenever x0 = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import (
    ConfigGraph,
    GraphMatchError,
    InvalidInputError,
    MAX_EQUAL_RTOL,
    PreconditionError,
    WState,
    _FIXED_PRESETS,
    _require_weight,
    _same_parties,
    graph_catalog,
)


# Values quoted from the companion separable-operations analysis; they are
# cited reference numbers, not reproduced by this engine.
SEP_REFERENCES = {
    "paw-W4": {
        "value": 5.0 / 6.0,
        "source": "cited reference constant (separable operations), not computed here",
    },
    "disjoint-pairs": {
        "value": "sqrt(1/N)",
        "source": "cited reference constant (separable operations), not computed here",
    },
}


@dataclass(frozen=True)
class BoundReport:
    bound_name: str
    value: float
    role_assignment: dict
    applicable: bool

    def to_json(self) -> dict:
        return {
            "bound": self.bound_name,
            "value": self.value,
            "roles": dict(self.role_assignment),
            "applicable": self.applicable,
        }


def _weights(state: WState) -> dict:
    """The state's weights by label, read once per bound."""
    return dict(zip(state.labels, state.components))


def _by_component(x: dict, candidates) -> str:
    """Candidate with the largest weight in ``x``, lowest index on ties."""
    # candidates come in label order: max keeps the first of equal keys
    return max(candidates, key=x.__getitem__)


# ---------------------------------------------------------------------------
# four-party configurations

# The classes are the four-party presets of core._FIXED_PRESETS, their one
# definition.  Every four-node graph with an edge, up to relabelling, has its
# own sorted degree sequence, so the sequence names its class.
_FOUR_PARTY_PRESETS = {
    graph_catalog(name)._degree_sequence: name
    for name, (size, _) in _FIXED_PRESETS.items()
    if size == 4
}
_UNCONNECTED_PAIRS = ("III-a", "III-b", "III-c")  # every node has an unconnected partner


def _four_party_preset(graph: ConfigGraph) -> str | None:
    """Name of the catalog preset a four-node graph is a relabelling of,
    or None (other sizes and the empty graph)."""
    if graph.n != 4:
        return None
    return _FOUR_PARTY_PRESETS.get(graph._degree_sequence)


def tau(state: WState, graph: ConfigGraph) -> BoundReport:
    """Monotone bounding the four-party configurations in which every node
    has an unconnected partner:

        tau = 2 x_p + 2 x_p' - 2 x_p x_p' / x_n1 + (2/3) x_p x_p' x_n1' / x_n1^2

    n1 is a dominant party, n1' its largest unconnected partner, p and p'
    the other two (when n1 has two unconnected partners, p' is the one that
    is not n1').
    """
    _same_parties(state, graph)
    if _four_party_preset(graph) not in _UNCONNECTED_PAIRS:
        raise GraphMatchError("graph is not an unconnected-pairs configuration")
    _require_weight(state)
    return _tau(state, graph)


def _tau(state: WState, graph: ConfigGraph) -> BoundReport:
    """:func:`tau` on inputs that have passed its checks."""
    x = _weights(state)
    labels = state.labels
    n1 = _by_component(x, labels)
    nbrs = graph.neighbors(n1)
    n1p = _by_component(x, [l for l in labels if l != n1 and l not in nbrs])
    p, pp = (l for l in labels if l not in (n1, n1p))
    xn1 = x[n1]
    xn1p = x[n1p]
    xp = x[p]
    xpp = x[pp]
    value = 2.0 * xp + 2.0 * xpp - 2.0 * xp * xpp / xn1 + (2.0 / 3.0) * xp * xpp * xn1p / (xn1 * xn1)
    roles = {"n1": n1, "n1'": n1p, "p": p, "p'": pp}
    return BoundReport("tau", value, roles, True)


# ---------------------------------------------------------------------------
# the five-edge configuration


def gamma(state: WState, graph: ConfigGraph) -> BoundReport:
    """Monotone for the five-edge configuration (complete minus one edge).

    n1 is a dominant party, n1' the largest-component party whose node
    degree differs from n1's, e2 and e3 the remaining degree-2 and
    degree-3 parties.  The formula branches on n1's own degree.
    """
    _same_parties(state, graph)
    if _four_party_preset(graph) != "IV":
        raise GraphMatchError("graph is not the five-edge configuration")
    _require_weight(state)
    return _gamma(state, graph)


def _gamma(state: WState, graph: ConfigGraph) -> BoundReport:
    """:func:`gamma` on inputs that have passed its checks."""
    x = _weights(state)
    labels = state.labels
    n1 = _by_component(x, labels)
    d1 = graph.degree(n1)
    n1p = _by_component(x, [l for l in labels if l != n1 and graph.degree(l) != d1])
    rest = [l for l in labels if l not in (n1, n1p)]
    e2 = next(l for l in rest if graph.degree(l) == 2)
    e3 = next(l for l in rest if graph.degree(l) == 3)
    xn1 = x[n1]
    xn1p = x[n1p]
    xe2 = x[e2]
    xe3 = x[e3]
    if d1 == 3:
        value = (
            2.0 * xe3
            + (xe2 + xn1p) * (2.0 - xe3 / xn1)
            - 2.0 * xn1p * xe2 / xn1
            + (4.0 / 3.0) * xe2 * xe3 * xn1p / (xn1 * xn1)
        )
    else:
        value = (
            2.0 * xn1p
            + 2.0 * xe3
            - xn1p * xe3 / xn1
            + xe2 * xe3 * xn1p / (3.0 * xn1 * xn1)
        )
    roles = {"n1": n1, "n1'": n1p, "e2": e2, "e3": e3}
    return BoundReport("gamma", value, roles, True)


# ---------------------------------------------------------------------------
# star-family, triangle-plus-spectator and complete configurations


_STAR_TRIANGLE_COMPLETE = ("I", "I'", "I''", "II", "V")


def bound_config(state: WState, graph: ConfigGraph) -> BoundReport:
    """Dispatch the named closed-form bounds for the star family (one, two
    or three edges sharing a center), the triangle-plus-spectator graph and
    the complete graph.

    Star-family formulas require the star center to carry the maximal
    component; otherwise the report is flagged not applicable and carries
    the fallback bound 2 x_center instead.
    """
    _same_parties(state, graph)
    kind = _four_party_preset(graph)
    if kind not in _STAR_TRIANGLE_COMPLETE:
        raise GraphMatchError("graph is outside the star/triangle/complete families")
    _require_weight(state)
    return _bound_config(state, graph, kind)


def _bound_config(state: WState, graph: ConfigGraph, kind: str) -> BoundReport:
    """:func:`bound_config` on inputs that have passed its checks, with
    ``kind`` the graph's four-party class."""
    x = _weights(state)
    if kind in ("I", "I'", "I''"):
        if kind == "I":
            u, v = next(iter(graph.edges))
            center = u if x[u] >= x[v] else v
            others = [v if center == u else u]
        else:
            center = max(graph.labels, key=graph.degree)
            # in label order: the sort is stable, so tied components keep it
            neighbors = [l for l in graph.labels if graph.has_edge(center, l)]
            others = sorted(neighbors, key=x.__getitem__, reverse=True)
        xa = x[center]
        applicable = xa >= state.max_component() * (1.0 - MAX_EQUAL_RTOL)
        roles = {"A": center}
        for name, l in zip("BCD", others):
            roles[name] = l
        if not applicable:
            return BoundReport(kind, 2.0 * xa, roles, False)
        if kind == "I":
            value = 2.0 * x[others[0]]
        elif kind == "I'":
            xb, xc = (x[l] for l in others)
            value = 2.0 * xa - 2.0 * (xa - xb) * (xa - xc) / xa
        else:
            xb, xc, xd = (x[l] for l in others)
            value = 2.0 * xa - 2.0 * (xa - xb) * (xa - xc) * (xa - xd) / (xa * xa)
        return BoundReport(kind, value, roles, True)

    if kind == "II":
        spectator = next(l for l in graph.labels if graph.degree(l) == 0)
        members = sorted(
            (l for l in graph.labels if l != spectator), key=x.__getitem__, reverse=True
        )
        xa, xb, xc = (x[l] for l in members)
        xd = x[spectator]
        value = 1.0 - state.x0 - xd - ((xa - xb) * (xa - xc) / xa if xa > 0.0 else 0.0)
        roles = {"A": members[0], "B": members[1], "C": members[2], "D": spectator}
        return BoundReport("II", value, roles, True)

    members = sorted(graph.labels, key=x.__getitem__, reverse=True)
    xa, xb, xc, xd = (x[l] for l in members)
    value = 1.0 - state.x0 - (xa - xb) * (xa - xc) * (xa - xd) / (xa * xa)
    roles = dict(zip("ABCD", members))
    return BoundReport("V", value, roles, True)


# ---------------------------------------------------------------------------
# bounds for reaching the standard W state


def two_party_schmidt_weights(x0: float, x1: float, x2: float) -> tuple[float, float]:
    """Schmidt weights (descending) of sqrt(x0)|00> + sqrt(x1)|10> +
    sqrt(x2)|01>.  Weights that are negative, do not sum to one or are not
    finite raise :class:`InvalidInputError`; a NaN fails both tests."""
    if not (min(x0, x1, x2) >= -1e-12 and abs(x0 + x1 + x2 - 1.0) <= 1e-9):
        raise InvalidInputError("weights must be nonnegative and sum to one")
    disc = math.sqrt(max(0.0, 1.0 - 4.0 * x1 * x2))
    return (1.0 + disc) / 2.0, (1.0 - disc) / 2.0


def pair_distillation_bound(n: int, t: float) -> float:
    """Bound for distilling an EPR pair between party 1 and anyone else
    from the uniform state (t, ..., t): 1 - sqrt(1 - 4 (N-1) t^2).

    Merging parties 2..N gives a two-party pure state whose smaller
    Schmidt weight caps the EPR probability at twice its value.  It is
    evaluated as 4 (N-1) t^2 / (1 + sqrt(1 - 4 (N-1) t^2)), which keeps
    full precision when 4 (N-1) t^2 is small, as at t = 1/N for large N.
    """
    if n < 2:
        raise PreconditionError("need at least two parties")
    if not (0.0 <= t <= 1.0 / n + 1e-15):
        raise PreconditionError(f"t must lie in [0, 1/{n}]")
    s = 4.0 * (n - 1) * t * t
    return s / (1.0 + math.sqrt(max(0.0, 1.0 - s)))


def w_target_bound(n: int, t: float) -> float:
    """Bound for converting the uniform state (t, ..., t) into the standard
    W state: (N/2) (1 - sqrt(1 - 4 (N-1) t^2)), strictly below N t on the
    open interval."""
    return n / 2.0 * pair_distillation_bound(n, t)


# ---------------------------------------------------------------------------
# six-party disjoint pairs


def tau6(state: WState) -> float:
    """Protocol value for a sorted six-party x0 = 0 state against three
    disjoint target pairs (1,2), (3,4), (5,6):

        (1 - x2/x1) tau(x3, x4, x5, x6) + 2 x2 + (2/3) x2 x3 x4 / x1^2
            + (2/3) x2 x5 x6 / x1^2 - (2/15) x2 x3 x4 x5 x6 / x1^4

    tau is the four-party monotone on the pairs (3,4), (5,6).  This is the
    sum over the equal-or-vanish terminals of their weight times the
    standard-W value on the surviving pairs (1, 2/3 or 8/15 for one, two
    or three pairs), so it is 8/15 at the uniform state.  At x3 = 0 only
    the first pair holds weight, and the value is 2 x2.
    """
    if state.n != 6:
        raise PreconditionError("needs exactly six parties")
    if state.x0 > 1e-9:
        raise PreconditionError("needs an x0 = 0 state")
    x = state.components
    if any(x[i] < x[i + 1] for i in range(5)):
        raise PreconditionError("components must be sorted in descending order")
    x1, x2, x3, x4, x5, x6 = x
    if x3 == 0.0:
        # each term divided by x3 carries x4 <= x3, so only 2 x2 is left
        return 2.0 * x2
    return (
        2.0 * (x2 + x4 + x6 - x2 * x4 / x1 - x2 * x6 / x1 - x4 * x6 / x3)
        + 2.0 * x2 * x4 * x6 / (x1 * x3)
        + 2.0 * x4 * x5 * x6 / (3.0 * x3 * x3)
        + 2.0 * x2 * x3 * x4 / (3.0 * x1 * x1)
        + 2.0 * x2 * x5 * x6 / (3.0 * x1 * x1)
        - 2.0 * x2 * x4 * x5 * x6 / (3.0 * x1 * x3 * x3)
        - 2.0 * x2 * x3 * x4 * x5 * x6 / (15.0 * x1 ** 4)
    )


def pairs_comparison(n_pairs: int) -> tuple[float, float]:
    """Closed forms for N disjoint pairs on 2N parties: the
    subset-averaging baseline reaches 2/(2N-1) while separable operations
    reach sqrt(1/N).  The protocol itself reaches the larger
    prod_{k=2..N} (2k-2)/(2k-1), which equals 2/(2N-1) only for N = 2."""
    if n_pairs < 2:
        raise PreconditionError("need at least two pairs")
    return 2.0 / (2.0 * n_pairs - 1.0), math.sqrt(1.0 / n_pairs)


# ---------------------------------------------------------------------------
# bound lookup for reports


def _pad_to_four(state: WState, graph: ConfigGraph) -> tuple[WState, ConfigGraph]:
    """``state`` and ``graph`` with zero-weight spectators added up to four
    parties.  The padded graph depends only on the graph and the state's
    label order, so it is built once per order and kept on the graph."""
    missing = 4 - state.n
    key = ("padded", state.labels)
    padded = graph._kept.get(key)
    if padded is None:
        extra = []
        i = 0
        while len(extra) < missing:
            cand = f"_z{i}"
            if cand not in state.labels:
                extra.append(cand)
            i += 1
        padded = graph._kept[key] = ConfigGraph(state.labels + tuple(extra), graph.edges)
    return WState(state.components + (0.0,) * missing, padded.labels), padded


def resolve_bound(state: WState, graph: ConfigGraph) -> BoundReport | None:
    """Best known closed-form bound for (state, graph), or None.

    Two- and three-party inputs are padded with zero-weight spectators so
    the four-party formulas apply.  Every formula divides by a dominant
    weight, so a state with no weight on any party gets None.  The paw
    graph has no proven bound; for the standard W state the cited
    separable-operations value 5/6 is reported as a reference.
    """
    _same_parties(state, graph)
    if state.n > 4 or state.max_component() == 0.0:
        return None
    work_state, work_graph = (state, graph) if state.n == 4 else _pad_to_four(state, graph)
    # the checks of tau, gamma and bound_config hold from here: the parties
    # match, the class is read once and the state carries weight
    kind = _four_party_preset(work_graph)
    if kind in _UNCONNECTED_PAIRS:
        return _tau(work_state, work_graph)
    if kind == "IV":
        return _gamma(work_state, work_graph)
    if kind in _STAR_TRIANGLE_COMPLETE:
        return _bound_config(work_state, work_graph, kind)
    if kind == "VI":
        uniform = all(abs(c - 0.25) < 1e-9 for c in work_state.components)
        if uniform and abs(work_state.x0) < 1e-9:
            return BoundReport(
                "SEP reference (paw graph)",
                SEP_REFERENCES["paw-W4"]["value"],
                {},
                True,
            )
    return None
