"""Component calculus for W-class qubit states.

An N-party W-class state is stored as the vector of nonnegative weights
(x_1, ..., x_N), one weight per party.  The residual weight
x0 = 1 - sum(x_i) is not stored as a field: each state works it out once,
from the sum its constructor already checks, and keeps it beside the
weights.  Binary local measurements in upper-triangular Kraus form act on
this vector through a closed-form update, and everything else in the
package is built on that update.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

COMPONENT_SUM_TOL = 1e-12      # sum(x_i) may exceed 1 by at most this
ZERO_COMPONENT = 1e-14         # below this a party counts as disentangled
COMPLETENESS_TOL = 1e-12
NULL_OUTCOME_PROB = 1e-15      # outcomes rarer than this carry no state
DISTRIBUTION_SUM_TOL = 1e-9
MAX_EQUAL_RTOL = 1e-12         # relative tolerance for "component is maximal"


class DistillationError(Exception):
    """Base class for all errors raised by this package."""


class InvalidMeasurementError(DistillationError):
    """A local measurement violates the completeness constraints."""


class InvalidPartyError(DistillationError):
    """A party label is unknown to the state or graph at hand."""


class InvalidInputError(DistillationError):
    """Inputs are structurally inconsistent (label sets, probabilities)."""


class PreconditionError(DistillationError):
    """An operation was called outside its stated domain."""


class UnknownPresetError(DistillationError):
    """No graph preset is registered under the requested name."""


class GraphMatchError(DistillationError):
    """A graph does not match the configuration family an operation needs."""


class InternalConsistencyError(DistillationError):
    """A structural invariant that should be unbreakable was broken."""


def _integer(name: str, value) -> int:
    """``value`` as a Python int if it is a Python or numpy integer;
    anything else, a bool, a float and a numeric string included, raises
    :class:`PreconditionError`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise PreconditionError(f"{name} must be an integer, not {value!r}")
    return int(value)


def _label(value) -> str:
    """A party label as a string: a string, or the digits of a Python or
    numpy integer; anything else, a bool, a float and None included,
    raises :class:`InvalidInputError`."""
    if isinstance(value, str) or (
        isinstance(value, numbers.Integral) and not isinstance(value, bool)
    ):
        return str(value)
    raise InvalidInputError(f"a party label is a string or an integer, not {value!r}")


def _labels(values) -> tuple[str, ...]:
    """:func:`_label` of each value, a plain string passed through as is."""
    return tuple([l if type(l) is str else _label(l) for l in values])


def default_labels(n: int) -> tuple[str, ...]:
    if n <= 26:
        return tuple(chr(ord("A") + i) for i in range(n))
    return tuple(f"P{i + 1}" for i in range(n))


@dataclass(frozen=True)
class WState:
    """A W-class state given by its per-party weights.

    ``components[i]`` is the weight of party ``labels[i]``; the weight of
    the all-zero amplitude is ``x0 = max(0, 1 - sum(components))``, worked
    out once from the sum the constructor checks and kept as the plain
    attribute ``x0``.  It is not a field, so equality, hashing, ``repr``
    and :meth:`to_json` see only the components and labels.  Weights below
    ``ZERO_COMPONENT`` are clamped to exactly zero, which marks that party
    as disentangled.  Non-numeric and non-finite weights, and labels other
    than strings and integers, raise :class:`InvalidInputError`.
    Instances are immutable.
    """

    components: tuple[float, ...]
    labels: tuple[str, ...]

    def __init__(self, components: Sequence[float], labels: Sequence[str] | None = None):
        try:
            comps = tuple(map(float, components))
            labels = default_labels(len(comps)) if labels is None else _labels(labels)
        except (TypeError, ValueError, OverflowError):
            raise InvalidInputError(f"bad components {components!r} or labels {labels!r}") from None
        if len(comps) < 2:
            raise InvalidInputError("a W-class state needs at least two parties")
        if len(labels) != len(comps):
            raise InvalidInputError("labels and components must have equal length")
        if len(set(labels)) != len(labels):
            raise InvalidInputError(f"duplicate party labels: {labels}")
        cleaned = comps
        # min skips a NaN that is not first and returns one that is; either
        # way a weight below ZERO_COMPONENT sends the tuple through the loop
        if not min(comps) >= ZERO_COMPONENT:
            for c in comps:
                if c < -COMPONENT_SUM_TOL:
                    raise InvalidInputError(f"negative component {c}")
            cleaned = tuple([0.0 if c < ZERO_COMPONENT else c for c in comps])
        total = sum(cleaned)
        if not math.isfinite(total):
            raise InvalidInputError(f"non-finite component in {comps}")
        if total > 1.0 + COMPONENT_SUM_TOL:
            raise InvalidInputError(f"components sum to {total} > 1")
        object.__setattr__(self, "components", cleaned)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "x0", max(0.0, 1.0 - total))

    @property
    def n(self) -> int:
        return len(self.components)

    def component(self, label: str) -> float:
        return self.components[self.index(label)]

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise InvalidPartyError(f"unknown party {label!r}") from None

    def max_component(self) -> float:
        return max(self.components)

    def to_json(self) -> dict:
        return {"components": list(self.components), "labels": list(self.labels)}

    @classmethod
    def from_json(cls, data: Mapping) -> "WState":
        if isinstance(data, (list, tuple)):
            return cls(data)
        if not isinstance(data, Mapping) or "components" not in data:
            raise InvalidInputError("a state is a list of components or an object with \"components\"")
        return cls(data["components"], data.get("labels"))


# Subgraph helpers.  Inside the engine a subgraph is the neighbour masks of
# ``_adjacency``, or a mask of live positions over them; ``(labels, edges)``
# from ``_restrict_edges`` is the form of ``ConfigGraph.induced`` only.


def _restrict_edges(edges, labels) -> frozenset:
    """The edges with both ends among ``labels``."""
    keep = set(labels)
    return frozenset(e for e in edges if e[0] in keep and e[1] in keep)


def _adjacency(labels, edges) -> tuple[int, ...]:
    """The neighbour mask of each position of ``labels``: bit j of entry i
    is set when parties i and j are joined.  Edges with an end outside
    ``labels`` are left out, so a subset is a mask of live positions and
    its edges never need restricting."""
    index = {l: i for i, l in enumerate(labels)}
    adj = [0] * len(labels)
    for a, b in edges:
        i, j = index.get(a), index.get(b)
        if i is not None and j is not None:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    return tuple(adj)


def _members(labels, live: int) -> tuple[str, ...]:
    """The labels at the positions set in the mask ``live``, in order."""
    return tuple([l for i, l in enumerate(labels) if live >> i & 1])


@dataclass(frozen=True)
class ConfigGraph:
    """Target-pair configuration graph: nodes are parties, edges mark the
    pairs whose shared EPR state counts as a success.  Labels are strings
    or integers, which become strings; anything else raises
    :class:`InvalidInputError`.

    The neighbour masks of :func:`_adjacency`, the position of each label,
    the sorted degree sequence and the values of the graph alone that other
    modules keep in :attr:`_kept` (the baseline ``p_fl``, which is the value
    at the standard W state and so does not depend on any state, and the
    graphs the bound lookup pads to four parties, one per label order) are
    worked out on first use and kept on the instance.  They are not fields, so
    equality, hashing, ``repr`` and :meth:`to_json` see only the labels and
    edges.  Each depends on the labels and edges alone, so on a graph shared
    between callers each kept value is written once, and a write that races
    it stores the same value."""

    labels: tuple[str, ...]
    edges: frozenset[tuple[str, str]]

    def __init__(self, labels: Sequence[str], edges: Iterable[Sequence[str]] = ()):
        try:
            labels = _labels(labels)
            pairs = [_labels(e) for e in edges]
        except TypeError:
            raise InvalidInputError("graph labels and edges must be sequences") from None
        if len(set(labels)) != len(labels):
            raise InvalidInputError(f"duplicate node labels: {labels}")
        known = set(labels)
        normalized = set()
        for e in pairs:
            if len(e) != 2 or e[0] == e[1]:
                raise InvalidInputError(f"edge {list(e)} does not join two distinct nodes")
            a, b = e
            if a not in known or b not in known:
                raise InvalidPartyError(f"edge ({a},{b}) leaves the node set")
            normalized.add((a, b) if a <= b else (b, a))
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "edges", frozenset(normalized))

    @cached_property
    def _masks(self) -> tuple[int, ...]:
        """The neighbour mask of each position of :attr:`labels`."""
        return _adjacency(self.labels, self.edges)

    @cached_property
    def _positions(self) -> dict[str, int]:
        """The position of each label in :attr:`labels`."""
        return {l: i for i, l in enumerate(self.labels)}

    @cached_property
    def _degree_sequence(self) -> tuple[int, ...]:
        """The popcounts of :attr:`_masks`, in ascending order."""
        return tuple(sorted(m.bit_count() for m in self._masks))

    @cached_property
    def _kept(self) -> dict:
        """Values of this graph alone, by name, that other modules work out
        once and keep here (``p_fl``, and the padded graphs of
        ``bounds._pad_to_four`` under ``("padded", labels)``)."""
        return {}

    def __repr__(self) -> str:
        # the edges in sorted order: a set's order depends on the order it
        # was filled in, and a pickled copy refills it, so equal graphs
        # would otherwise print differently
        edges = "frozenset({" + ", ".join(map(repr, sorted(self.edges))) + "})" if self.edges else "frozenset()"
        return f"ConfigGraph(labels={self.labels!r}, edges={edges})"

    @property
    def n(self) -> int:
        return len(self.labels)

    def has_edge(self, a: str, b: str) -> bool:
        return ((a, b) if a <= b else (b, a)) in self.edges

    def neighbors(self, label: str) -> set[str]:
        """A new set of the labels joined to ``label``, read off its
        neighbour mask."""
        try:
            mask = self._masks[self._positions[label]]
        except (KeyError, TypeError):
            raise InvalidPartyError(f"unknown node {label!r}") from None
        return {l for i, l in enumerate(self.labels) if mask >> i & 1}

    def degree(self, label: str) -> int:
        """The number of edges at ``label``: its neighbour mask's popcount."""
        try:
            return self._masks[self._positions[label]].bit_count()
        except (KeyError, TypeError):
            raise InvalidPartyError(f"unknown node {label!r}") from None

    def induced(self, keep: Iterable[str]) -> "ConfigGraph":
        """The subgraph on the nodes in ``keep`` and the edges between them."""
        keep_set = set(keep)
        unknown = keep_set - set(self.labels)
        if unknown:
            raise InvalidPartyError(f"unknown nodes {sorted(unknown)}")
        labels = tuple(l for l in self.labels if l in keep_set)
        return ConfigGraph(labels, _restrict_edges(self.edges, labels))

    def to_json(self) -> dict:
        return {"labels": list(self.labels), "edges": sorted(list(e) for e in self.edges)}

    @classmethod
    def from_json(cls, data: Mapping) -> "ConfigGraph":
        if not isinstance(data, Mapping) or not ("preset" in data or "labels" in data):
            raise InvalidInputError("a graph is an object with \"labels\" or \"preset\"")
        if "preset" in data:
            return graph_catalog(data["preset"], data.get("n"))
        return cls(data["labels"], data.get("edges", ()))


def _same_parties(state: WState, graph: ConfigGraph) -> None:
    """The one rule that a state and its graph hold the same parties."""
    if set(state.labels) != set(graph.labels):
        raise InvalidInputError("state parties and graph nodes differ")


def _require_weight(state: WState) -> None:
    """The one rule that a state carries weight on some party."""
    if state.max_component() <= 0.0:
        raise PreconditionError("the state carries no weight on any party")


def _not_triples(outcomes) -> InvalidMeasurementError:
    """The one error for outcomes that are not (a, b, c) triples of real
    numbers."""
    return InvalidMeasurementError(f"outcomes {outcomes!r} are not (a, b, c) triples of real numbers")


@dataclass(frozen=True)
class LocalMeasurement:
    """A binary (or k-ary) local measurement in upper-triangular Kraus form.

    Each outcome is a triple (a, b, c) encoding the operator
    [[sqrt(a), b], [0, sqrt(c)]] acting on the measuring party's qubit.
    Completeness requires sum(a) = 1, sum(sqrt(a) b) = 0 and
    sum(b^2 + c) = 1.
    """

    party: str
    outcomes: tuple[tuple[float, float, float], ...]

    def __init__(self, party: str, outcomes: Iterable[Sequence[float]]):
        try:
            outs = tuple([(float(a), float(b), float(c)) for a, b, c in outcomes])
        except (TypeError, ValueError, OverflowError):
            raise _not_triples(outcomes) from None
        for a, b, c in outs:
            if a < 0 or c < 0:
                raise InvalidMeasurementError(f"negative Kraus weight in {(a, b, c)}")
            if a != a or c != c:
                raise InvalidMeasurementError(f"NaN Kraus weight in {(a, b, c)}")
        object.__setattr__(self, "party", str(party))
        object.__setattr__(self, "outcomes", outs)

    def completeness_residuals(self) -> tuple[float, float, float]:
        # one pass, each sum from int 0 in outcome order: the additions of
        # the built-in sum of floats on CPython 3.11 (3.12 compensates)
        sa = sb = sc = 0
        for a, b, c in self.outcomes:
            sa += a
            sb += math.sqrt(a) * b
            sc += b * b + c
        return sa - 1.0, sb, sc - 1.0

    def is_complete(self) -> bool:
        """Whether every completeness residual is within ``COMPLETENESS_TOL``."""
        sa, sb, sc = self.completeness_residuals()
        tol = COMPLETENESS_TOL
        return abs(sa) <= tol and abs(sb) <= tol and abs(sc) <= tol

    def require_complete(self) -> None:
        """Raise :class:`InvalidMeasurementError` unless :meth:`is_complete`."""
        if not self.is_complete():
            raise InvalidMeasurementError(
                f"measurement on {self.party!r} is not complete: residuals "
                f"{self.completeness_residuals()}"
            )

    @classmethod
    def diagonal(cls, party: str, weights: Iterable[Sequence[float]]) -> "LocalMeasurement":
        """Diagonal measurement from (a, c) pairs, all b terms zero."""
        try:
            triples = [(a, 0.0, c) for a, c in weights]
        except (TypeError, ValueError):
            raise _not_triples(weights) from None
        return cls(party, triples)


# ---------------------------------------------------------------------------
# terminal results


@dataclass(frozen=True)
class Epr:
    """An EPR pair shared by two parties (the success terminal)."""

    parties: tuple[str, str]

    def __init__(self, parties: Iterable[str]):
        a, b = sorted(str(p) for p in parties)
        object.__setattr__(self, "parties", (a, b))

    def label(self) -> str:
        return f"EPR({self.parties[0]},{self.parties[1]})"


@dataclass(frozen=True)
class StandardW:
    """A standard W state shared by the listed parties."""

    parties: tuple[str, ...]

    def __init__(self, parties: Iterable[str]):
        object.__setattr__(self, "parties", tuple(str(p) for p in parties))

    def label(self) -> str:
        return f"W{len(self.parties)}({','.join(self.parties)})"


@dataclass(frozen=True)
class Failure:
    def label(self) -> str:
        return "FAIL"


FAILURE = Failure()


@dataclass(frozen=True)
class Residual:
    """A leftover W-class state and its pruned graph (protocol continues)."""

    state: WState
    graph: ConfigGraph

    def label(self) -> str:
        return f"RES({','.join(self.state.labels)})"


@dataclass(frozen=True)
class OutcomeDistribution:
    """Probability map over terminal results.  Probabilities must be
    nonnegative and sum to one within ``DISTRIBUTION_SUM_TOL``."""

    entries: tuple[tuple[object, float], ...]

    def __init__(self, entries):
        items = tuple(entries)
        total = 0.0
        for term, p in items:
            if p < -1e-15:
                raise InvalidInputError(f"negative probability {p} for {term}")
            total += p
        if abs(total - 1.0) > DISTRIBUTION_SUM_TOL:
            raise InvalidInputError(f"terminal probabilities sum to {total}")
        object.__setattr__(self, "entries", items)

    def items(self):
        return self.entries

    def probability(self, terminal) -> float:
        return sum(p for t, p in self.entries if t == terminal)

    def total(self) -> float:
        return sum(p for _, p in self.entries)


# ---------------------------------------------------------------------------
# the measurement update


def component_update(
    comps: Sequence[float], x0: float, k: int, a: float, b: float, c: float
) -> tuple[float, tuple[float, ...], float]:
    """Apply one upper-triangular Kraus operator to raw components.

    Returns (probability, new components, new x0).  The new values are
    normalized by the outcome probability; callers must skip outcomes
    whose probability is below ``NULL_OUTCOME_PROB``.
    """
    xk = comps[k]
    rest = 1.0 - x0 - xk
    amp0 = math.sqrt(x0 * a) + b * math.sqrt(xk)
    p = a * rest + c * xk + amp0 * amp0
    if p < NULL_OUTCOME_PROB:
        return p, (), 0.0
    new = [a * x / p for x in comps]
    new[k] = c * xk / p
    return p, tuple(new), amp0 * amp0 / p


def apply_measurement(state: WState, m: LocalMeasurement) -> list[tuple[float, WState | None]]:
    """Outcome probabilities and post-measurement states of a local
    measurement.

    Outcomes with probability below ``NULL_OUTCOME_PROB`` are reported with
    ``None`` in place of a state.  Probabilities always sum to one.
    """
    m.require_complete()
    k = state.index(m.party)
    x0 = state.x0
    results: list[tuple[float, WState | None]] = []
    for a, b, c in m.outcomes:
        p, comps, _ = component_update(state.components, x0, k, a, b, c)
        if p < NULL_OUTCOME_PROB:
            results.append((p, None))
        else:
            results.append((p, WState(comps, state.labels)))
    return results


def kt_averages(
    pre: WState, outcomes: Sequence[tuple[float, WState | None]]
) -> tuple[float, ...]:
    """Average post-measurement component values minus the pre values.

    Returns (d_x0, d_x1, ..., d_xN).  Under any complete local measurement
    the x0 entry may only grow on average and every party entry may only
    shrink, which is what callers assert.
    """
    total_p = sum(p for p, _ in outcomes)
    if abs(total_p - 1.0) > DISTRIBUTION_SUM_TOL:
        raise InvalidInputError(f"outcome probabilities sum to {total_p}")
    avg0 = 0.0
    avg = [0.0] * pre.n
    for p, post in outcomes:
        if post is None:
            continue
        if post.labels != pre.labels:
            raise InvalidInputError("outcome party set differs from the input state")
        avg0 += p * post.x0
        for i, c in enumerate(post.components):
            avg[i] += p * c
    deltas = [avg0 - pre.x0]
    deltas.extend(avg[i] - pre.components[i] for i in range(pre.n))
    return tuple(deltas)


def standard_w(labels: Iterable[str]) -> WState:
    """The standard W state on the given parties: all weights equal, x0 = 0."""
    labs = sorted(set(_labels(labels)))
    if len(labs) < 2:
        raise InvalidInputError("a standard W state needs at least two parties")
    return WState([1.0 / len(labs)] * len(labs), labs)


# ---------------------------------------------------------------------------
# graph catalog

_FIXED_PRESETS: dict[str, tuple[int, tuple[tuple[str, str], ...]]] = {
    "wedge": (3, (("A", "B"), ("A", "C"))),
    "triangle": (3, (("A", "B"), ("A", "C"), ("B", "C"))),
    "I": (4, (("A", "B"),)),
    "I'": (4, (("A", "B"), ("A", "C"))),
    "I''": (4, (("A", "B"), ("A", "C"), ("A", "D"))),
    "II": (4, (("A", "B"), ("A", "C"), ("B", "C"))),
    "III-a": (4, (("A", "B"), ("C", "D"))),
    "III-b": (4, (("A", "B"), ("B", "C"), ("C", "D"))),
    "III-c": (4, (("A", "B"), ("B", "C"), ("C", "D"), ("A", "D"))),
    "IV": (4, (("A", "B"), ("A", "C"), ("A", "D"), ("B", "C"), ("B", "D"))),
    "V": (4, (("A", "B"), ("A", "C"), ("A", "D"), ("B", "C"), ("B", "D"), ("C", "D"))),
    "VI": (4, (("A", "B"), ("A", "C"), ("A", "D"), ("B", "C"))),
}

# each four-party class answers to its lowercase spelling too
_PRESET_ALIASES = {"I′": "I'", "I″": "I''"} | {
    name.lower(): name for name, (size, _) in _FIXED_PRESETS.items() if size == 4
}


def graph_catalog(name: str, n: int | None = None) -> ConfigGraph:
    """Named configuration-graph presets.

    Fixed-size presets, from ``_FIXED_PRESETS``: wedge, triangle and the
    four-party classes I, I', I'', II, III-a/b/c, IV, V, VI, which also
    answer to their lowercase spellings (iv, iii-c) and to I′ and I″.  The
    table is the one definition of the classes; ``bounds`` derives its
    class lookup from it.  Parametric presets: pairs(n) with n even
    (disjoint pairs on nodes "1".."n") and complete(n), n a Python or
    numpy integer, not a bool.
    """
    if n is not None and (isinstance(n, bool) or not isinstance(n, numbers.Integral)):
        raise InvalidInputError(f"preset size {n!r} is not an integer")
    key = str(name)
    key = _PRESET_ALIASES.get(key, _PRESET_ALIASES.get(key.lower(), key))
    if key in _FIXED_PRESETS:
        size, edges = _FIXED_PRESETS[key]
        if n is not None and n != size:
            raise InvalidInputError(f"preset {key!r} has exactly {size} nodes")
        return ConfigGraph(default_labels(size), edges)
    low = key.lower()
    if low == "pairs":
        if n is None or n < 4 or n % 2:
            raise InvalidInputError("pairs preset needs an even node count >= 4")
        labels = tuple(str(i + 1) for i in range(n))
        edges = [(labels[2 * i], labels[2 * i + 1]) for i in range(n // 2)]
        return ConfigGraph(labels, edges)
    if low == "complete":
        if n is None or n < 2:
            raise InvalidInputError("complete preset needs a node count >= 2")
        labels = default_labels(n)
        edges = [(labels[i], labels[j]) for i in range(n) for j in range(i + 1, n)]
        return ConfigGraph(labels, edges)
    raise UnknownPresetError(f"unknown graph preset {name!r}")

