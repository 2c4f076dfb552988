"""The warm ``prob`` path, bit for bit: ``p_lpo``, ``p_fl`` and
``resolve_bound`` on seeded states of the sixteen graphs of the benchmark's
``queries`` workload, all sharing one solver.

The sha256 of the reprs of every ``(p_lpo, p_fl, bound value, bound name,
roles)`` must equal ``WARM_DIGEST``, so a change meant to leave the numbers
as they are moves no bit of them.  The values rest on float arithmetic in a
fixed order, on CPython 3.11 (whose built-in ``sum`` is not compensated)
and the numpy the digest was recorded with; ``test_prob_pinned.py`` checks
values within a tolerance.  Re-record (only when a value is meant to move)
by printing ``warm_digest()``:
``PYTHONPATH=src python -c "import sys; sys.path.insert(0, 'tests'); from test_warm_digest import warm_digest; print(warm_digest())"``.
"""

import hashlib
import random

from wdistill import WState, graph_catalog, p_fl, p_lpo, resolve_bound
from wdistill.lpo import PhaseThreeSolver

from test_walk_oracle import FIXED_PRESETS, family_graph

QUERY_GRAPHS = (*FIXED_PRESETS, "complete:5", "pairs:6", "cycle:5", "path:6")
STATES_PER_GRAPH = 100   # every other one with x0 = 0
WARM_DIGEST = "8083de5b1e2e58adf0ae1f6817525ae132193406a369750b3e89778032b80739"


def query_graph(name):
    family, _, size = name.partition(":")
    if family in ("cycle", "path"):
        return family_graph(family, int(size))
    return graph_catalog(family, int(size) if size else None)


def warm_states(name, g):
    """Flat-Dirichlet draws on ``g``'s parties from a stream seeded by the
    graph's name, x0 = 0 in every other one."""
    rng = random.Random(f"warm-digest/{name}")
    states = []
    for i in range(STATES_PER_GRAPH):
        weights = [rng.expovariate(1.0) for _ in range(g.n + i % 2)]
        total = sum(weights)
        states.append(WState([w / total for w in weights[-g.n:]], g.labels))
    return states


def warm_outputs():
    """``(p_lpo, p_fl, bound value, bound name, roles)`` per state, the
    graphs taken in turn so that the solver's memo fills as a mixed stream
    of queries fills it."""
    solver = PhaseThreeSolver()
    graphs = {name: query_graph(name) for name in QUERY_GRAPHS}
    states = {name: warm_states(name, g) for name, g in graphs.items()}
    for i in range(STATES_PER_GRAPH):
        for name, g in graphs.items():
            state = states[name][i]
            report = resolve_bound(state, g)
            bound = (None, None, None) if report is None else (
                report.value, report.bound_name, report.role_assignment)
            yield (p_lpo(state, g, solver=solver), p_fl(g), *bound)


def warm_digest():
    h = hashlib.sha256()
    for out in warm_outputs():
        h.update(repr(out).encode())
    return h.hexdigest()


def test_the_warm_path_outputs_are_bit_identical():
    assert warm_digest() == WARM_DIGEST
