"""Every query frees what it made by reference counting.

Each recursive walk of the engine is a nested closure that calls itself
through its own closure cell, a reference cycle that only CPython's
cyclic collector could free.  The walks drop that name once they return,
so a call leaves nothing for the collector.  Each check here collects,
makes the call with the collector off, and requires the next collection
to find nothing.  A reference copy of the walk that keeps its name shows
that the check sees such a cycle.
"""

import gc

import pytest

from wdistill import (
    ConfigGraph,
    LocalMeasurement,
    WState,
    apply_measurement,
    graph_catalog,
    p_fl,
    p_lpo,
    resolve_bound,
    standard_w,
)
from wdistill import evroutine as ev_mod
from wdistill.core import FAILURE, InternalConsistencyError, _adjacency
from wdistill.evroutine import (
    _decide,
    _equalized,
    _isolate_outcomes,
    _isolated,
    _measure_outcomes,
    _scan,
    _vanished,
    _without,
    enumerate_ev,
    ev_distribution,
)
from wdistill.lpo import PhaseThreeSolver, build_protocol_tree, ev_tree
from wdistill.mc import monotone_fuzz, simulate, statevector_oracle

from test_walk_oracle import skipped_tie_equalized


@pytest.fixture
def collector_off():
    """The collector off for the test, as it was before afterwards."""
    gc.collect()
    was = gc.isenabled()
    gc.disable()
    yield
    if was:
        gc.enable()


def cyclic_garbage(call, *args):
    """How many objects the collector finds after ``call(*args)``; its
    result is dropped first."""
    gc.collect()
    call(*args)
    return gc.collect()


VI = graph_catalog("VI")
SKEWED = WState([0.4, 0.25, 0.2, 0.15], VI.labels)
WITH_X0 = WState([0.1, 0.2, 0.3, 0.25], VI.labels)
REORDERED = WState([0.3, 0.1, 0.25, 0.2], ("D", "C", "B", "A"))


@pytest.mark.parametrize("state", [standard_w(VI.labels), SKEWED, WITH_X0, REORDERED], ids=repr)
def test_p_lpo_cold_and_warm_leaves_no_cycle(collector_off, state):
    assert cyclic_garbage(p_lpo, state, VI) == 0
    solver = PhaseThreeSolver()
    assert cyclic_garbage(p_lpo, state, VI, solver) == 0
    assert cyclic_garbage(p_lpo, state, VI, solver) == 0


def test_the_graph_queries_leave_no_cycle(collector_off):
    pairs = graph_catalog("pairs", 6)
    for g in (VI, pairs, graph_catalog("III-c")):
        # a new graph, so that p_fl walks instead of reading its kept value
        assert cyclic_garbage(p_fl, ConfigGraph(g.labels, g.edges)) == 0
    assert cyclic_garbage(resolve_bound, SKEWED, VI) == 0
    assert cyclic_garbage(resolve_bound, WITH_X0, VI) == 0
    assert cyclic_garbage(ev_distribution, SKEWED, VI) == 0
    assert cyclic_garbage(ev_tree, SKEWED, VI) == 0


def test_tree_simulation_and_audit_trail_leave_no_cycle(collector_off):
    def tree_then_simulate(state, g):
        simulate(build_protocol_tree(state, g, loop_cap=20), 10_000, 7)

    assert cyclic_garbage(tree_then_simulate, WITH_X0, VI) == 0
    assert cyclic_garbage(tree_then_simulate, standard_w("ABC"), graph_catalog("triangle")) == 0
    solver = PhaseThreeSolver()
    solver.p_lpo(WITH_X0, VI)
    solver.p_lpo(REORDERED, VI)
    assert cyclic_garbage(solver.reports) == 0


def test_the_object_path_leaves_no_cycle(collector_off):
    m = LocalMeasurement.diagonal("B", [(0.5, 1.0), (0.5, 0.0)])
    assert cyclic_garbage(apply_measurement, WITH_X0, m) == 0
    assert cyclic_garbage(statevector_oracle, WITH_X0, m) == 0
    for fid in ("kt_i", "kt_0", "tau", "gamma"):
        assert cyclic_garbage(monotone_fuzz, fid, 5, 3, 0.05, 1) == 0


def undropped_enumerate_ev(comps, adj, live) -> dict:
    """:func:`enumerate_ev` as it was while its walk kept its own name:
    the closure ``visit`` refers to itself and is never dropped."""
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

    visit(tuple(comps), live, _isolated(adj, live), 1.0, 0)
    return acc


def test_the_check_sees_a_walk_that_keeps_its_closure(collector_off):
    adj = _adjacency(VI.labels, VI.edges)
    full = (1 << VI.n) - 1
    comps = SKEWED.components
    assert list(undropped_enumerate_ev(comps, adj, full).items()) == list(enumerate_ev(comps, adj, full).items())
    assert cyclic_garbage(undropped_enumerate_ev, comps, adj, full) > 0
    assert cyclic_garbage(enumerate_ev, comps, adj, full) == 0


def test_a_walk_that_raises_leaves_no_cycle(collector_off, monkeypatch):
    monkeypatch.setattr(ev_mod, "_equalized", skipped_tie_equalized)
    adj = _adjacency(VI.labels, VI.edges)
    gc.collect()
    raised = False
    try:  # not pytest.raises: its exception info would hold a cycle of its own
        enumerate_ev(SKEWED.components, adj, (1 << VI.n) - 1)
    except InternalConsistencyError as exc:
        raised = str(exc) == "equal-or-vanish recursion too deep"
    assert raised
    assert gc.collect() == 0
