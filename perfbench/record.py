"""Record the reference outputs that the benchmark checks against.

    python3 perfbench/record.py

Writes ``perfbench/reference.json`` from the engine in ``src``.  Run it
only at a commit whose values are accepted: the benchmark exists to show
that later changes keep these values, so re-recording after a change
would hide exactly what it is meant to catch.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from wdistill import bounds, core, lpo  # noqa: E402

import workloads as wl  # noqa: E402


def record() -> dict:
    scaling = {}
    for family, n in wl.SCALING_GRAPHS:
        g = wl.family_graph(family, wl.letter_labels(n))
        scaling[f"{family}:{n}"] = lpo.PhaseThreeSolver().p_lpo(core.standard_w(g.labels), g)

    solver = lpo.PhaseThreeSolver()
    p_values, bound_values = [], []
    for i in range(wl.QUERY_POOL):
        name, state = wl.query_input(i)
        g = wl.named_graph(name)
        p_values.append(solver.p_lpo(state, g))
        report = bounds.resolve_bound(state, g)
        bound_values.append(None if report is None else report.value)
    p_fl = {name: lpo.p_fl(wl.named_graph(name)) for name in wl.QUERY_GRAPHS}

    trees = {}
    for name, cap in wl.TREE_CAPS.items():
        g = wl.named_graph(name)

        def value(state):
            tree = lpo.build_protocol_tree(state, g, wl.TREE_EPSILON, cap,
                                           solver=lpo.PhaseThreeSolver())
            return tree.analytic_value()

        trees[name] = {
            "w": value(core.standard_w(g.labels)),
            "random": [value(wl.tree_state(name, j)) for j in range(wl.TREE_POOL)],
        }

    return {
        "scaling": scaling,
        "queries": {"p_lpo": p_values, "bound": bound_values, "p_fl": p_fl},
        "trees": trees,
    }


if __name__ == "__main__":
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(record(), fh, indent=1)
        fh.write("\n")
