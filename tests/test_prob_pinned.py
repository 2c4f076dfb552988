"""`wdistill prob --format json` on a fixed set of instances, against the
payloads recorded in ``data/prob_pinned.json``.

Keys, subgraph names and flags must match exactly, and every float within
1e-12: another numpy may move the last bits of the eigenvalue roots that
the optimizer solves for.  Re-record (only when a value is meant to move)
with ``PYTHONPATH=src python tests/test_prob_pinned.py``.
"""

import contextlib
import io
import json
import math
from pathlib import Path

import pytest

from wdistill import graph_catalog
from wdistill.cli import main

from test_walk_oracle import FIXED_PRESETS

DATA = Path(__file__).parent / "data" / "prob_pinned.json"
FLOAT_TOL = 1e-12


def inline_graph(family, n):
    labels = [chr(ord("A") + i) for i in range(n)]
    pairs = n if family == "cycle" else n - 1
    edges = [[labels[i], labels[(i + 1) % n]] for i in range(pairs)]
    return json.dumps({"labels": labels, "edges": edges})


def x0_state(n):
    """Weights 1 : 2 : ... : n scaled to sum 0.8, so that x0 = 0.2."""
    return json.dumps([0.8 * k / (n * (n + 1) / 2) for k in range(1, n + 1)])


def cases():
    """Name to ``prob`` arguments: the standard W state and an x0 > 0 state
    on every fixed preset, and the standard W state on four larger graphs."""
    out = {}
    for name in FIXED_PRESETS:
        n = graph_catalog(name).n
        out[f"{name} W{n}"] = ["--state", f"W{n}", "--preset", name]
        out[f"{name} x0"] = ["--state", x0_state(n), "--preset", name]
    for spec in ("complete:6", "pairs:8"):
        out[f"{spec} W"] = ["--state", f"W{spec.split(':')[1]}", "--preset", spec]
    for family in ("cycle", "path"):
        out[f"{family}:6 W"] = ["--state", "W6", "--graph", inline_graph(family, 6)]
    return out


def prob_payload(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["prob", *argv, "--format", "json"])
    assert code == 0
    return json.loads(out.getvalue())


def assert_matches(got, want, where="payload"):
    if isinstance(want, float):
        assert isinstance(got, float), where
        assert math.isclose(got, want, rel_tol=0.0, abs_tol=FLOAT_TOL), (where, got, want)
    elif isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), where
        for key in want:
            assert_matches(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_matches(g, w, f"{where}[{i}]")
    else:
        assert type(got) is type(want) and got == want, (where, got, want)


@pytest.fixture(scope="module")
def recorded():
    return json.loads(DATA.read_text())


def test_the_recorded_set_is_the_case_list(recorded):
    assert {name: case["argv"] for name, case in recorded.items()} == cases()


@pytest.mark.parametrize("name", list(cases()))
def test_prob_json_matches_the_recorded_payload(recorded, name):
    assert_matches(prob_payload(recorded[name]["argv"]), recorded[name]["payload"])


if __name__ == "__main__":
    recorded = {name: {"argv": argv, "payload": prob_payload(argv)} for name, argv in cases().items()}
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps(recorded, indent=1, sort_keys=False) + "\n")
    print(f"recorded {len(recorded)} payloads in {DATA}")
