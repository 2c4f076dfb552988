"""Property tests: malformed state and graph specs are rejected with a
DistillationError, and the command line exits 0 or 2 on them."""

import contextlib
import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from wdistill import DistillationError, graph_catalog
from wdistill.cli import _parse_graph, _parse_state, main
from wdistill.core import graph_from_json, state_from_json

TRIANGLE = graph_catalog("triangle")

scalars = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=12,
)

# near-valid specs reach the checks behind the first key lookup; preset
# sizes stay small, because a valid large preset is a large graph
names = st.sampled_from(["A", "B", "C", "D", ""]) | scalars
small_json = st.recursive(scalars, lambda inner: st.lists(inner, max_size=3), max_leaves=6)
state_specs = st.fixed_dictionaries({}, optional={
    "components": st.lists(st.floats(0.0, 1.0) | scalars, max_size=4) | small_json,
    "labels": st.lists(names, max_size=4) | small_json,
})
graph_specs = st.fixed_dictionaries({}, optional={
    "labels": st.lists(names, max_size=4) | small_json,
    "edges": st.lists(st.lists(names, max_size=3) | small_json, max_size=4) | small_json,
    "preset": st.sampled_from(["triangle", "IV", "pairs", "complete", "nope"]) | scalars,
    "n": st.integers(-2, 8) | st.none() | st.text(max_size=3) | st.floats() | st.booleans(),
})
states = json_values | state_specs
graphs = json_values | graph_specs


def returns_or_rejects(parse, *args):
    try:
        parse(*args)
    except DistillationError:
        pass


@given(states)
@settings(max_examples=300, deadline=None)
def test_state_parsers_return_or_raise_distillation_error(value):
    returns_or_rejects(state_from_json, value)
    returns_or_rejects(state_from_json, json.dumps(value))
    returns_or_rejects(_parse_state, json.dumps(value), TRIANGLE)


@given(graphs)
@settings(max_examples=300, deadline=None)
def test_graph_parsers_return_or_raise_distillation_error(value):
    returns_or_rejects(graph_from_json, value)
    returns_or_rejects(graph_from_json, json.dumps(value))
    returns_or_rejects(_parse_graph, json.dumps(value), None)


def run_main(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, err.getvalue()


@given(states)
@settings(max_examples=100, deadline=None)
def test_cli_exits_0_or_2_on_any_state(value):
    code, err = run_main("prob", f"--state={json.dumps(value)}", "--preset", "triangle")
    assert code in (0, 2)
    assert "Traceback" not in err
    assert (code == 2) == err.startswith("error: bad input: ")


@given(graphs)
@settings(max_examples=100, deadline=None)
def test_cli_exits_0_or_2_on_any_graph(value):
    code, err = run_main("prob", "--state", "W3", f"--graph={json.dumps(value)}")
    assert code in (0, 2)
    assert "Traceback" not in err
    assert (code == 2) == err.startswith("error: bad input: ")
