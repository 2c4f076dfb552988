"""Property tests: malformed state and graph specs are rejected with a
DistillationError, and the command line exits 0 or 2 on them and on any
number given to a numeric option."""

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


# any integer, past int64 and past the float range too, or any float,
# NaN and the infinities included
integers = st.integers() | st.sampled_from([-1, 0, 2**63 - 1, 2**63, 10**20, 10**400])
numbers = integers | st.floats()


def near(low, high, wild=numbers, default=True):
    """Mostly a value in [low, high], otherwise one just outside it, a
    ``wild`` one or (with ``default``) none, which leaves the option at
    its default."""
    if isinstance(low, int):
        inside, outside = st.integers(low, high), st.sampled_from([low - 1, high + 1])
    else:
        inside, outside = st.floats(low, high), st.sampled_from([low - 1e-9, high + 1e-9])
    choices = [inside, inside, inside, outside, wild] + [st.none()] * default
    return st.sampled_from(choices).flatmap(lambda values: values)


# fuzz sizes and figure ranges set the amount of work, so their wild
# values are bounded above: a valid large size is a long run
small_sizes = st.integers(max_value=3) | st.floats()
long_ranges = st.integers(max_value=1000) | st.floats()


def run_with_numbers(*argv, **options):
    """Exit code and stderr of the command line with ``--name=value`` for
    each option that is not None (argparse's own usage errors exit 2)."""
    argv = list(argv) + [f"--{k.replace('_', '-')}={v!r}" for k, v in options.items() if v is not None]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


def assert_exits_0_or_2(code, err):
    assert code in (0, 2), err
    assert "Traceback" not in err
    assert (code == 0) == (err == ""), err


@given(near(1, 2**63 - 1), near(0, 2**70), near(1, 1000), near(0.0, 0.5))
@settings(max_examples=80, deadline=None)
def test_simulate_exits_0_or_2_on_any_numbers(trials, seed, loop_cap, epsilon):
    assert_exits_0_or_2(*run_with_numbers(
        "simulate", "--state", "W3", "--preset", "triangle",
        trials=trials, seed=seed, loop_cap=loop_cap, epsilon=epsilon,
    ))


@given(near(1, 1000), near(0.0, 0.5))
@settings(max_examples=60, deadline=None)
def test_tree_exits_0_or_2_on_any_numbers(loop_cap, epsilon):
    assert_exits_0_or_2(*run_with_numbers(
        "tree", "--state", "W3", "--preset", "triangle", loop_cap=loop_cap, epsilon=epsilon,
    ))


@given(st.sampled_from(["kt_i", "kt_0", "tau", "gamma"]), near(1, 3, small_sizes, default=False),
       near(1, 3, small_sizes), near(0.0, 0.1), near(0, 2**70))
@settings(max_examples=80, deadline=None)
def test_fuzz_exits_0_or_2_on_any_numbers(function, states, measurements, weak_radius, seed):
    assert_exits_0_or_2(*run_with_numbers(
        "fuzz", "--function", function,
        states=states, measurements=measurements, weak_radius=weak_radius, seed=seed,
    ))


@given(st.sampled_from(["sep-vs-locc", "w-target-bound"]), near(2, 100, long_ranges), near(2, 50),
       near(1, 100, long_ranges))
@settings(max_examples=80, deadline=None)
def test_figure_exits_0_or_2_on_any_numbers(name, n_max, n, points):
    assert_exits_0_or_2(*run_with_numbers("figure", "--name", name, n_max=n_max, n=n, points=points))
