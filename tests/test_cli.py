import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from wdistill import bounds as bounds_mod
from wdistill import verify as verify_mod
from wdistill.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_prob_standard_w_on_paw(capsys):
    code, out, _ = run_cli(capsys, "prob", "--state", "W4", "--preset", "VI")
    assert code == 0
    assert f"P_LPO = {(3 + math.sqrt(3)) / 6:.12g}" in out
    assert "P_FL  = 0.75" in out
    assert "SEP reference" in out and "0.833333333333" in out
    assert "optimization chain:" in out


def test_prob_three_party_wedge(capsys):
    code, out, _ = run_cli(capsys, "prob", "--state", "W3", "--graph", "wedge")
    assert code == 0
    assert "P_LPO = 0.666666666667" in out
    assert "bound[I'] = 0.666666666667" in out


def test_prob_inline_state_json(capsys):
    code, out, _ = run_cli(capsys, "prob", "--state", "[0.5, 0.3, 0.2]", "--preset", "triangle")
    assert code == 0
    assert "P_LPO = 0.88" in out


def test_prob_json_format_round_trips(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, _, _ = run_cli(
        capsys, "prob", "--state", "W4", "--preset", "IV",
        "--format", "json", "--out", str(out_path),
    )
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["p_lpo"] == pytest.approx(5 / 6, abs=1e-9)
    assert payload["bound"]["bound"] == "gamma"


@pytest.mark.parametrize(
    "argv",
    [
        ("--state", "[0.5, 0.3", "--preset", "triangle"),
        ("--state", "[NaN,0.3,0.2]", "--preset", "triangle"),
        ("--state", '[0.5,"x",0.2]', "--preset", "triangle"),
        ("--state", "W6", "--preset", "pairs:x"),
        ("--state", "W6", "--graph", "pairs:x"),
        ("--state", '{"x": 1}', "--preset", "triangle"),
        ("--state", "5", "--preset", "triangle"),
        ("--state", '{"components": [0.5, 0.3, 0.2], "labels": 7}', "--preset", "triangle"),
        ("--state", "W3", "--graph", '{"labels": 5}'),
        ("--state", "W3", "--graph", '{"labels": ["A", "B", "C"], "edges": [["A"]]}'),
        ("--state", "W3", "--graph", '{"labels": ["A", "B", "C"], "edges": [["A", "B", "C"]]}'),
        ("--state", "W6", "--graph", '{"preset": "pairs", "n": "x"}'),
        ("--state", "W\u00b2", "--preset", "wedge"),
    ],
    ids=[
        "truncated-json", "nan-component", "string-component", "preset-size", "graph-size",
        "state-without-components", "state-number", "state-labels-number", "graph-labels-number",
        "one-end-edge", "three-end-edge", "json-preset-size", "superscript-state-preset",
    ],
)
def test_prob_malformed_json_exits_2(capsys, argv):
    code, _, err = run_cli(capsys, "prob", *argv)
    assert code == 2
    assert "bad input" in err


def test_prob_unreadable_spec_files_exit_2(capsys, tmp_path):
    binary = tmp_path / "state.json"
    binary.write_bytes(b"\xff\xfe[0.5]")
    for argv in (("--state", "W3", "--graph", f"@{tmp_path}"),
                 ("--state", f"@{binary}", "--preset", "triangle"),
                 ("--state", f"@{tmp_path / 'missing.json'}", "--preset", "triangle")):
        code, out, err = run_cli(capsys, "prob", *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: bad input: cannot read ")


def test_prob_requires_one_graph_source(capsys):
    code, _, err = run_cli(capsys, "prob", "--state", "W3")
    assert code == 2


def test_tree_dot_contains_branch_labels(capsys, tmp_path):
    out_path = tmp_path / "tree.dot"
    code, _, _ = run_cli(
        capsys, "tree", "--state", "W4", "--preset", "VI",
        "--format", "dot", "--out", str(out_path),
    )
    assert code == 0
    dot = out_path.read_text()
    # the peel-off branches of the four-party paw tree
    for label in ("EPR(B,C)", "EPR(A,D)", "W3(A,B,D)", "W3(A,C,D)"):
        assert label in dot


def test_tree_json_leaf_probabilities_sum_to_one(capsys, tmp_path):
    out_path = tmp_path / "tree.json"
    code, _, _ = run_cli(
        capsys, "tree", "--state", "W2", "--graph",
        '{"labels": ["A", "B"], "edges": [["A", "B"]]}',
        "--out", str(out_path),
    )
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["nodes"] == [{"id": 0, "leaf": "EPR(A,B)"}]
    assert payload["root"] == 0
    assert payload["analytic_value"] == 1.0
    assert '"truncation_mass": 0.0' in out_path.read_text()

    code, out, _ = run_cli(
        capsys, "tree", "--state", "W3", "--preset", "triangle",
        "--epsilon", "0.01", "--loop-cap", "10",
    )
    payload = json.loads(out)
    total = payload["success_lower_bound"] + payload["truncation_mass"]
    assert payload["analytic_value"] <= 1.0 + 1e-9
    assert 0.0 < payload["truncation_mass"] < 1.0
    assert total <= 1.0 + 1e-9
    # each node once: ids are positions, children come before parents
    nodes = payload["nodes"]
    assert [entry["id"] for entry in nodes] == list(range(len(nodes)))
    assert nodes[payload["root"]]["phase"] == "phase3"
    for entry in nodes:
        assert all(child["node"] < entry["id"] for child in entry.get("children", ()))


def test_tree_unwritable_path_exits_3(capsys, tmp_path):
    target = tmp_path / "missing" / "tree.json"
    code, _, err = run_cli(
        capsys, "tree", "--state", "W3", "--preset", "wedge", "--out", str(target)
    )
    assert code == 3
    assert "cannot write" in err


def test_a_closed_output_pipe_exits_3_without_a_traceback():
    # like `wdistill tree ... | head -1`: the reader takes one line and
    # closes the pipe while the tree JSON (about 190 KB) is still coming
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "wdistill.cli", "tree", "--state", "W4", "--preset", "IV",
         "--loop-cap", "60"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.stdout.readline() == "{\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 3
    assert "Traceback" not in err
    assert "Exception ignored" not in err


def test_simulate_json_and_csv(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--state", "W3", "--preset", "wedge",
        "--trials", "20000", "--seed", "5",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["trials"] == 20000
    assert payload["success_expected"] == pytest.approx(2 / 3, abs=1e-6)
    assert abs(payload["success_rate"] - 2 / 3) < 0.02

    code, out, _ = run_cli(
        capsys, "simulate", "--state", "W3", "--preset", "wedge",
        "--trials", "1000", "--seed", "5", "--format", "csv",
    )
    assert code == 0
    assert out.splitlines()[0] == "label,count,probability,empirical,std_err,z"


def test_simulate_ignores_the_deprecated_thread_variable(capsys, monkeypatch):
    argv = ("simulate", "--state", "W3", "--preset", "triangle", "--trials", "5000", "--seed", "2")
    code, base, _ = run_cli(capsys, *argv)
    assert code == 0
    monkeypatch.setenv("W_DISTILL_THREADS", "abc")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out == base


BAD_NUMBERS = [
    ("tree", "--loop-cap", "0"),
    ("tree", "--loop-cap", "-3"),
    ("tree", "--epsilon", "nan"),
    ("tree", "--epsilon", "0.5"),
    ("tree", "--epsilon", "inf"),
    ("simulate", "--loop-cap", "0"),
    ("simulate", "--loop-cap", "-3"),
    ("simulate", "--epsilon", "nan"),
    ("simulate", "--epsilon", "0.5"),
    ("simulate", "--epsilon", "inf"),
    ("simulate", "--trials", "0"),
    ("simulate", "--trials", "9223372036854775808"),
    ("simulate", "--trials", "100000000000000000000"),
    ("simulate", "--seed", "-1"),
]


@pytest.mark.parametrize("command,flag,value", BAD_NUMBERS, ids=["-".join(a) for a in BAD_NUMBERS])
def test_tree_and_simulate_reject_bad_numbers(capsys, command, flag, value):
    code, out, err = run_cli(capsys, command, "--state", "W3", "--preset", "triangle", flag, value)
    assert code == 2
    assert out == ""
    assert err.startswith("error: bad input: ")


@pytest.mark.parametrize("preset", ["I'", "I''"])
def test_prob_json_does_not_depend_on_the_hash_seed(preset):
    # the star bounds name the leaves by component, and at a tie by label
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outs = {
        subprocess.run(
            [sys.executable, "-m", "wdistill.cli", "prob", "--state", "W4", "--preset", preset,
             "--format", "json"],
            capture_output=True, text=True, check=True, timeout=60,
            env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": str(seed)},
        ).stdout
        for seed in range(4)
    }
    assert len(outs) == 1
    roles = json.loads(outs.pop())["bound"]["roles"]
    assert list(roles.values()) == ["A", "B", "C", "D"][:len(roles)]


@pytest.mark.parametrize(
    "argv,code",
    [
        (("tree", "--loop-cap", "5000"), 2),
        (("tree", "--loop-cap", "100000"), 2),
        (("simulate", "--loop-cap", "10000"), 2),
        (("tree", "--loop-cap", "1001"), 2),
        (("tree", "--loop-cap", "200", "--format", "dot"), 0),
        (("simulate", "--loop-cap", "200"), 0),
        (("tree", "--loop-cap", "1000"), 0),
    ],
    ids=["tree-5000", "tree-100000", "simulate-10000", "tree-1001", "tree-200", "simulate-200",
         "tree-1000"],
)
def test_deep_loop_caps_exit_2_without_crashing(argv, code):
    # in a child process, so that a stack overflow fails the test instead
    # of killing the test run
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    command, *rest = argv
    run = subprocess.run(
        [sys.executable, "-m", "wdistill.cli", command, "--state", "W3", "--preset", "triangle",
         *rest],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120,
    )
    assert run.returncode == code
    assert "Traceback" not in run.stderr
    if code == 2:
        assert run.stderr.startswith("error: bad input: ")
        assert "loop_cap must lie between 1 and 1000" in run.stderr


def test_fuzz_command(capsys):
    code, out, _ = run_cli(
        capsys, "fuzz", "--function", "tau", "--states", "60",
        "--measurements", "4", "--seed", "3",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["max_violation"] <= 1e-10


@pytest.mark.parametrize(
    "argv", [("--states", "0"), ("--measurements", "0")], ids=["no-states", "no-measurements"]
)
def test_fuzz_without_checks_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, "fuzz", "--function", "kt_i", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: bad input: ")


@pytest.mark.parametrize(
    "argv",
    [("--weak-radius", "-0.5"), ("--weak-radius", "nan"), ("--weak-radius", "0.2"), ("--seed", "-1")],
    ids=["negative-radius", "nan-radius", "strong-radius", "negative-seed"],
)
def test_fuzz_rejects_bad_radius_and_seed_with_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, "fuzz", "--function", "tau", "--states", "2", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: bad input: ")


def test_figure_sep_vs_locc(capsys):
    code, out, _ = run_cli(capsys, "figure", "--name", "sep-vs-locc", "--n-max", "5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "N,p_fl,p_sep"
    first = lines[1].split(",")
    assert first[0] == "2"
    assert float(first[1]) == pytest.approx(2 / 3, abs=1e-9)
    assert float(first[2]) == pytest.approx(math.sqrt(0.5), abs=1e-9)


def test_figure_w_target_bound(capsys):
    code, out, _ = run_cli(
        capsys, "figure", "--name", "w-target-bound", "--n", "5", "--points", "50"
    )
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    last = rows[-1]
    assert float(last[0]) == pytest.approx(1 / 5, abs=1e-12)
    assert float(last[1]) == pytest.approx(1.0, abs=1e-9)
    for t, bound, linear in rows[1:-1]:
        assert float(bound) < float(linear)


@pytest.mark.parametrize(
    "argv", [("--points", "0"), ("--n", "0"), ("--n", str(10**400))],
    ids=["no-points", "no-parties", "parties-beyond-floats"],
)
def test_figure_w_target_bound_rejects_empty_ranges_with_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, "figure", "--name", "w-target-bound", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: bad input: ")


@pytest.mark.parametrize("n_max", ["1", "-5"])
def test_figure_sep_vs_locc_rejects_an_empty_range_with_exit_2(capsys, n_max):
    code, out, err = run_cli(capsys, "figure", "--name", "sep-vs-locc", "--n-max", n_max)
    assert code == 2
    assert out == ""
    assert err.startswith("error: bad input: ")


def test_verify_filter_runs_clean_criteria(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--quick", "--filter", "w-target-bound,reference-constants"
    )
    assert code == 0
    assert "PASS  w-target-bound" in out
    assert "PASS  reference-constants" in out


def test_verify_names_the_documented_failures(capsys, monkeypatch):
    # a wrong baseline breaks the six-party check that quotes 2/5 as the
    # baseline's value; the failure line names it and points at the
    # analysis in docs/decisions.md
    real = verify_mod.p_fl
    monkeypatch.setattr(verify_mod, "p_fl", lambda graph: real(graph) + 1e-3)
    code, out, _ = run_cli(capsys, "verify", "--quick", "--filter", "paper-values")
    assert code == 1
    assert "FAIL  paper-values" in out
    assert "P_FL(W6, pairs)" in out
    assert "see docs/decisions.md" in out


def test_verify_mutation_is_caught(capsys, monkeypatch):
    real = bounds_mod.tau

    def flipped(state, graph):
        rep = real(state, graph)
        return type(rep)(rep.bound_name, -rep.value, rep.role_assignment, rep.applicable)

    monkeypatch.setattr(bounds_mod, "tau", flipped)
    code, out, _ = run_cli(capsys, "verify", "--quick", "--filter", "monotone-fuzz/tau")
    assert code == 1
    assert "FAIL  monotone-fuzz/tau" in out


def test_verify_rejects_a_negative_seed_with_exit_2(capsys):
    # the criteria derive their seeds by adding to it, and numpy takes
    # no negative seed
    code, out, err = run_cli(capsys, "verify", "--quick", "--filter", "closed", "--seed", "-25")
    assert code == 2
    assert out == ""
    assert err.startswith("error: bad input: ")


def test_verify_unknown_filter(capsys):
    code, _, err = run_cli(capsys, "verify", "--filter", "nonsense")
    assert code == 2
