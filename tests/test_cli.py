import json
import math
import os

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
    ],
    ids=["truncated-json", "nan-component", "string-component", "preset-size", "graph-size"],
)
def test_prob_malformed_json_exits_2(capsys, argv):
    code, _, err = run_cli(capsys, "prob", *argv)
    assert code == 2
    assert "bad input" in err


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
    assert payload["root"] == {"leaf": "EPR(A,B)"}
    assert payload["analytic_value"] == 1.0

    code, out, _ = run_cli(
        capsys, "tree", "--state", "W3", "--preset", "triangle",
        "--epsilon", "0.01", "--loop-cap", "10",
    )
    payload = json.loads(out)
    total = payload["success_lower_bound"] + payload["truncation_mass"]
    assert payload["analytic_value"] <= 1.0 + 1e-9
    assert 0.0 < payload["truncation_mass"] < 1.0
    assert total <= 1.0 + 1e-9


def test_tree_unwritable_path_exits_3(capsys, tmp_path):
    target = tmp_path / "missing" / "tree.json"
    code, _, err = run_cli(
        capsys, "tree", "--state", "W3", "--preset", "wedge", "--out", str(target)
    )
    assert code == 3
    assert "cannot write" in err


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


def test_verify_unknown_filter(capsys):
    code, _, err = run_cli(capsys, "verify", "--filter", "nonsense")
    assert code == 2
