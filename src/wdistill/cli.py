"""Command-line front end.

Subcommands: prob, tree, simulate, fuzz, figure, verify.  States and
graphs arrive as presets ("W4", "VI", "pairs:6"), inline JSON, or
@file.json references.  Numbers print with 12 significant digits.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import verify as verify_mod
from .bounds import pairs_comparison, resolve_bound, w_target_bound
from .core import (
    ConfigGraph,
    DistillationError,
    WState,
    graph_catalog,
    standard_w,
)
from .lpo import PhaseThreeSolver, build_protocol_tree, p_fl
from .mc import FUZZ_GRAPHS, monotone_fuzz, simulate

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_BAD_INPUT = 2
EXIT_UNWRITABLE = 3


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _load_spec_text(raw: str) -> object:
    if raw.startswith("@"):
        try:
            with open(raw[1:], "r", encoding="utf-8") as fh:
                raw = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise DistillationError(f"cannot read {raw[1:]!r}: {exc}") from None
    return json.loads(raw)


def _parse_graph(raw: str | None, preset: str | None) -> ConfigGraph:
    if (raw is None) == (preset is None):
        raise DistillationError("give exactly one graph source (--graph or --preset)")
    if preset is None:
        preset = raw.strip()
        if preset.startswith("{") or preset.startswith("@"):
            return ConfigGraph.from_json(_load_spec_text(raw))
    name, _, size = preset.partition(":")
    try:
        n = int(size) if size else None
    except ValueError:
        raise DistillationError(f"graph size {size!r} in {preset!r} is not an integer") from None
    return graph_catalog(name, n)


def _parse_state(raw: str, graph: ConfigGraph) -> WState:
    stripped = raw.strip()
    if stripped.upper().startswith("W") and stripped[1:].isdecimal():
        n = int(stripped[1:])
        if n != graph.n:
            raise DistillationError(f"state preset {stripped} does not fit a {graph.n}-node graph")
        return standard_w(graph.labels)
    data = _load_spec_text(raw)
    if isinstance(data, list):
        return WState(data, graph.labels)
    return WState.from_json(data)


def _write_out(text: str, path: str | None) -> int:
    if path is None:
        print(text)
        sys.stdout.flush()  # a closed pipe raises here, inside main's guard
        return EXIT_OK
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write {path}: {exc}", file=sys.stderr)
        return EXIT_UNWRITABLE
    return EXIT_OK


def cmd_prob(state: WState, graph: ConfigGraph, args) -> int:
    solver = PhaseThreeSolver()
    value = solver.p_lpo(state, graph)
    baseline = p_fl(graph)
    bound = resolve_bound(state, graph)
    lines = [f"P_LPO = {_fmt(value)}", f"P_FL  = {_fmt(baseline)}"]
    if bound is None:
        lines.append("bound = none applicable")
    else:
        tag = "" if bound.applicable else " [fallback: maximal-component precondition failed]"
        lines.append(f"bound[{bound.bound_name}] = {_fmt(bound.value)}{tag}")
        lines.append(f"gap to bound = {_fmt(bound.value - value)}")
    lines.append("optimization chain:")
    chain = solver.reports()
    for rep in chain:
        flag = " (limit)" if rep.attained_at_limit else ""
        lines.append(
            f"  {rep.subgraph_key}: value={_fmt(rep.value)} alpha={_fmt(rep.argmax_alpha)}{flag}"
        )
    if args.fmt == "json":
        payload = {
            "p_lpo": value,
            "p_fl": baseline,
            "bound": bound.to_json() if bound else None,
            "optimization_chain": [r.to_json() for r in chain],
        }
        return _write_out(json.dumps(payload, indent=2, sort_keys=True), args.out)
    return _write_out("\n".join(lines), args.out)


def cmd_tree(state: WState, graph: ConfigGraph, args) -> int:
    tree = build_protocol_tree(state, graph, args.epsilon, args.loop_cap)
    if args.fmt == "dot":
        return _write_out(tree.to_dot(), args.out)
    return _write_out(json.dumps(tree.to_json(), indent=2, sort_keys=True), args.out)


def cmd_simulate(state: WState, graph: ConfigGraph, args) -> int:
    tree = build_protocol_tree(state, graph, args.epsilon, args.loop_cap)
    result = simulate(tree, args.trials, args.seed)
    if args.fmt == "csv":
        return _write_out(result.to_csv(), args.out)
    return _write_out(result.to_json(), args.out)


def cmd_fuzz(args) -> int:
    worst = monotone_fuzz(
        args.function, args.states, args.measurements,
        weak_radius=args.weak_radius, seed=args.seed,
    )
    payload = {
        "function": args.function,
        "states": args.states,
        "measurements": args.measurements,
        "weak_radius": args.weak_radius,
        "seed": args.seed,
        "max_violation": worst,
    }
    code = _write_out(json.dumps(payload, sort_keys=True), args.out)
    if code != EXIT_OK:
        return code
    return EXIT_OK if worst <= verify_mod.FUZZ_TOL else EXIT_FAIL


def cmd_figure(args) -> int:
    if args.name == "sep-vs-locc":
        if args.n_max < 2:
            raise DistillationError("--n-max must be at least 2")
        lines = ["N,p_fl,p_sep"]
        for n in range(2, args.n_max + 1):
            lines.append(f"{n},{','.join(map(_fmt, pairs_comparison(n)))}")
    else:
        n = args.n
        if not 2 <= n <= sys.float_info.max:
            raise DistillationError("--n must lie between 2 and the largest float")
        if args.points < 1:
            raise DistillationError("--points must be at least 1")
        lines = ["t,bound,linear"]
        for i in range(args.points + 1):
            t = i / args.points / n
            lines.append(f"{_fmt(t)},{_fmt(w_target_bound(n, t))},{_fmt(n * t)}")
    return _write_out("\n".join(lines), args.out)


def cmd_verify(args) -> int:
    if args.seed < 0:
        raise DistillationError("--seed must not be negative")
    filters = [f for f in (args.filter or "").split(",") if f] or None
    results = verify_mod.run(filters=filters, quick=args.quick, seed=args.seed)
    if not results:
        print(f"error: no criteria match filter {args.filter!r}", file=sys.stderr)
        return EXIT_BAD_INPUT
    failed = []
    for res in results:
        print(f"{'PASS' if res.passed else 'FAIL'}  {res.name}  [{res.elapsed:.2f}s]")
        for line in res.details:
            if args.verbose or line.startswith("FAIL"):
                print(f"      {line}")
        if not res.passed:
            failed.append(res.name)
    if args.out:
        payload = {"passed": not failed, "criteria": [r.to_json() for r in results]}
        code = _write_out(json.dumps(payload, indent=2, sort_keys=True), args.out)
        if code != EXIT_OK:
            return code
    if failed:
        print(f"failing criteria: {', '.join(failed)}")
        return EXIT_FAIL
    return EXIT_OK


def _add_io_args(p):
    p.add_argument("--state", required=True, help='preset "W4", inline JSON, or @file')
    p.add_argument("--graph", help='preset name, inline JSON, or @file')
    p.add_argument("--preset", help="graph preset name (alias for --graph NAME)")
    p.add_argument("--out", help="write output here instead of stdout")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="wdistill",
        description="Random distillation of W-class states into target-pair graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prob", help="protocol value, baseline, and bound for one instance")
    _add_io_args(p)
    p.add_argument("--format", dest="fmt", choices=("text", "json"), default="text")

    p = sub.add_parser("tree", help="emit the unrolled protocol tree")
    _add_io_args(p)
    p.add_argument("--epsilon", type=float, default=1e-3)
    p.add_argument("--loop-cap", type=int, default=60)
    p.add_argument("--format", dest="fmt", choices=("json", "dot"), default="json")

    p = sub.add_parser("simulate", help="stochastic execution of the protocol tree")
    _add_io_args(p)
    p.add_argument("--epsilon", type=float, default=1e-3)
    p.add_argument("--loop-cap", type=int, default=60)
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json")

    p = sub.add_parser("fuzz", help="random search for monotone violations")
    p.add_argument("--function", choices=tuple(FUZZ_GRAPHS), required=True)
    p.add_argument("--states", type=int, default=1000)
    p.add_argument("--measurements", type=int, default=10)
    p.add_argument("--weak-radius", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")

    p = sub.add_parser("figure", help="CSV data for the comparison figures")
    p.add_argument("--name", choices=("sep-vs-locc", "w-target-bound"), required=True)
    p.add_argument("--n-max", type=int, default=20, help="largest pair count (sep-vs-locc)")
    p.add_argument("--n", type=int, default=4, help="party count (w-target-bound)")
    p.add_argument("--points", type=int, default=1000)
    p.add_argument("--out")

    p = sub.add_parser("verify", help="run the acceptance criteria")
    p.add_argument("--filter", help="comma-separated criterion name prefixes")
    p.add_argument("--quick", action="store_true", help="reduced sample sizes (smoke mode)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--verbose", action="store_true")
    p.add_argument("--out")

    args = parser.parse_args(argv)
    try:
        if args.command in ("prob", "tree", "simulate"):
            graph = _parse_graph(args.graph, args.preset)
            state = _parse_state(args.state, graph)
            command = {"prob": cmd_prob, "tree": cmd_tree, "simulate": cmd_simulate}[args.command]
            return command(state, graph, args)
        if args.command == "fuzz":
            return cmd_fuzz(args)
        if args.command == "figure":
            return cmd_figure(args)
        code = cmd_verify(args)
        sys.stdout.flush()
        return code
    except (json.JSONDecodeError, DistillationError) as exc:
        print(f"error: bad input: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except BrokenPipeError:
        # the reader went away: send what is still buffered nowhere, so
        # that the flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_UNWRITABLE


if __name__ == "__main__":
    sys.exit(main())
