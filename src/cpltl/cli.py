"""Command line front end.

Subcommands: check (exists / fixed / forall), optimize, eval-trace,
translate.  Results go to stdout as key=value lines; lasso
counterexamples are printed in the trace file format so they can be fed
back to eval-trace.  Exit codes: 0 when the property holds or an optimum
(or unbounded supremum) was found, 1 when it fails or is infeasible, 2 on
usage, format, or fragment errors and on any other error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .automata import guard_text, ltl_to_nba
from .formula import (
    Formula,
    eliminate_parametric_always,
    parse,
    pretty_print,
    relativize,
    require_well_formed,
    validate_coords,
    var_profile,
)
from .modelcheck import (
    build_product,
    check_exists,
    check_fixed,
    check_forall,
    exists_automaton,
)
from .optimize import Objective, optimize_mc
from .system import TransitionSystem, parse_system, trace_of
from .trace import evaluate, format_trace, parse_trace


def _say(key: str, value) -> None:
    if isinstance(value, bool):
        value = "true" if value else "false"
    print(f"{key}={value}")


def _formula_arg(text: str) -> Formula:
    if text.startswith("@"):
        text = Path(text[1:]).read_text()
    return parse(text)


def _valuation_arg(items) -> dict:
    valuation: dict = {}
    for chunk in items or ():
        for part in chunk.replace(",", " ").split():
            name, eq, raw = part.partition("=")
            if not eq or not name:
                raise ValueError(f"expected NAME=INT, got {part!r}")
            try:
                value = int(raw)
            except ValueError:
                raise ValueError(f"expected NAME=INT, got {part!r}") from None
            if value < 0:
                raise ValueError(f"parameter {name} must be >= 0")
            if name in valuation:
                raise ValueError(f"parameter {name} given twice")
            valuation[name] = value
    return valuation


def _valuation_text(valuation) -> str:
    if not valuation:
        return "-"
    return ",".join(f"{k}={v}" for k, v in sorted(valuation.items()))


def _print_counterexample(system: TransitionSystem, path) -> None:
    print("counterexample:")
    print(f"path-prefix={' '.join(path.prefix) if path.prefix else '-'}")
    print(f"path-loop={' '.join(path.loop)}")
    print(format_trace(trace_of(system, path)))


def _print_product_witness(witness) -> None:
    for title, part in (("witness-prefix", witness[0]), ("witness-loop", witness[1])):
        print(f"{title}:")
        for state, auto_state, colors in part:
            shown = ",".join(sorted(colors)) if colors else "-"
            print(f"  state={state} auto={auto_state} colors={shown}")


# --- check ------------------------------------------------------------------


def _cmd_check(args) -> int:
    system = parse_system(Path(args.system).read_text())
    phi = _formula_arg(args.formula)
    fixed = args.fixed or args.valuation is not None
    if args.forall and fixed:
        print("error: pick one of --forall or --valuation/--fixed", file=sys.stderr)
        return 2
    if args.strict and not fixed:
        print("error: --strict needs --valuation or --fixed", file=sys.stderr)
        return 2

    if args.forall:
        result = check_forall(system, phi)
        _say("mode", "forall")
        _say("bound", result.bound)
        _say("corner", _valuation_text(result.corner))
        _say("holds", result.holds)
        if result.counterexample is not None:
            _print_counterexample(system, result.counterexample)
        return 0 if result.holds else 1

    if fixed:
        valuation = _valuation_arg(args.valuation)
        if args.strict:
            unbound = sorted(var_profile(phi).variables - valuation.keys())
            if unbound:
                print(
                    "error: unbound parameters: " + ", ".join(unbound),
                    file=sys.stderr,
                )
                return 2
        result = check_fixed(system, phi, valuation)
        _say("mode", "fixed")
        _say("valuation", _valuation_text(valuation))
        _say("holds", result.holds)
        _say("explored", result.explored)
        if result.counterexample is not None:
            _print_counterexample(system, result.counterexample)
        return 0 if result.holds else 1

    result = check_exists(system, phi)
    _say("mode", "exists")
    _say("holds", result.holds)
    _say("bound", result.bound)
    _say("automaton-states", result.automaton_states)
    _say("product-vertices", result.product_vertices)
    _say("product-edges", result.product_edges)
    if result.witness is not None:
        _print_product_witness(result.witness)
    return 0 if result.holds else 1


# --- optimize ----------------------------------------------------------------


def _cmd_optimize(args) -> int:
    system = parse_system(Path(args.system).read_text())
    phi = _formula_arg(args.formula)
    result = optimize_mc(system, phi, Objective(args.objective))
    _say("mode", "optimize")
    _say("objective", args.objective)
    _say("status", result.status)
    _say("value", result.value if result.value is not None else "-")
    _say(
        "witness",
        _valuation_text(result.witness) if result.witness is not None else "-",
    )
    _say("bound", result.bound)
    _say("probes", result.probes)
    _say("empty-domain", result.empty_domain)
    return 0 if result.status in ("optimal", "unbounded") else 1


# --- eval-trace ---------------------------------------------------------------


def _cmd_eval_trace(args) -> int:
    trace = parse_trace(Path(args.trace).read_text())
    phi = _formula_arg(args.formula)
    valuation = _valuation_arg(args.valuation)
    holds = evaluate(trace, args.position, valuation, phi, strict=args.strict)
    _say("mode", "eval-trace")
    _say("position", args.position)
    _say("valuation", _valuation_text(valuation))
    _say("holds", holds)
    return 0 if holds else 1


# --- translate ----------------------------------------------------------------


def _cmd_translate(args) -> int:
    phi = _formula_arg(args.formula)
    if args.dim is not None and (args.emit != "relativized" or args.system):
        print(
            "error: --dim applies to --emit relativized without --system",
            file=sys.stderr,
        )
        return 2
    system = None
    if args.system is not None:
        system = parse_system(Path(args.system).read_text())

    if args.emit == "nba":
        auto = ltl_to_nba(phi)
        _say("emit", "nba")
        _say("states", auto.n_states)
        _say("initial", auto.initial)
        _say("accepting", ",".join(sorted(auto.accepting)) or "-")
        for src, guard, dst in auto.edges():
            print(f"trans {src} {dst} : {guard_text(guard)}")
        return 0

    if args.emit == "relativized":
        require_well_formed(phi)
        d = system.d if system is not None else args.dim or 1
        rewritten = relativize(eliminate_parametric_always(phi), d)
        _say("emit", "relativized")
        _say("dim", d)
        _say("formula", pretty_print(rewritten))
        return 0

    # product
    if system is None:
        print("error: --emit product needs --system", file=sys.stderr)
        return 2
    require_well_formed(phi)
    validate_coords(phi, system.d)
    graph = build_product(system, exists_automaton(phi, system.d))

    def vertex_name(vertex) -> str:
        state, auto_state, colors = vertex
        shown = ",".join(sorted(colors)) if colors else "-"
        return f"{state}|{auto_state}|{shown}"

    names = [vertex_name(v) for v in graph.vertices]
    states = [graph.states[p] for p in graph.place]
    _say("emit", "product")
    _say("vertices", graph.n_vertices)
    _say("edges", graph.n_edges())
    _say("accepting", sum(graph.accept))
    _say("initial", names[0])
    for name, ok in zip(names, graph.accept):
        print(f"vertex {name}{' accepting' if ok else ''}")
    for u, out in enumerate(graph.succ):
        for w in out:
            cost = graph.system_cost[states[u], states[w]]
            print(f"edge {names[u]} {names[w]} : {' '.join(map(str, cost))}")
    return 0


# --- entry point --------------------------------------------------------------


def _dimension(text: str) -> int:
    try:
        d = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if d < 1:
        raise argparse.ArgumentTypeError(f"dimension must be at least 1, got {d}")
    return d


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cpltl",
        description=(
            "Model checking and parameter optimization for LTL with "
            "cost-bounded operators over weighted transition systems."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser(
        "check", help="decide a formula against a system"
    )
    check.add_argument("system", help="system file")
    check.add_argument("formula", help="formula text, or @FILE")
    check.add_argument(
        "--valuation",
        action="append",
        metavar="NAME=INT",
        help="fix parameter values (repeatable; implies a fixed check)",
    )
    check.add_argument(
        "--fixed",
        action="store_true",
        help="fixed check with unlisted parameters at 0",
    )
    check.add_argument(
        "--forall",
        action="store_true",
        help="require the formula for every valuation (G-bounded only)",
    )
    check.add_argument(
        "--strict",
        action="store_true",
        help="reject valuations that leave parameters unbound",
    )
    check.set_defaults(run=_cmd_check)

    opt = sub.add_parser("optimize", help="optimal parameter valuation")
    opt.add_argument("system", help="system file")
    opt.add_argument("formula", help="formula text, or @FILE")
    opt.add_argument(
        "--objective",
        required=True,
        choices=[o.value for o in Objective],
    )
    opt.set_defaults(run=_cmd_optimize)

    ev = sub.add_parser("eval-trace", help="evaluate a formula on a trace")
    ev.add_argument("trace", help="trace file")
    ev.add_argument("formula", help="formula text, or @FILE")
    ev.add_argument(
        "--valuation", action="append", metavar="NAME=INT", default=None
    )
    ev.add_argument("--position", type=int, default=0)
    ev.add_argument(
        "--strict",
        action="store_true",
        help="error on parameters missing from the valuation",
    )
    ev.set_defaults(run=_cmd_eval_trace)

    tr = sub.add_parser("translate", help="dump intermediate constructions")
    tr.add_argument("formula", help="formula text, or @FILE")
    tr.add_argument(
        "--emit",
        choices=["nba", "relativized", "product"],
        default="nba",
    )
    tr.add_argument("--system", default=None, help="system file (product)")
    tr.add_argument(
        "--dim",
        type=_dimension,
        default=None,
        help="coordinates for --emit relativized (default 1, or the system's)",
    )
    tr.set_defaults(run=_cmd_translate)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except Exception as exc:
        # Exit code 1 means "property fails"; no error may be mistaken for it.
        # Some errors, MemoryError among them, carry no message.
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
