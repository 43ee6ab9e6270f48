"""Command line interface: verdict exit codes and key=value output."""

import hashlib

import pytest

from conftest import SYS_A_TEXT, SYS_STREETT_TEXT, T1_TEXT
from cpltl.cli import main

MC1 = "G (q -> F[<=x] p)"


@pytest.fixture()
def sys_file(tmp_path):
    path = tmp_path / "sys.txt"
    path.write_text(SYS_A_TEXT)
    return str(path)


@pytest.fixture()
def trace_file(tmp_path):
    path = tmp_path / "trace.txt"
    path.write_text(T1_TEXT)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    pairs = {}
    for line in captured.out.splitlines():
        key, eq, value = line.partition("=")
        if eq and " " not in key and not line.startswith(" "):
            pairs.setdefault(key, value)
    return code, pairs, captured


def test_check_exists(capsys, sys_file):
    code, pairs, _ = run(capsys, "check", sys_file, MC1)
    assert code == 0
    assert pairs["mode"] == "exists"
    assert pairs["holds"] == "true"
    assert int(pairs["bound"]) > 0
    assert int(pairs["product-vertices"]) > 0


def test_check_exists_negative_prints_witness(capsys, sys_file):
    code, pairs, captured = run(capsys, "check", sys_file, "G (q -> F[<=x] r)")
    assert code == 1
    assert pairs["holds"] == "false"
    assert "witness-loop:" in captured.out


def test_check_fixed_verdicts(capsys, sys_file):
    code, pairs, _ = run(capsys, "check", sys_file, MC1, "--valuation", "x=3")
    assert code == 0
    assert pairs["mode"] == "fixed"
    assert pairs["valuation"] == "x=3"
    assert pairs["holds"] == "true"
    code, pairs, captured = run(capsys, "check", sys_file, MC1, "--valuation", "x=2")
    assert code == 1
    assert pairs["holds"] == "false"
    assert pairs["path-prefix"] == "s0"
    assert pairs["path-loop"] == "s1"


def test_counterexample_replays_through_eval_trace(capsys, sys_file, tmp_path):
    code, _, captured = run(capsys, "check", sys_file, MC1, "--valuation", "x=2")
    assert code == 1
    lines = captured.out.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("dim "))
    replay = tmp_path / "cex.txt"
    replay.write_text("\n".join(lines[start:]) + "\n")
    code, pairs, _ = run(
        capsys, "eval-trace", str(replay), MC1, "--valuation", "x=2"
    )
    assert code == 1
    assert pairs["holds"] == "false"
    # the same lasso is fine once the budget is raised
    code, pairs, _ = run(
        capsys, "eval-trace", str(replay), MC1, "--valuation", "x=3"
    )
    assert code == 0


def test_check_fixed_defaults_parameters_to_zero(capsys, sys_file):
    code, pairs, _ = run(capsys, "check", sys_file, MC1, "--fixed")
    assert code == 1
    assert pairs["valuation"] == "-"
    code, _, captured = run(capsys, "check", sys_file, MC1, "--fixed", "--strict")
    assert code == 2
    assert "unbound" in captured.err


def test_check_forall(capsys, sys_file):
    code, pairs, _ = run(capsys, "check", sys_file, "G[<=y] q", "--forall")
    assert code == 1
    assert pairs["mode"] == "forall"
    assert pairs["holds"] == "false"
    assert pairs["corner"] == f"y={pairs['bound']}"
    assert (pairs["path-prefix"], pairs["path-loop"]) == ("-", "s0 s1")
    code, pairs, _ = run(capsys, "check", sys_file, "G[<=y] (q | p)", "--forall")
    assert code == 0
    assert pairs["holds"] == "true"


def test_check_strict_needs_fixed_mode(capsys, sys_file):
    # --strict only judges a fixed valuation; elsewhere it is refused, not ignored
    for argv in ((MC1, "--strict"), ("G[<=y] q", "--forall", "--strict")):
        code, pairs, captured = run(capsys, "check", sys_file, *argv)
        assert code == 2
        assert "holds" not in pairs
        assert "--strict needs --valuation or --fixed" in captured.err


def test_check_mode_conflict(capsys, sys_file):
    code, _, captured = run(
        capsys, "check", sys_file, MC1, "--forall", "--valuation", "x=1"
    )
    assert code == 2
    assert "pick one" in captured.err


def test_check_forall_rejects_f_parameters(capsys, sys_file):
    code, _, captured = run(capsys, "check", sys_file, MC1, "--forall")
    assert code == 2
    assert "error:" in captured.err


def test_optimize_min_min(capsys, sys_file):
    code, pairs, _ = run(
        capsys, "optimize", sys_file, MC1, "--objective", "min-min"
    )
    assert code == 0
    assert pairs["status"] == "optimal"
    assert pairs["value"] == "3"
    assert pairs["witness"] == "x=3"
    assert pairs["empty-domain"] == "false"


def test_optimize_max_max(capsys, sys_file):
    code, pairs, _ = run(
        capsys, "optimize", sys_file, "G[<=y] q", "--objective", "max-max"
    )
    assert code == 0
    assert (pairs["status"], pairs["value"], pairs["witness"]) == (
        "optimal",
        "2",
        "y=2",
    )


def test_optimize_infeasible_and_unbounded(capsys, sys_file):
    code, pairs, _ = run(
        capsys, "optimize", sys_file, "F[<=x] r", "--objective", "min-max"
    )
    assert code == 1
    assert (pairs["status"], pairs["value"], pairs["witness"]) == (
        "infeasible",
        "-",
        "-",
    )
    code, pairs, _ = run(
        capsys, "optimize", sys_file, "G[<=y] (q | p)", "--objective", "max-min"
    )
    assert code == 0
    assert pairs["status"] == "unbounded"


def test_optimize_multi_coordinate(capsys, tmp_path):
    streett = tmp_path / "streett.txt"
    streett.write_text(SYS_STREETT_TEXT)
    phi = "G[<=y@1] (Q1 | P1)"
    code, pairs, _ = run(
        capsys, "optimize", str(streett), phi, "--objective", "max-max"
    )
    assert code == 0
    assert (pairs["status"], pairs["value"], pairs["witness"]) == (
        "optimal",
        "1",
        "y=1",
    )
    with pytest.raises(SystemExit) as stop:
        main(["optimize", str(streett), phi, "--objective", "max-max", "--exhaustive"])
    assert stop.value.code == 2
    assert "--exhaustive" in capsys.readouterr().err


def test_optimize_rejects_mismatched_objective(capsys, sys_file):
    code, _, captured = run(
        capsys, "optimize", sys_file, "G[<=y] q", "--objective", "min-min"
    )
    assert code == 2
    assert "error:" in captured.err


def test_eval_trace(capsys, trace_file):
    code, pairs, _ = run(
        capsys, "eval-trace", trace_file, "F[<=x] p", "--valuation", "x=3"
    )
    assert code == 0
    assert pairs["holds"] == "true"
    code, pairs, _ = run(
        capsys, "eval-trace", trace_file, "F[<=x] p", "--valuation", "x=2"
    )
    assert code == 1
    code, pairs, _ = run(
        capsys, "eval-trace", trace_file, "p", "--position", "1"
    )
    assert code == 0
    code, _, _ = run(capsys, "eval-trace", trace_file, "F[<=x] p", "--strict")
    assert code == 2


def test_eval_trace_rejects_negative_position(capsys, trace_file):
    for pos in ("-1", "-5"):
        code, pairs, captured = run(
            capsys, "eval-trace", trace_file, "F[<=x] p", "--position", pos
        )
        assert code == 2
        assert "holds" not in pairs
        assert "non-negative" in captured.err


def test_eval_trace_rejects_inconsistent_file(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("dim 1\nloop:\n{p} -> 1\n{q} -> 0\n")  # missing kappa1
    code, _, captured = run(capsys, "eval-trace", str(bad), "p")
    assert code == 2
    assert "kappa1" in captured.err


def test_translate_nba(capsys):
    code, pairs, captured = run(capsys, "translate", "G p", "--emit", "nba")
    assert code == 0
    assert pairs["states"] == "1"
    assert any(line.startswith("trans ") for line in captured.out.splitlines())


def test_translate_relativized(capsys):
    code, pairs, _ = run(
        capsys, "translate", "F[<=x] q", "--emit", "relativized", "--dim", "1"
    )
    assert code == 0
    assert pairs["dim"] == "1"
    assert "p@1" in pairs["formula"]


def test_translate_rejects_dimension_below_one(capsys):
    for dim in ("0", "-2"):
        with pytest.raises(SystemExit) as stop:
            main(["translate", "p", "--emit", "relativized", "--dim", dim])
        assert stop.value.code == 2
        assert "at least 1" in capsys.readouterr().err


def test_translate_dim_conflicts_with_system(capsys, sys_file):
    # the system fixes the dimension; a --dim beside it would be ignored
    for argv in (
        ("--emit", "relativized", "--system", sys_file, "--dim", "3"),
        ("--emit", "nba", "--dim", "2"),
    ):
        code, pairs, captured = run(capsys, "translate", "p", *argv)
        assert code == 2
        assert "emit" not in pairs
        assert "--dim applies to --emit relativized without --system" in captured.err
    code, pairs, _ = run(
        capsys, "translate", "F[<=x] p", "--emit", "relativized", "--system", sys_file
    )
    assert (code, pairs["dim"]) == (0, "1")


def test_translate_product_needs_system(capsys, sys_file):
    code, _, captured = run(capsys, "translate", "G p", "--emit", "product")
    assert code == 2
    code, pairs, _ = run(
        capsys, "translate", "G p", "--emit", "product", "--system", sys_file
    )
    assert code == 0
    assert int(pairs["vertices"]) > 0


def test_formula_from_file(capsys, sys_file, tmp_path):
    formula_file = tmp_path / "phi.txt"
    formula_file.write_text(MC1 + "\n")
    code, pairs, _ = run(
        capsys, "check", sys_file, "@" + str(formula_file), "--valuation", "x=3"
    )
    assert code == 0
    assert pairs["holds"] == "true"


def test_usage_errors(capsys, sys_file, trace_file):
    code, _, captured = run(capsys, "check", sys_file, "p &&& q")
    assert code == 2
    assert "error:" in captured.err
    code, _, _ = run(capsys, "check", "no-such-file", "p")
    assert code == 2
    code, _, _ = run(
        capsys, "eval-trace", trace_file, "p", "--valuation", "x=oops"
    )
    assert code == 2
    with pytest.raises(SystemExit):
        main(["no-such-command"])


@pytest.mark.parametrize(
    "given", [("y=2", "y=9"), ("y=2,y=9",), ("x=1 y=2", "y=2")]
)
def test_repeated_parameter_is_an_error(capsys, sys_file, trace_file, given):
    flags = [arg for value in given for arg in ("--valuation", value)]
    for argv in (
        ["check", sys_file, "G[<=y] q", *flags],
        ["eval-trace", trace_file, "G[<=y] q", *flags],
    ):
        code, pairs, captured = run(capsys, *argv)
        assert code == 2
        assert "holds" not in pairs
        assert "parameter y given twice" in captured.err


def test_translate_product_is_the_exists_product(capsys, sys_file):
    code, checked, _ = run(capsys, "check", sys_file, MC1)
    assert code == 0
    code, emitted, _ = run(
        capsys, "translate", MC1, "--emit", "product", "--system", sys_file
    )
    assert code == 0
    assert (emitted["vertices"], emitted["edges"]) == ("57", "140")
    assert emitted["vertices"] == checked["product-vertices"]
    assert emitted["edges"] == checked["product-edges"]


def test_translate_product_output_is_pinned(capsys, sys_file, sys_a):
    code, _, captured = run(
        capsys, "translate", MC1, "--emit", "product", "--system", sys_file
    )
    assert code == 0
    lines = captured.out.splitlines()
    assert len(lines) == 202
    digest = hashlib.sha256(captured.out.encode()).hexdigest()
    assert digest == (
        "2aba74a3fbfaccac81fe9288c21920da2a1aca053dcf9b67465430e3a7395e47"
    )
    # every edge costs what the system charges between the two states
    edges = [line.split() for line in lines if line.startswith("edge ")]
    assert len(edges) == 140
    for _, src, dst, colon, *cost in edges:
        assert colon == ":"
        step = (src.split("|")[0], dst.split("|")[0])
        assert tuple(int(c) for c in cost) == sys_a.cost[step]


def test_deep_formula_exits_with_error_not_verdict(capsys, sys_file):
    # parentheses nest by recursive descent, so 3000 of them are a parse
    # error, never a verdict
    code, _, captured = run(capsys, "check", sys_file, "(" * 3000 + "p" + ")" * 3000)
    assert code == 2
    assert captured.err.startswith("error: parentheses nested too deeply")


def test_deep_fixed_query_answers_at_3000(capsys, sys_file):
    # prefix chains parse in a loop and every formula walk is iterative
    code, pairs, captured = run(capsys, "check", sys_file, "X " * 3000 + "p", "--fixed")
    assert code == 1, captured.err
    assert pairs["holds"] == "false"
    assert "counterexample:" in captured.out


def test_deep_fixed_query_answers(capsys, sys_file):
    # the budget automaton orders its successors without walking formulas,
    # so a 400-deep X chain gets a verdict instead of a recursion error
    code, pairs, captured = run(capsys, "check", sys_file, "X " * 400 + "p", "--fixed")
    assert code == 1, captured.err
    assert pairs["holds"] == "false"
    assert "counterexample:" in captured.out


def test_deep_fixed_query_answers_at_800(capsys, sys_file):
    # formula nodes hash once, at construction, so putting an 800-deep
    # X chain into a set does not recurse through the chain
    code, pairs, captured = run(capsys, "check", sys_file, "X " * 800 + "p", "--fixed")
    assert code == 1, captured.err
    assert pairs["holds"] == "false"
    assert "counterexample:" in captured.out


def test_deep_exists_query_answers(capsys, sys_file):
    # the exists translation interns the formula and builds its sort keys
    # bottom-up, so a 400-deep X chain gets a verdict, not a recursion error
    code, pairs, captured = run(capsys, "check", sys_file, "X " * 400 + "p")
    assert code == 1, captured.err
    assert pairs["mode"] == "exists"
    assert pairs["holds"] == "false"
    assert "witness-prefix:" in captured.out
