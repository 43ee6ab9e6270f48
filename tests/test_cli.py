"""Command line interface: verdict exit codes and key=value output."""

import contextlib
import hashlib
import io
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import FORMULA_TEXTS, SYS_A_TEXT, SYS_STREETT_TEXT, T1_TEXT
from cpltl import cli
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


# p labels no state of this system, so F[<=x] p fails at every valuation.
NO_P_TEXT = """dim 1
state s0 init : q
state s1 : q kappa1
edge s0 s1 : 1
edge s1 s0 : 0
edge s1 s1 : 1
"""


def test_reserved_coloring_label_is_an_error(capsys, tmp_path):
    # Read as the coloring proposition, a label p@1 on both states made
    # the exists check of F[<=x] p hold on this system.
    labelled = tmp_path / "labelled.txt"
    labelled.write_text(NO_P_TEXT.replace(": q", ": q p@1"))
    code, pairs, captured = run(capsys, "check", str(labelled), "F[<=x] p")
    assert code == 2
    assert "holds" not in pairs
    assert "label 'p@1'" in captured.err
    plain = tmp_path / "plain.txt"
    plain.write_text(NO_P_TEXT)
    for mode in ((), ("--valuation", "x=100")):
        code, pairs, _ = run(capsys, "check", str(plain), "F[<=x] p", *mode)
        assert code == 1
        assert pairs["holds"] == "false"


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


def test_error_without_message_names_its_type(capsys, sys_file, monkeypatch):
    # Running out of memory raises a MemoryError with an empty message.
    def exhausted(args):
        raise MemoryError()

    monkeypatch.setattr(cli, "_cmd_check", exhausted)
    code, _, captured = run(capsys, "check", sys_file, MC1)
    assert code == 2
    assert captured.err == "error: MemoryError\n"


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
    assert (emitted["vertices"], emitted["edges"]) == ("4", "12")
    assert emitted["vertices"] == checked["product-vertices"]
    assert emitted["edges"] == checked["product-edges"]


def test_translate_product_output_is_pinned(capsys, sys_file, sys_a):
    code, _, captured = run(
        capsys, "translate", MC1, "--emit", "product", "--system", sys_file
    )
    assert code == 0
    lines = captured.out.splitlines()
    assert len(lines) == 21
    digest = hashlib.sha256(captured.out.encode()).hexdigest()
    assert digest == (
        "3f50686d255e819c1ef4d689a69b485137882f95f9a16b7e7b4a879ce81790c4"
    )
    # every edge costs what the system charges between the two states
    edges = [line.split() for line in lines if line.startswith("edge ")]
    assert len(edges) == 12
    for _, src, dst, colon, *cost in edges:
        assert colon == ":"
        step = (src.split("|")[0], dst.split("|")[0])
        assert tuple(int(c) for c in cost) == sys_a.cost[step]


# Two states at d=2, each entered at positive cost in one coordinate.
TINY_D2_TEXT = """dim 2
state s0 init : q kappa1
state s1 : p kappa2
edge s0 s1 : 0 2
edge s1 s0 : 1 0
edge s1 s1 : 0 1
"""


def test_translate_product_output_is_pinned_at_d2(capsys, tmp_path):
    path = tmp_path / "tiny.sys"
    path.write_text(TINY_D2_TEXT)
    for formula, size, digest in (
        # every successor of the initial vertex is a dead end
        (
            "G[<=y@2] q",
            75,
            "89b498eab1cda128dccfc710142559367a22417bb7f037398a66c9d0ad5dac03",
        ),
        (
            "X G[<=y@1] (p | q)",
            2021,
            "579e18e7650b9385c4efef82991361748e433c24e9ef960ea9412b1f82eb4035",
        ),
    ):
        code, _, captured = run(
            capsys, "translate", formula, "--emit", "product", "--system", str(path)
        )
        assert code == 0
        assert len(captured.out) == size
        assert hashlib.sha256(captured.out.encode()).hexdigest() == digest


def test_python_m_cpltl_exit_codes(tmp_path):
    # the package runs as a module, with the CLI's exit-code contract:
    # 0 holds, 1 fails, 2 error
    path = tmp_path / "sys.txt"
    path.write_text(SYS_A_TEXT)
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ, PYTHONPATH=src)

    def check(formula):
        return subprocess.run(
            [sys.executable, "-m", "cpltl", "check", str(path), formula],
            capture_output=True,
            text=True,
            env=env,
        )

    holds = check(MC1)
    assert holds.returncode == 0, holds.stderr
    assert "holds=true" in holds.stdout.splitlines()
    fails = check("G (q -> F[<=x] r)")
    assert fails.returncode == 1, fails.stderr
    assert "holds=false" in fails.stdout.splitlines()
    malformed = check("G (q ->")
    assert malformed.returncode == 2
    assert malformed.stdout == ""
    assert malformed.stderr.startswith("error: ")


# Malformed inputs: formulas joined from these tokens, some of them stray
# or broken, and SYS_A_TEXT with some lines replaced by bad ones or added.
FORMULA_PIECES = (
    "p", "!q", "&", "|", "->", "(", ")", "X", "F", "G", "U", "R",
    "F[<=x]", "G[<=y]", "F[<=x@0]", "F[<=x@2]", "G[<=x]", "F[<=", "]", "@1",
)
BAD_SYSTEM_LINES = (
    "dim 0",
    "dim two",
    "state s2",
    "state s0 init : p",
    "state s1 : q kappa2",
    "edge s0",
    "edge s0 s9 : 1",
    "edge s1 s0 : -1",
    "edge s1 s0 : x",
    "edge s0 s1 : 1 2",
    "edge s0 s1 3",
    "edge s0 s0 : 0",
)


@st.composite
def edited_systems(draw):
    lines = SYS_A_TEXT.splitlines()
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(lines) - 1))
        bad = draw(st.sampled_from(BAD_SYSTEM_LINES))
        if draw(st.booleans()):
            lines[at] = bad
        else:
            lines.insert(at, bad)
    return "\n".join(lines) + "\n"


@settings(
    derandomize=True,
    deadline=None,
    max_examples=150,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    st.lists(st.sampled_from(FORMULA_PIECES), min_size=1, max_size=6).map(" ".join),
    edited_systems(),
    st.sampled_from(((), ("--fixed",), ("--valuation", "x=1,y=2"), ("--forall",))),
)
def test_malformed_input_keeps_the_exit_code_contract(formula, system, mode):
    # 0 holds, 1 fails, 2 error, and an error says so on stderr
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "sys.txt")
        with open(path, "w") as handle:
            handle.write(system)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(["check", path, formula, *mode])
            except SystemExit as exc:
                code = exc.code
    assert code in (0, 1, 2), (formula, system, mode)
    if code == 2:
        assert "error:" in err.getvalue(), (formula, system, mode)


def test_deep_parenthesized_formula_answers_like_unwrapped(capsys, sys_file):
    # one loop reads parentheses at any depth, so 20,000 of them around the
    # lift query leave its answer as it is
    code, pairs, captured = run(capsys, "check", sys_file, MC1)
    assert (code, pairs["holds"]) == (0, "true")
    deep = run(capsys, "check", sys_file, "(" * 20_000 + MC1 + ")" * 20_000)
    assert (deep[0], deep[2].out, deep[2].err) == (code, captured.out, captured.err)


@settings(
    deadline=None,
    max_examples=40,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    st.sampled_from(FORMULA_TEXTS),
    st.integers(161, 5000),
    st.sampled_from((0, 0, -1, 1, -7, 7)),
)
def test_deep_parentheses_keep_the_exit_code_contract(text, depth, surplus):
    # nested deeper than recursive descent could read, a balanced formula
    # gets the answer of the unwrapped one, and an unbalanced one is an
    # error, never a verdict
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "sys.txt")
        with open(path, "w") as handle:
            handle.write(SYS_A_TEXT)
        answers = []
        for formula in (text, "(" * depth + text + ")" * (depth + surplus)):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["check", path, formula, "--fixed"])
            answers.append((code, out.getvalue(), err.getvalue()))
    plain, deep = answers
    assert plain[0] in (0, 1), plain
    if surplus == 0:
        assert deep == plain
    else:
        assert deep[0] == 2
        assert deep[2].startswith("error:")


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
