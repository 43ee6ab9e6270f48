"""Model checking: fixed valuations, parameter existence, universal checks."""

import os
import random
import subprocess
import sys

import pytest

from conftest import (
    SYS_A_TEXT,
    box_valuations,
    build_system,
    oracle_holds,
    random_system,
)
from cpltl.formula import (
    And,
    Atom,
    FLe,
    FormulaError,
    FragmentError,
    GLe,
    chi_formula,
    color_name,
    eliminate_parametric_always,
    negate,
    parse,
    relativize,
)
from cpltl import modelcheck
from cpltl.automata import BuchiAutomaton, find_accepting_lasso, ltl_to_nba
from cpltl.modelcheck import (
    bound_value,
    build_product,
    check_exists,
    check_fixed,
    check_forall,
    pumpable_fair_path,
    valuation_upper_bound,
    verify_pumpable,
)
from cpltl.system import LassoPath, parse_system, trace_of
from cpltl.trace import evaluate

MC1 = "G (q -> F[<=x] p)"


@pytest.fixture(scope="module")
def sys_a():
    return parse_system(SYS_A_TEXT)


def exists_product(system, phi):
    """The colored product graph the existence check searches."""
    target = And(
        negate(relativize(eliminate_parametric_always(phi), system.d)),
        chi_formula(system.d),
    )
    return build_product(system, ltl_to_nba(target))


def test_bound_value_frozen():
    assert bound_value(2, 1, 1, 3) == 26
    assert bound_value(2, 1, 1, 0) == 2
    assert bound_value(3, 5, 2, 4) == 482


def test_check_fixed_frozen(sys_a):
    phi = parse(MC1)
    good = check_fixed(sys_a, phi, {"x": 3})
    assert good.holds
    assert good.counterexample is None
    bad = check_fixed(sys_a, phi, {"x": 2})
    assert not bad.holds
    assert bad.counterexample == LassoPath(("s0",), ("s1",))
    # the decision pass stops at the first fair component, after 3 of the
    # 4 reachable product nodes; the counterexample search is not counted
    assert bad.explored == 3


def test_counterexample_replays(sys_a):
    phi = parse(MC1)
    result = check_fixed(sys_a, phi, {"x": 2})
    trace = trace_of(sys_a, result.counterexample)
    assert not evaluate(trace, 0, {"x": 2}, phi)


def test_deep_fixed_query_answers_twice(sys_a):
    # the second query finds the first one's automaton in the cache, which
    # compares two distinct 3000-deep formulas for equality
    text = "X " * 3000 + "p"
    first = check_fixed(sys_a, parse(text), {})
    second = check_fixed(sys_a, parse(text), {})
    assert not first.holds and not second.holds
    assert first.counterexample == second.counterexample


def test_check_fixed_matches_oracle_smoke():
    rng = random.Random(414)
    texts = ("F[<=x] p", "G[<=y] q", MC1, "p U q", "F[<=x] p & G[<=y] q")
    for _ in range(6):
        system = random_system(rng)
        for text in texts:
            phi = parse(text)
            for valuation in box_valuations(phi, 3):
                got = check_fixed(system, phi, valuation).holds
                want = oracle_holds(system, phi, valuation)
                assert got is want, (text, valuation, system)


def test_check_exists_positive(sys_a):
    result = check_exists(sys_a, parse(MC1))
    assert result.holds
    assert result.witness is None
    assert result.product_vertices > 0
    assert result.product_edges > 0
    assert result.bound == bound_value(2, result.automaton_states, 1, 3)
    assert valuation_upper_bound(sys_a, parse(MC1)) == result.bound
    # a valuation within the bound indeed works
    assert check_fixed(sys_a, parse(MC1), {"x": 3}).holds
    assert 3 <= result.bound


def test_check_exists_negative_witness_verifies(sys_a):
    phi = parse("G (q -> F[<=x] r)")  # r never labels any state
    result = check_exists(sys_a, phi)
    assert not result.holds
    prefix, loop = result.witness
    graph = exists_product(sys_a, phi)
    assert verify_pumpable(graph, prefix, loop) == []
    # tampering with the path must be caught
    assert verify_pumpable(graph, prefix, loop[:-1])
    assert verify_pumpable(graph, prefix, loop[1:] + loop[:1])
    assert verify_pumpable(graph, (), loop)


def test_check_exists_bounded_always(sys_a):
    assert check_exists(sys_a, parse("G[<=y] q")).holds
    assert check_exists(sys_a, parse("G[<=y] r")).holds is False


def test_check_forall(sys_a):
    narrow = check_forall(sys_a, parse("G[<=y] q"))
    assert not narrow.holds
    assert narrow.corner == {"y": narrow.bound}
    assert narrow.counterexample == LassoPath((), ("s0", "s1"))
    # the counterexample fails already at a small budget of the same shape
    trace = trace_of(sys_a, narrow.counterexample)
    assert not evaluate(trace, 0, {"y": narrow.bound}, parse("G[<=y] q"))
    wide = check_forall(sys_a, parse("G[<=y] (q | p)"))
    assert wide.holds
    assert wide.counterexample is None


FORALL_TEXTS = (
    "G[<=y] q",
    "G[<=y] (p | q)",
    "G (p -> G[<=y] q)",
    "G[<=y] q & G[<=z] p",
    "p U G[<=y] q",
    "F G[<=y] q",
)


def _assert_forall_agrees(system, phi, corner_check=True):
    """check_forall against the oracle and, unless the bound is too large
    for it, the check at the corner valuation that it replaced."""
    result = check_forall(system, phi)
    assert result.corner == dict.fromkeys(sorted(result.corner), result.bound)
    if corner_check:
        assert result.holds == check_fixed(system, phi, result.corner).holds
    at_cap = dict.fromkeys(result.corner, 32)
    assert result.holds == oracle_holds(system, phi, at_cap)
    if not result.holds:
        trace = trace_of(system, result.counterexample)
        assert not evaluate(trace, 0, result.corner, phi)
    return result


def test_forall_matches_corner_check(system_pool):
    verdicts = []
    for system in system_pool[:40]:
        for text in FORALL_TEXTS:
            verdicts.append(_assert_forall_agrees(system, parse(text)).holds)
    # At d = 2 the bound exceeds 10^5, so only the oracle judges.
    rng = random.Random(4242)
    for _ in range(8):
        system = random_system(rng, max_states=3, d=2)
        for text in ("G[<=y@2] q", "G[<=y] q & G[<=z@2] p"):
            result = _assert_forall_agrees(system, parse(text), corner_check=False)
            verdicts.append(result.holds)
    assert 0 < sum(verdicts) < len(verdicts)

    # A zero-cost loop on s0 and a cost-1 detour through s1: F G[<=y] q
    # holds at y = 0 (the detour lies beyond every zero-cost window) and
    # fails from y = 1 on (s0 s1)^w.  The budget-free verdict must read
    # G[<=y] as G, not as the window at 0.
    detour = build_system([{"q"}, {"p", "kappa1"}], {(0, 0): 0, (0, 1): 1, (1, 0): 0})
    phi = parse("F G[<=y] q")
    assert check_fixed(detour, phi, {"y": 0}).holds
    assert not check_fixed(detour, phi, {"y": 1}).holds
    assert not _assert_forall_agrees(detour, phi).holds


def test_check_forall_rejects_eventually_parameters(sys_a):
    with pytest.raises(FragmentError):
        check_forall(sys_a, parse("F[<=x] p"))
    with pytest.raises(FragmentError):
        check_forall(sys_a, parse("F[<=x] p & G[<=y] q"))


def test_checks_reject_ill_formed(sys_a):
    shared = And(FLe("x", 1, Atom("p")), GLe("x", 1, Atom("q")))
    for check in (check_exists, check_forall):
        with pytest.raises(FormulaError):
            check(sys_a, shared)
    # under a concrete valuation the shared variable is unambiguous
    assert check_fixed(sys_a, shared, {"x": 1}).holds is False
    with pytest.raises(FormulaError):
        check_fixed(sys_a, shared, {"x": -1})
    with pytest.raises(FormulaError):
        check_exists(sys_a, parse("F[<=x@2] p"))  # coordinate beyond dimension


def test_product_structure(sys_a):
    graph = build_product(sys_a, ltl_to_nba(parse("tt")))
    assert graph.n_vertices == 4
    assert graph.n_edges() == 12
    assert len(graph.accepting) == 4
    state, auto_state, colors = graph.initial
    assert state == "s0"
    assert colors == frozenset()
    assert not graph.color_bit(graph.initial, 1)
    flipped = (state, auto_state, frozenset(["p@1"]))
    assert flipped in graph.vertices
    assert graph.color_bit(flipped, 1)


def test_exists_matches_fixed_search_smoke():
    # spot-check the equivalence the acceptance suite sweeps in full
    rng = random.Random(415)
    texts = ("F[<=x] (p & q)", "G[<=y] p", "G (q -> F[<=x] p)")
    for _ in range(4):
        system = random_system(rng)
        for text in texts:
            phi = parse(text)
            exists = check_exists(system, phi).holds
            found = any(
                check_fixed(system, phi, valuation).holds
                for valuation in box_valuations(phi, 5)
            )
            if found:
                assert exists


# --- the emptiness decision ---------------------------------------------------


def test_holding_exists_builds_no_witness(sys_a, monkeypatch):
    # a holding query never reaches the splice or the certification, and
    # its one SCC pass expands each reachable flagged node exactly once
    def no_witness(*args):
        raise AssertionError("witness code ran on a holding query")

    monkeypatch.setattr(modelcheck, "_splice_pumps", no_witness)
    monkeypatch.setattr(modelcheck, "verify_pumpable", no_witness)
    searches = []
    search = modelcheck.find_accepting_lasso

    def counted(initial, successors, is_accepting):
        calls = []

        def expand(node):
            calls.append(node)
            return successors(node)

        searches.append((initial, successors, calls))
        return search(initial, expand, is_accepting)

    monkeypatch.setattr(modelcheck, "find_accepting_lasso", counted)
    assert check_exists(sys_a, parse(MC1)).holds
    [(initial, successors, calls)] = searches
    reachable, todo = {initial}, [initial]
    while todo:
        for w in successors(todo.pop()):
            if w not in reachable:
                reachable.add(w)
                todo.append(w)
    assert sorted(calls) == sorted(reachable)


def _nba(transitions, accepting) -> BuchiAutomaton:
    """Automaton over the coordinate-1 color from {state: [(literals, dst)]}
    with initial state q0; a literal is (name, polarity)."""
    return BuchiAutomaton(
        states=tuple(transitions),
        initial="q0",
        transitions={
            q: tuple((frozenset(guard), dst) for guard, dst in edges)
            for q, edges in transitions.items()
        },
        accepting=frozenset(accepting),
        alphabet=frozenset([color_name(1)]),
    )


def _one_state(cost):
    """One state with a self-loop of this cost."""
    return build_system([{"kappa1"} if cost else set()], {(0, 0): cost})


def _has_fair_cycle(graph) -> bool:
    """An accepting cycle in the product itself, ignoring the pump flags."""
    found = find_accepting_lasso(
        graph.initial, graph.edges.__getitem__, graph.accepting.__contains__
    )
    return found is not None


def test_accepting_singleton_without_self_loop_holds():
    # q1 is visited once and left for good: on a zero-cost loop no color
    # may flip, so each flagged vertex at q1 is a component of its own
    auto = _nba(
        {"q0": [((), "q1")], "q1": [((), "q2")], "q2": [((), "q2")]}, {"q1"}
    )
    graph = build_product(_one_state(0), auto)
    assert graph.accepting
    assert pumpable_fair_path(graph) is None


def test_accepting_singleton_with_self_loop_fails():
    auto = _nba({"q0": [((), "q1")], "q1": [((), "q1")]}, {"q1"})
    graph = build_product(_one_state(0), auto)
    witness = pumpable_fair_path(graph)
    assert witness is not None
    assert verify_pumpable(graph, *witness) == []


def test_accepting_cycle_behind_a_forbidden_flip_holds():
    # q2 comes round only if the color is chosen and then dropped, again
    # and again; a flip needs a pump, and a zero-cost loop supplies none
    color = color_name(1)
    auto = _nba(
        {
            "q0": [(((color, True),), "q1"), (((color, False),), "q0")],
            "q1": [(((color, False),), "q2"), (((color, True),), "q1")],
            "q2": [((), "q0")],
        },
        {"q2"},
    )
    flat = build_product(_one_state(0), auto)
    assert _has_fair_cycle(flat)
    assert pumpable_fair_path(flat) is None
    # with a positive loop the same flips may happen
    pumped = build_product(_one_state(1), auto)
    witness = pumpable_fair_path(pumped)
    assert witness is not None
    assert verify_pumpable(pumped, *witness) == []


# Two positive 2-cycles through s0 give equally short pump cycles, so the
# spliced witness depends on how ties between them are broken.
TIE_SYSTEM = """dim 1
state s0 init : q kappa1
state s1 : q kappa1
state s2 : q kappa1
edge s0 s1 : 1
edge s0 s2 : 1
edge s1 s0 : 1
edge s2 s0 : 1
"""

WITNESS_SCRIPT = """
import sys
from cpltl.formula import parse
from cpltl.modelcheck import check_exists
from cpltl.system import parse_system
result = check_exists(parse_system(sys.stdin.read()), parse(%r))
print(repr(result.witness))
""" % MC1


def test_exists_witness_is_independent_of_hash_seed():
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    outputs = set()
    for seed in ("0", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", WITNESS_SCRIPT],
            input=TIE_SYSTEM,
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        outputs.add(proc.stdout)
    assert len(outputs) == 1
    assert outputs.pop().startswith("((")
