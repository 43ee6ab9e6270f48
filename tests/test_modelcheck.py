"""Model checking: fixed valuations, parameter existence, universal checks."""

import functools
import hashlib
import os
import random
import subprocess
import sys
from collections import deque

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import (
    FORMULA_TEXTS,
    STREETT_FORMULA,
    SYS_A_TEXT,
    box_valuations,
    build_system,
    corner_valuation,
    oracle_holds,
    random_formula,
    random_ring,
    random_system,
)
from cpltl.formula import (
    And,
    Atom,
    FLe,
    FormulaError,
    FragmentError,
    GLe,
    NegAtom,
    Next,
    Or,
    Release,
    Until,
    always,
    eventually,
    color_name,
    negate,
    parse,
    var_profile,
)
from cpltl import modelcheck, optimize
from cpltl.automata import (
    BuchiAutomaton,
    find_accepting_lasso,
    guard_holds,
    ltl_to_nba,
)
from cpltl.modelcheck import (
    ColoredCostGraph,
    bound_value,
    build_product,
    check_exists,
    check_fixed,
    check_forall,
    exists_automaton,
    pumpable_fair_path,
    valuation_upper_bound,
    verify_pumpable,
    witness_automaton,
)
from cpltl.optimize import Objective, optimize_mc
from cpltl.system import LassoPath, parse_system, trace_of
from cpltl.trace import evaluate

MC1 = "G (q -> F[<=x] p)"


@pytest.fixture(scope="module")
def sys_a():
    return parse_system(SYS_A_TEXT)


@pytest.fixture
def fresh_tables():
    """Empty automaton tables, emptied again afterwards, so that a test
    sees only its own entries and leaves none behind."""
    tables = (modelcheck._pipeline_nba, modelcheck.cost_nba)
    for table in tables:
        table.cache_clear()
    yield
    for table in tables:
        table.cache_clear()


def _holds_exactly(table, calls) -> bool:
    """Whether the table holds the entries of exactly these argument
    tuples; asking for them in order keeps their order of use."""
    before = table.cache_info()
    for args in calls:
        table(*args)
    return (
        before.currsize == len(calls)
        and table.cache_info().misses == before.misses
    )


def exists_product(system, phi):
    """The colored product graph an existence witness is a path of."""
    return build_product(system, witness_automaton(phi, system.d))


def test_bound_value_frozen():
    assert bound_value(2, 1, 1, 3) == 26
    assert bound_value(2, 1, 1, 0) == 2
    assert bound_value(3, 5, 2, 4) == 482


def test_zero_cost_bound_needs_no_translation(monkeypatch, fresh_tables):
    # with no positive cost the bound is 2 whatever the automaton, so the
    # exists automaton is never translated
    def no_translation(target):
        raise AssertionError("translated for a zero-cost bound")

    monkeypatch.setattr(modelcheck, "ltl_to_nba", no_translation)
    for d in (1, 2):
        zero = (0,) * d
        system = build_system([{"p"}, set()], {(0, 1): zero, (1, 0): zero}, d)
        assert valuation_upper_bound(system, parse("F[<=x] p | F[<=x2] q")) == 2
        # the well-formedness and coordinate checks still run
        with pytest.raises(FormulaError, match="ill-formed"):
            valuation_upper_bound(system, parse("F[<=x] p & G[<=x] q"))
        with pytest.raises(FormulaError):
            valuation_upper_bound(system, parse(f"F[<=x@{d + 1}] p"))


def test_check_fixed_frozen(sys_a, sys_streett, system_pool):
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
    # A cheaper arrival at a state is generated after a costlier one: the
    # F token of !bad reaches s1 with 1 left via s0 (3) and 3 left via s2
    # (0 + 1), and only the latter reaches bad at s3.
    f_order = build_system(
        [set(), {"kappa1"}, set(), {"bad", "kappa1"}],
        {(0, 1): 3, (0, 2): 0, (2, 1): 1, (1, 3): 2, (3, 3): 1},
    )
    # The G token of !g reaches s2 with 3 left via s1 and 0 left via s4;
    # only the latter has run out before g at s3.
    g_order = build_system(
        [set(), set(), {"kappa1"}, {"g", "kappa1"}, set()],
        {(0, 1): 0, (0, 4): 0, (1, 2): 1, (4, 2): 3, (2, 3): 1, (3, 3): 1},
    )
    # s0 loops at cost 1 and moves to s1 (q) at cost 2; the quotient's
    # lasso (s0 s0 s0)(s1) satisfies the formula at x=12, so the exact
    # search gives the counterexample
    spurious = system_pool[41]
    # (system, formula, valuation, counterexample, explored)
    cases = [
        # the window's budget token keeps its largest remainder per key,
        # so the check explores 2 nodes at any budget
        (sys_a, "G[<=y] (p | q)", {"y": 10_000}, None, 2),
        (sys_a, "G[<=y] (p | q)", {"y": 10**7}, None, 2),
        # the negation's two F[<=y] tokens make pairs of remainders: the
        # exact search explores 10,609 nodes at y=50 and 41,209 at 100
        (
            sys_a,
            "F G[<=y] G[<=y] X !p",
            {"y": 50},
            LassoPath(("s0",), ("s1",)),
            27,
        ),
        (
            sys_a,
            "F G[<=y] G[<=y] X !p",
            {"y": 400},
            LassoPath(("s0",), ("s1",)),
            27,
        ),
        # the exact search explores 1,598 nodes at y=400, 39,998 at 10,000
        (sys_a, "G[<=y] G[<=y] (p | q)", {"y": 400}, None, 6),
        (sys_a, "G[<=y] G[<=y] (p | q)", {"y": 10_000}, None, 6),
        (
            f_order,
            "G[<=y] !bad",
            {"y": 4},
            LassoPath(("s0", "s2", "s1"), ("s3",)),
            6,
        ),
        (
            g_order,
            "F[<=x] g",
            {"x": 3},
            LassoPath(("s0", "s4", "s2"), ("s3",)),
            7,
        ),
        (
            spurious,
            "p U F[<=x] q",
            {"x": 12},
            LassoPath(("s0",) * 12, ("s1",)),
            15,
        ),
        (sys_a, "G[<=y] q", {"y": 2}, None, 1),
        (sys_a, "G[<=y] q", {"y": 3}, LassoPath((), ("s0", "s1")), 4),
        (sys_a, "F[<=x] F[<=x] p", {"x": 2}, LassoPath(("s0",), ("s1",)), 3),
        (sys_a, "G F p", {}, None, 3),
        # the negation G F p & G F q has two acceptance sets, which no
        # single node of the fair component holds together
        (sys_a, "F G !p | F G !q", {}, LassoPath((), ("s0", "s1")), 6),
        (sys_streett, STREETT_FORMULA, {"x1": 2, "x2": 3}, None, 6),
        (
            sys_streett,
            STREETT_FORMULA,
            {"x1": 1, "x2": 3},
            LassoPath((), ("s0", "s1", "s2")),
            6,
        ),
    ]
    for system, text, valuation, counterexample, explored in cases:
        result = check_fixed(system, parse(text), valuation)
        assert result.holds is (counterexample is None), (text, valuation)
        assert result.counterexample == counterexample, (text, valuation)
        assert result.explored == explored, (text, valuation)


def test_check_fixed_outcomes_are_pinned(system_pool, sys_streett):
    # Every pool system and formula at budgets 0, 1, 3 and 12 (every
    # variable at the budget), then the Streett fixture at a holding and a
    # failing valuation.  The verdicts are pinned as the exact budget
    # search gave them before the quotient search, and (counterexample,
    # explored) as the quotient search over acceptance masks gives them.
    verdicts = hashlib.sha256()
    outcomes = hashlib.sha256()
    checks = 0

    def record(r):
        nonlocal checks
        verdicts.update(repr(r.holds).encode())
        outcomes.update(repr((r.counterexample, r.explored)).encode())
        checks += 1

    for system in system_pool:
        for text in FORMULA_TEXTS:
            phi = parse(text)
            names = sorted(var_profile(phi).variables)
            for budget in (0, 1, 3, 12):
                record(check_fixed(system, phi, dict.fromkeys(names, budget)))
    for valuation in ({"x1": 2, "x2": 3}, {"x1": 2, "x2": 2}):
        record(check_fixed(sys_streett, parse(STREETT_FORMULA), valuation))
    assert checks == 8354
    assert verdicts.hexdigest() == (
        "4434a13e4b96de5232414ed418054019398ecf073d04b421cdd2af8c4a247803"
    )
    assert outcomes.hexdigest() == (
        "3a0837915e924591c7996d22a696aae55aaa10dc009b3f3e0f3713d4278cd48b"
    )


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


def test_check_fixed_matches_oracle_at_two_coordinates():
    # budgets up to 40 reach the quotient search's dominance order, with
    # F and G parameters at one and two coordinates
    for d in (1, 2):
        rng = random.Random(415)
        for _ in range(40):
            system = random_system(rng, max_states=3, d=d)
            phi = random_formula(
                rng,
                rng.randint(1, 3),
                d=d,
                f_vars=("x", "x2"),
                g_vars=("y",),
            )
            names = sorted(var_profile(phi).variables)
            valuation = {name: rng.randint(0, 40) for name in names}
            got = check_fixed(system, phi, valuation).holds
            assert got is oracle_holds(system, phi, valuation), (phi, valuation)


def test_translation_cache_drops_its_least_recently_used_entry(
    monkeypatch, fresh_tables
):
    monkeypatch.setattr(modelcheck, "ltl_to_nba", lambda target: object())
    table = modelcheck._pipeline_nba
    targets = [(Atom(f"p{i}"),) for i in range(table.cache_info().maxsize + 1)]
    first = table(*targets[0])
    assert table(*targets[0]) is first
    for target in targets[1:-1]:
        table(*target)
    assert _holds_exactly(table, targets[:-1])
    table(*targets[-1])
    assert _holds_exactly(table, targets[1:])
    assert table(*targets[0]) is not first
    # that miss dropped targets[1]; a hit on targets[2] makes targets[3]
    # the least recently used entry, so the next miss drops it instead
    second = table(*targets[2])
    table(*targets[1])
    assert table(*targets[2]) is second
    assert _holds_exactly(
        table, targets[4:] + [targets[0], targets[1], targets[2]]
    )


def test_tableau_and_translation_tables_do_not_collide(fresh_tables):
    phi = parse("F p")
    nba = modelcheck._pipeline_nba(phi)
    auto = modelcheck.cost_nba(phi, 1)
    assert _holds_exactly(modelcheck._pipeline_nba, [(phi,)])
    assert _holds_exactly(modelcheck.cost_nba, [(phi, 1)])
    assert modelcheck._pipeline_nba(phi) is nba
    assert modelcheck.cost_nba(phi, 1) is auto
    assert modelcheck.cost_nba(phi, 2) is not auto
    assert _holds_exactly(modelcheck._pipeline_nba, [(phi,)])
    assert _holds_exactly(modelcheck.cost_nba, [(phi, 1), (phi, 2)])


# Seeded cases whose tableaux serve many valuations: two budgeted operators
# in one shape, two tokens of one operator, two coordinates.
WARM_CASES = (
    ("G (q -> F[<=x] p) & G[<=y] (p | X q)", 1),
    ("G[<=y] F[<=x] p", 1),
    ("F[<=x] F[<=x] p | G[<=y] G[<=y] q", 1),
    ("F G[<=y] G[<=y] X !p", 1),
    ("G (q -> F[<=x@2] p) & F[<=x2] (q | G[<=y@2] p)", 2),
    ("F[<=x] p & F[<=x2@2] q & G[<=y@2] (p | q)", 2),
)


def test_warm_tableau_answers_like_a_cold_one(fresh_tables):
    # A tableau keeps its shapes and templates for every later valuation,
    # so an answer must not depend on which valuations ran before it.
    def outcome(system, phi, valuation):
        r = check_fixed(system, phi, valuation)
        return r.holds, r.explored, r.counterexample

    rng = random.Random(2030)
    cases = []
    for text, d in WARM_CASES:
        for _ in range(2):
            cases.append((random_system(rng, max_states=3, d=d), parse(text)))
    for d in (1, 2):
        for _ in range(4):
            phi = random_formula(
                rng, 3, d=d, f_vars=("x", "x2"), g_vars=("y",)
            )
            cases.append((random_system(rng, max_states=3, d=d), phi))
    warm_hits = 0
    for system, phi in cases:
        names = sorted(var_profile(phi).variables)
        valuations = [dict.fromkeys(names, b) for b in (0, 1, 3, 12)] + [
            {v: rng.randint(0, 5) for v in names} for _ in range(3)
        ]
        cold = []
        for valuation in valuations:
            modelcheck.cost_nba.cache_clear()
            cold.append(outcome(system, phi, valuation))
        for order in (range(len(valuations)), reversed(range(len(valuations)))):
            modelcheck.cost_nba.cache_clear()
            for i in order:
                assert outcome(system, phi, valuations[i]) == cold[i], (
                    phi, valuations[i], system,
                )
            warm_hits += (
                modelcheck.cost_nba.cache_info().currsize == 1
                and modelcheck._pipeline_nba.cache_info().currsize == 0
            )
        if names:
            with pytest.raises(FormulaError, match="negative budget"):
                check_fixed(system, phi, {**valuations[-1], names[0]: -1})
    # one tableau served each whole order
    assert warm_hits == 2 * len(cases)


def test_optimizer_and_forall_build_one_tableau_per_formula(
    monkeypatch, sys_a, fresh_tables
):
    built = []
    init = modelcheck.CostBuchiAutomaton.__init__

    def counted(self, phi, d):
        built.append(phi)
        init(self, phi, d)

    monkeypatch.setattr(modelcheck.CostBuchiAutomaton, "__init__", counted)
    best = optimize_mc(sys_a, parse(MC1), Objective.MIN_MIN)
    assert (best.value, best.probes) == (3, 6)
    assert built == [negate(parse(MC1))]

    rungs = []

    def rung(system, phi, valuation):
        rungs.append(valuation)
        return check_fixed(system, phi, valuation)

    monkeypatch.setattr(modelcheck, "check_fixed", rung)
    for text in ("G[<=y] q", "G[<=y] (p | q)", "G[<=y] q & G[<=y2] (p | q)"):
        built.clear()
        rungs.clear()
        result = check_forall(sys_a, parse(text))
        # forall_holds checks the formula with its bounds dropped, then
        # each rung of a failing formula's ladder checks phi itself
        assert len(built) == len(set(built)) <= 2, text
        if not result.holds:
            assert len(rungs) > 3, text


def test_each_fixed_check_asks_cost_nba_once(monkeypatch, sys_a):
    # Budget automaton set-up is timed by wrapping cost_nba, so every
    # check_fixed, optimizer probes and forall rungs included, asks it once.
    asked = []
    checks = []
    cost_nba = modelcheck.cost_nba
    fixed = modelcheck.check_fixed

    def counted_nba(phi, d):
        asked.append((phi, d))
        return cost_nba(phi, d)

    def counted_check(system, phi, valuation):
        checks.append(phi)
        return fixed(system, phi, valuation)

    monkeypatch.setattr(modelcheck, "cost_nba", counted_nba)
    for valuation in ({"x": 0}, {"x": 3}, {"x": 40}):
        asked.clear()
        fixed(sys_a, parse(MC1), valuation)
        assert asked == [(parse(MC1), 1)]
    monkeypatch.setattr(optimize, "check_fixed", counted_check)
    monkeypatch.setattr(modelcheck, "check_fixed", counted_check)
    asked.clear()
    best = optimize_mc(sys_a, parse(MC1), Objective.MIN_MIN)
    assert len(asked) == len(checks) == best.probes
    asked.clear()
    checks.clear()
    assert not check_forall(sys_a, parse("G[<=y] q")).holds
    assert len(asked) == len(checks) > 3
def test_check_exists_positive(sys_a):
    result = check_exists(sys_a, parse(MC1))
    assert result.holds
    assert result.witness is None
    assert result.product_vertices > 0
    assert result.product_edges > 0
    assert result.bound == bound_value(2, result.automaton_states, 1, 3)
    # the decision's automaton is the one valuation_upper_bound counts, so
    # the two bounds agree, and the corner of the bound decides the query
    upper = valuation_upper_bound(sys_a, parse(MC1))
    assert upper == result.bound
    for bound in (upper, result.bound):
        assert check_fixed(sys_a, parse(MC1), {"x": bound}).holds
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
    assert verify_pumpable(graph, prefix, ()) == ["loop is empty"]


def test_check_exists_bounded_always(sys_a):
    assert check_exists(sys_a, parse("G[<=y] q")).holds
    assert check_exists(sys_a, parse("G[<=y] r")).holds is False


def test_check_exists_keeps_every_owed_until():
    # The only run is (a b)^w, where G (a & X (a U b)) holds, so its
    # negation fails.  The automaton of G (a & X (a U b)) is empty when the
    # tableau drops the core that fulfils `a U b` for one that owes it.
    system = parse_system("dim 1\nstate s0 init : a b kappa1\nedge s0 s0 : 1\n")
    phi = parse("! G (a & X (a U b))")
    result = check_exists(system, phi)
    assert not result.holds
    prefix, loop = result.witness
    assert verify_pumpable(exists_product(system, phi), prefix, loop) == []


def test_check_exists_of_an_until_chain_is_small(sys_a):
    # The exists automaton of a 6-operator chain had 295 states before the
    # tableau dropped dominated cores, and 85 while the decision conjoined
    # chi_1.
    result = check_exists(sys_a, parse("q U " * 6 + "p"))
    assert result.holds
    assert result.automaton_states == 2


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


def _assert_forall_agrees(system, phi):
    """check_forall against the oracle and against the check at the corner
    valuation that it replaced."""
    result = check_forall(system, phi)
    assert result.corner == dict.fromkeys(sorted(result.corner), result.bound)
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
    rng = random.Random(4242)
    for _ in range(8):
        system = random_system(rng, max_states=3, d=2)
        for text in ("G[<=y@2] q", "G[<=y] q & G[<=z@2] p"):
            result = _assert_forall_agrees(system, parse(text))
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


@st.composite
def small_systems(draw):
    """d=1 systems of 1 to 3 states with costs up to 3; an edge costs
    something exactly when it enters a kappa1 state."""
    n = draw(st.integers(1, 3))
    labels = [draw(st.sets(st.sampled_from(("p", "q", "kappa1")))) for _ in range(n)]
    edges = {}
    for i in range(n):
        for j in sorted(draw(st.sets(st.integers(0, n - 1), min_size=1))):
            edges[i, j] = draw(st.integers(1, 3)) if "kappa1" in labels[j] else 0
    return build_system(labels, edges)


g_only = st.recursive(
    st.builds(
        lambda name, positive: Atom(name) if positive else NegAtom(name),
        st.sampled_from(("p", "q")),
        st.booleans(),
    ),
    lambda kids: st.one_of(
        st.builds(And, kids, kids),
        st.builds(Or, kids, kids),
        st.builds(Next, kids),
        st.builds(Until, kids, kids),
        st.builds(Release, kids, kids),
        st.builds(eventually, kids),
        st.builds(always, kids),
    ),
    max_leaves=2,
)
windows = st.builds(lambda var, f: GLe(var, 1, f), st.sampled_from(("y", "z")), g_only)
# Every formula has a parameter: a window, alone or under one more operator.
parametric = st.one_of(
    windows,
    st.builds(Next, windows),
    st.builds(eventually, windows),
    st.builds(always, windows),
    st.builds(And, g_only, windows),
    st.builds(Or, g_only, windows),
    st.builds(Until, g_only, windows),
    st.builds(Release, g_only, windows),
)


@settings(
    derandomize=True,
    deadline=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(small_systems(), parametric)
def test_forall_agrees_on_generated_systems(system, phi):
    _assert_forall_agrees(system, phi)


# --- the valuation bound ------------------------------------------------------

BOUND_PROPERTY = settings(
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
seeds = st.integers(0, 2**32 - 1)

# At d = 2 a failing check_exists conjoins chi_2 for its witness and
# translates for seconds, so the d = 2 formulas come from two seeds of
# random_formula whose translations the cache shares: F[<=x@2] !p and
# G[<=y@2] G[<=y] !q.
D2_FORMULA_SEEDS = (6, 11)


def _assert_bound_corner_decides(system, phi):
    bound = valuation_upper_bound(system, phi)
    corner = corner_valuation(phi, bound)
    assert check_fixed(system, phi, corner).holds == check_exists(system, phi).holds


@settings(BOUND_PROPERTY, max_examples=60)
@given(seeds, seeds)
def test_bound_corner_decides_exists_at_d1(system_seed, formula_seed):
    # depth 3 would nest F[<=] operators whose witness automata, chi_1
    # conjoined, take up to 9 s each.  On random_system a bound of 2
    # decides nearly every draw; on rings the obligations lie behind
    # costly edges, where the budget matters.
    rng = random.Random(system_seed)
    if rng.random() < 0.5:
        system = random_ring(rng, rng.randint(3, 6))
    else:
        system = random_system(rng)
    rng = random.Random(formula_seed)
    phi = random_formula(rng, rng.randint(1, 2), f_vars=("x",), g_vars=("y",))
    _assert_bound_corner_decides(system, phi)


@settings(BOUND_PROPERTY, max_examples=4)
@given(seeds)
def test_bound_corner_decides_exists_at_d2(system_seed):
    system = random_system(random.Random(system_seed), d=2)
    for formula_seed in D2_FORMULA_SEEDS:
        rng = random.Random(formula_seed)
        phi = random_formula(
            rng, rng.randint(1, 2), d=2, f_vars=("x",), g_vars=("y",)
        )
        assert var_profile(phi).variables
        _assert_bound_corner_decides(system, phi)


@settings(BOUND_PROPERTY, max_examples=60)
@given(st.sampled_from((1, 2)), seeds, seeds)
def test_forall_at_bound_agrees_with_oracle(d, system_seed, formula_seed):
    # check_forall raises ModelCheckError when its ladder, capped at the
    # bound, finds no failing valuation although the formula fails
    system = random_system(random.Random(system_seed), d=d)
    rng = random.Random(formula_seed)
    phi = random_formula(rng, rng.randint(1, 3), d=d, f_vars=(), g_vars=("y", "z"))
    _assert_forall_agrees(system, phi)


# The G-cap argument in bound_value covers formulas that name kappa only
# through the rewrite of their G[<=] operators; these name it otherwise,
# directly or through a strict operator.
KAPPA_FORALL_TEXTS = (
    "F[>y] p",
    "G (q -> F[>y] p)",
    "p U[>y] q",
    "G[<=y] (q | kappa)",
    "X G[<=y] (p | !kappa)",
)


def test_caps_of_formulas_naming_kappa(system_pool):
    verdicts = []
    for system in system_pool:
        for text in KAPPA_FORALL_TEXTS:
            phi = parse(text)
            result = _assert_forall_agrees(system, phi)
            verdicts.append(result.holds)
            best = optimize_mc(system, phi, Objective.MAX_MAX)
            assert (best.status == "unbounded") is result.holds
            if best.status == "optimal":
                assert check_fixed(system, phi, {"y": best.value}).holds
                assert not check_fixed(system, phi, {"y": best.value + 1}).holds
    assert 0 < sum(verdicts) < len(verdicts)


ONE_STATE_D2_TEXT = """\
dim 2
state s0 init : p kappa1 kappa2
edge s0 s0 : 1 2
"""
ONE_STATE_D2_FORMULA = "F[<=x] p | F[<=x2@2] q"


def _refuse_chi(d):
    raise AssertionError("translated chi")


def test_d2_bounds_translate_no_chi(sys_streett, monkeypatch):
    # The bounds read the automaton of the negated relativized formula
    # alone; with chi_2 conjoined the Streett bound read 103,250.
    monkeypatch.setattr(modelcheck, "chi_formula", _refuse_chi)
    phi = parse("G[<=y@2] Q1")
    result = _assert_forall_agrees(sys_streett, phi)
    assert (result.holds, result.bound) == (False, 290)
    one_state = parse_system(ONE_STATE_D2_TEXT)
    assert valuation_upper_bound(one_state, parse(ONE_STATE_D2_FORMULA)) == 418


BOUND_SCRIPT = """
import sys
from cpltl.formula import parse
from cpltl.modelcheck import valuation_upper_bound
from cpltl.system import parse_system
print(valuation_upper_bound(parse_system(sys.stdin.read()), parse(%r)))
""" % ONE_STATE_D2_FORMULA


def test_d2_bound_is_independent_of_hash_seed():
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    outputs = set()
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", BOUND_SCRIPT],
            input=ONE_STATE_D2_TEXT,
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        outputs.add(proc.stdout)
    assert outputs == {"418\n"}


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
    assert sum(graph.accept) == 4
    state, auto_state, colors = graph.vertices[0]
    assert state == "s0"
    assert colors == ()
    assert not graph.color[0] & 1
    flipped = (state, auto_state, ("p@1",))
    assert flipped in graph.vertices
    assert graph.color[graph.index[flipped]] & 1


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


def test_exists_at_d2_agrees_with_oracle():
    # d=2 existence (ROADMAP item 5) on G-only formulas, whose zero
    # valuation is the easiest: some valuation works exactly when it does.
    # A failing answer's witness is certified on the product once more.
    # (`G[<=y@1] (p | q)` itself holds on nearly every small system, as
    # the window of budget 0 ends at the first positive step; the X lets
    # the second state decide.)
    rng = random.Random(2088)
    systems = [random_system(rng, d=2) for _ in range(10)]
    for text in ("G[<=y@2] q", "X G[<=y@1] (p | q)"):
        phi = parse(text)
        verdicts = set()
        for system in systems:
            result = check_exists(system, phi)
            assert result.holds == oracle_holds(system, phi, {"y": 0}), (text, system)
            verdicts.add(result.holds)
            if not result.holds:
                auto = witness_automaton(phi, 2)
                graph = build_product(system, auto)
                assert verify_pumpable(graph, *result.witness) == []
        assert verdicts == {True, False}


def test_exists_with_f_parameters_at_d2_agrees_with_the_corner():
    # bound_value's F-corner argument is no proof at d = 2, so d = 2
    # existence on formulas with F-parameters, on rings and random
    # systems, is checked against the fixed check at the corner of the
    # bound.
    # Each refutation's witness is certified on the chi_2 product.
    # Ten draws: the refutations translate chi_2 with formulas such as
    # F[<=x2] G[<=y] !p, about 1-2 s each.
    rng = random.Random(2089)
    verdicts = []
    for _ in range(10):
        if rng.random() < 0.5:
            system = random_ring(rng, rng.randint(3, 5), d=2)
        else:
            system = random_system(rng, d=2)
        phi = Atom("p")
        while not var_profile(phi).var_f:
            phi = random_formula(
                rng, rng.randint(1, 2), d=2, f_vars=("x", "x2"), g_vars=("y",)
            )
        result = check_exists(system, phi)
        corner = corner_valuation(phi, valuation_upper_bound(system, phi))
        assert result.holds == check_fixed(system, phi, corner).holds, (phi, system)
        if not result.holds:
            graph = exists_product(system, phi)
            assert verify_pumpable(graph, *result.witness) == [], (phi, system)
        verdicts.append(result.holds)
    assert 0 < sum(verdicts) < len(verdicts)


@settings(BOUND_PROPERTY, max_examples=60)
@given(st.data())
def test_exists_decision_agrees_with_the_chi_search(system_pool, data):
    # check_exists decides a holding answer without chi_1; the product
    # with chi_1 conjoined, which every query used to search, must agree
    system = data.draw(st.sampled_from(system_pool))
    phi = parse(data.draw(st.sampled_from(FORMULA_TEXTS)))
    chi_product = build_product(system, witness_automaton(phi, 1))
    assert check_exists(system, phi).holds is (pumpable_fair_path(chi_product) is None)


class _ChiAsked(Exception):
    pass


def test_holding_exists_translates_no_chi(system_pool, monkeypatch):
    # chi_d enters only the witness search, which a holding query skips
    def refuse(d):
        raise _ChiAsked

    monkeypatch.setattr(modelcheck, "chi_formula", refuse)
    asked = []
    for system in system_pool[::4]:
        for text in FORMULA_TEXTS:
            try:
                assert check_exists(system, parse(text)).holds
            except _ChiAsked:
                asked.append((system, text))
    assert 0 < len(asked) < len(system_pool[::4]) * len(FORMULA_TEXTS)
    monkeypatch.undo()
    for system, text in asked:
        assert not check_exists(system, parse(text)).holds


def test_exists_of_the_streett_formula_at_d2(sys_streett, monkeypatch):
    # With chi_2 conjoined this query ran out of memory; without it the
    # automaton has 89 states.  The corner of the bound decides it.
    monkeypatch.setattr(modelcheck, "chi_formula", _refuse_chi)
    phi = parse(STREETT_FORMULA)
    result = check_exists(sys_streett, phi)
    assert result.holds
    assert result.automaton_states == 89
    assert result.bound == valuation_upper_bound(sys_streett, phi)
    corner = corner_valuation(phi, result.bound)
    assert check_fixed(sys_streett, phi, corner).holds


# --- the emptiness decision ---------------------------------------------------


def test_holding_exists_builds_no_witness(sys_a, monkeypatch):
    # a holding query never reaches the splice or the certification, and
    # its one SCC pass expands each reachable flagged node exactly once
    def no_witness(*args):
        raise AssertionError("witness code ran on a holding query")

    monkeypatch.setattr(modelcheck, "_splice_pumps", no_witness)
    monkeypatch.setattr(modelcheck, "_lasso_problems", no_witness)
    monkeypatch.setattr(modelcheck, "verify_pumpable", no_witness)
    searches = []
    search = modelcheck.find_accepting_lasso

    def counted(initial, successors, acceptance, full):
        calls = []

        def expand(node):
            calls.append(node)
            return successors(node)

        searches.append((initial, successors, calls))
        return search(initial, expand, acceptance, full)

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
    """Automaton from {state: [(literals, dst)]} with initial state q0; a
    literal is (name, polarity)."""
    return BuchiAutomaton(
        states=tuple(transitions),
        initial="q0",
        transitions={
            q: tuple((frozenset(guard), dst) for guard, dst in edges)
            for q, edges in transitions.items()
        },
        accepting=frozenset(accepting),
    )


def _one_state(cost):
    """One state with a self-loop of this cost."""
    return build_system([{"kappa1"} if cost else set()], {(0, 0): cost})


def _has_fair_cycle(graph) -> bool:
    """An accepting cycle in the product itself, ignoring the pump flags."""
    found = find_accepting_lasso(
        0, graph.succ.__getitem__, graph.accept.__getitem__, 1
    )
    return found is not None


def test_accepting_singleton_without_self_loop_holds():
    # q1 is visited once and left for good: on a zero-cost loop no color
    # may flip, so each flagged vertex at q1 is a component of its own
    auto = _nba(
        {"q0": [((), "q1")], "q1": [((), "q2")], "q2": [((), "q2")]}, {"q1"}
    )
    graph = build_product(_one_state(0), auto)
    assert any(graph.accept)
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


def test_verify_names_the_coordinate_of_an_unpumped_block():
    # The colors (c1, c2) must go round 00 -> 10 -> 11 -> 01 -> 00, each
    # but 01 held as long as wanted on a self-loop that costs 1 in both
    # coordinates.  Each block gets a self-loop copy at its first vertex
    # with a self-loop: the copy at 11, where c2 turns on, serves
    # coordinate 2 alone.
    c1, c2 = color_name(1), color_name(2)
    guards = [
        ((c1, False), (c2, False)),
        ((c1, True), (c2, False)),
        ((c1, True), (c2, True)),
    ]
    transitions = {
        f"q{k}": [(guard, f"q{k}"), (guard, f"q{k + 1}")]
        for k, guard in enumerate(guards)
    }
    transitions["q3"] = [(((c1, False), (c2, True)), "q0")]
    auto = _nba(transitions, {"q3"})
    system = build_system([{"kappa1", "kappa2"}], {(0, 0): (1, 1)}, d=2)
    graph = build_product(system, auto)
    prefix, loop = pumpable_fair_path(graph)
    assert verify_pumpable(graph, prefix, loop) == []
    both = ("s0", "q2", (c1, c2))
    at = loop.index(both)
    assert loop[at + 1] == both  # the spliced pump
    # coordinate 1 flips too, and its blocks keep their pumps
    assert verify_pumpable(graph, prefix, loop[:at] + loop[at + 1 :]) == [
        "coordinate 2 block [11,13) has no positive repetition"
    ]
    # where the self-loop costs nothing in coordinate 2, its copies pump
    # coordinate 1 alone
    free = build_system([{"kappa1"}], {(0, 0): (1, 0)}, d=2)
    assert verify_pumpable(build_product(free, auto), prefix, loop) == [
        f"coordinate 2 block [{start},{end}) has no positive repetition"
        for start, end in ((0, 4), (4, 7), (7, 11), (11, 14))
    ]


# --- pump capability ----------------------------------------------------------


def _random_nba(rng, d) -> BuchiAutomaton:
    """Automaton of 1-4 states whose guards mix the colors of d
    coordinates with the propositions p and q."""
    names = [f"q{i}" for i in range(rng.randint(1, 4))]
    literals = [color_name(c) for c in range(1, d + 1)] + ["p", "q"]
    transitions = {
        q: [
            (
                [
                    (name, rng.random() < 0.5)
                    for name in rng.sample(literals, rng.randint(0, 2))
                ],
                rng.choice(names),
            )
            for _ in range(rng.randint(1, 3))
        ]
        for q in names
    }
    return _nba(transitions, rng.sample(names, rng.randint(1, len(names))))


def _positive(graph, u, w, coord) -> bool:
    """Whether the edge u -> w has positive coord-cost, read off the
    system's costs."""
    vertices = graph.vertices
    return graph.system_cost[vertices[u][0], vertices[w][0]][coord - 1] > 0


def _reference_components(graph, mask) -> tuple:
    """In the subgraph of the edges that keep the colors in `mask`: per
    vertex id, the edge count of a shortest path to each vertex it
    reaches, and its component (the vertices it reaches and is reached
    from); by plain breadth-first search from every vertex."""
    succ, color = graph.succ, graph.color
    dist = []
    for start in range(graph.n_vertices):
        seen, queue = {start: 0}, deque([start])
        while queue:
            u = queue.popleft()
            for w in succ[u]:
                if w not in seen and not (color[u] ^ color[w]) & mask:
                    seen[w] = seen[u] + 1
                    queue.append(w)
        dist.append(seen)
    around = [{u for u in reach if v in dist[u]} for v, reach in enumerate(dist)]
    return dist, around


def _reference_capability(graph) -> list:
    """Per vertex id, bit c-1 set when some edge u -> w with positive
    c-cost has u and w mutually reachable with the vertex in the subgraph
    that keeps coordinate c's color; by plain reachability sets."""
    succ = graph.succ
    cap = [0] * graph.n_vertices
    for coord in range(1, graph.d + 1):
        bit = 1 << (coord - 1)
        _, around = _reference_components(graph, bit)
        for v, inside in enumerate(around):
            if any(
                w in inside and _positive(graph, u, w, coord)
                for u in inside
                for w in succ[u]
            ):
                cap[v] |= bit
    return cap


def _assert_pump_cycles(graph, components) -> None:
    """Check `_pump_cycle` at every vertex and coordinate, keeping all
    colors and the coordinate's color only: None exactly when the
    vertex's component has no positive edge, and otherwise a cycle from
    the vertex along product edges inside the component, with a positive
    step, as short as the best path v -> a, positive edge a -> b, path
    b -> v found by plain reachability."""
    succ = graph.succ
    full = (1 << graph.d) - 1
    for constant in (True, False):
        for coord in range(1, graph.d + 1):
            bit = 1 << (coord - 1)
            dist, around = _reference_components(graph, full if constant else bit)
            for v, inside in enumerate(around):
                lengths = [
                    dist[v][a] + 1 + dist[b][v]
                    for a in inside
                    for b in succ[a]
                    if b in inside and _positive(graph, a, b, coord)
                ]
                cycle = modelcheck._pump_cycle(graph, components, bit, v, constant)
                if not lengths:
                    assert cycle is None
                    continue
                assert cycle[0] == v
                steps = list(zip(cycle, cycle[1:] + cycle[:1]))
                assert all(w in succ[u] and w in inside for u, w in steps)
                assert any(_positive(graph, u, w, coord) for u, w in steps)
                assert len(cycle) == min(lengths)


def _assert_capability_matches(system, auto) -> tuple:
    """Check the product's dead-end-free layout, the capability of every
    vertex and its pump cycles; returns how many (vertex, coordinate) bits
    are set and clear."""
    graph = build_product(system, auto)
    _assert_live_layout(graph, system, auto)
    cap, components = modelcheck._pump_capability(graph)
    assert cap == _reference_capability(graph)
    _assert_pump_cycles(graph, components)
    set_bits = sum(bin(c).count("1") for c in cap)
    return set_bits, graph.d * graph.n_vertices - set_bits


def test_pump_capability_matches_reference_d1():
    rng = random.Random(1501)
    exists_autos = [
        make(parse(text), 1)
        for make in (witness_automaton, exists_automaton)
        for text in ("F[<=x] p", "G[<=y] q", "F[<=x] (p & q)")
    ]
    seen = [0, 0]
    for _ in range(8):
        system = random_system(rng)
        for auto in exists_autos + [_random_nba(rng, 1)]:
            for k, count in enumerate(_assert_capability_matches(system, auto)):
                seen[k] += count
    # both answers occur, so the comparison is not vacuous
    assert all(seen), seen


def test_pump_capability_matches_reference_d2():
    # at d=2 a single coordinate's color subgraph lets the other color
    # flip
    rng = random.Random(1502)
    seen = [0, 0]
    for _ in range(40):
        system = random_system(rng, d=2)
        auto = _random_nba(rng, 2)
        for k, count in enumerate(_assert_capability_matches(system, auto)):
            seen[k] += count
    assert all(seen), seen


# --- dead-end-free product ----------------------------------------------------


def _unpruned_product(system, auto) -> ColoredCostGraph:
    """The colored product with every color choice of every successor,
    vertices without an automaton move included, numbered breadth-first
    with edges per successor state in edge order, then per automaton
    target in guard order, then per color mask ascending."""
    d = system.d
    colors = tuple(color_name(c) for c in range(1, d + 1))
    states, auto_states = system.states, auto.states

    @functools.cache
    def targets(state, q, mask):
        props = system.labels[state] | {
            c for i, c in enumerate(colors) if mask >> i & 1
        }
        return dict.fromkeys(
            dst for guard, dst in auto.transitions[q] if guard_holds(guard, props)
        )

    order = [(system.initial, auto.initial, 0)]
    ids = {order[0]: 0}
    succ = []
    for s, q, mask in order:
        out = []
        for t in dict.fromkeys(system.successors(s)):
            for q2 in targets(s, q, mask):
                for m in range(1 << d):
                    w = (t, q2, m)
                    if w not in ids:
                        ids[w] = len(order)
                        order.append(w)
                    out.append(ids[w])
        succ.append(out)
    n = len(states)
    return ColoredCostGraph(
        succ=succ,
        place=[states.index(s) for s, _, _ in order],
        auto=[auto_states.index(q) for _, q, _ in order],
        color=[m for _, _, m in order],
        accept=[q in auto.accepting for _, q, _ in order],
        positive_bits={
            states.index(s) * n + states.index(t): sum(
                1 << i for i, c in enumerate(vec) if c > 0
            )
            for (s, t), vec in system.cost.items()
        },
        states=states,
        auto_states=auto_states,
        system_cost=system.cost,
        colors=colors,
        d=d,
    )


def _assert_live_layout(graph, system, auto) -> ColoredCostGraph:
    """Check that the product is the unpruned one without the vertices
    whose automaton state has no move on their letter, the initial vertex
    aside: the same vertices in the same order, and each vertex's
    successors its unpruned ones that have a move.  Returns the unpruned
    product."""

    @functools.cache
    def moves(vertex) -> bool:
        state, q, chosen = vertex
        props = system.labels[state].union(chosen)
        return any(guard_holds(guard, props) for guard, _ in auto.transitions[q])

    ref = _unpruned_product(system, auto)
    vertices, ref_vertices = graph.vertices, ref.vertices
    assert all(moves(v) for v in vertices[1:])
    assert vertices == (ref_vertices[0],) + tuple(
        v for v in ref_vertices[1:] if moves(v)
    )
    for v, out in zip(vertices, graph.succ):
        ref_out = (ref_vertices[w] for w in ref.succ[ref.index[v]])
        assert [vertices[w] for w in out] == [w for w in ref_out if moves(w)]
    return ref


@pytest.mark.parametrize(
    "d, texts, draws",
    [
        (1, ("F[<=x] p", "G[<=y] q", MC1), 12),
        (2, ("G[<=y@2] q", "X G[<=y@1] (p | q)"), 5),
    ],
)
def test_product_drops_exactly_the_dead_ends(d, texts, draws):
    # pruning only deletes successors, so the capability and the witness
    # are those of the unpruned product
    rng = random.Random(2500 + d)
    exists_autos = [
        make(parse(t), d)
        for make in (witness_automaton, exists_automaton)
        for t in texts
    ]
    dropped = 0
    verdicts = set()
    for _ in range(draws):
        system = random_system(rng, d=d)
        for auto in exists_autos + [_random_nba(rng, d)]:
            graph = build_product(system, auto)
            ref = _assert_live_layout(graph, system, auto)
            cap, _ = modelcheck._pump_capability(graph)
            ref_cap, _ = modelcheck._pump_capability(ref)
            assert cap == [ref_cap[ref.index[v]] for v in graph.vertices]
            witness = pumpable_fair_path(graph)
            assert witness == pumpable_fair_path(ref)
            dropped += ref.n_vertices - graph.n_vertices
            verdicts.add(witness is None)
    # vertices are dropped and both answers occur, so nothing is vacuous
    assert dropped and verdicts == {True, False}


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

# One state carrying both kappas, on a loop that costs in both
# coordinates: the d=2 witness of `!q & !p` (seed 12's 19th random d=2
# pair) has vertices that choose both colors.
BOTH_COLORS_SYSTEM = """dim 2
state s0 init : p q kappa1 kappa2
edge s0 s0 : 1 1
"""

WITNESS_SCRIPT = """
import sys
from cpltl.formula import parse
from cpltl.modelcheck import check_exists
from cpltl.system import parse_system
result = check_exists(parse_system(sys.stdin.read()), parse(sys.argv[1]))
print(repr(result.witness))
"""


def test_exists_witness_is_independent_of_hash_seed():
    # the d=1 case breaks ties between pump cycles, the d=2 one prints
    # color sets of two colors
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    for system, text in ((TIE_SYSTEM, MC1), (BOTH_COLORS_SYSTEM, "!q & !p")):
        outputs = set()
        for seed in ("0", "2", "3"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            proc = subprocess.run(
                [sys.executable, "-c", WITNESS_SCRIPT, text],
                input=system,
                capture_output=True,
                text=True,
                env=env,
                check=True,
            )
            outputs.add(proc.stdout)
        assert len(outputs) == 1, text
        assert outputs.pop().startswith("((")
    assert "('p@1', 'p@2')" in proc.stdout
