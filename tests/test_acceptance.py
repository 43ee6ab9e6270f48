"""Acceptance suite: one test, and one pass/fail line, per shipping criterion.

Run `pytest -v tests/test_acceptance.py` to see each criterion on its own
line; add `-s` for the per-criterion statistics prints.
"""

import random
import time

import pytest

from conftest import (
    STREETT_FORMULA,
    SYS_A_TEXT,
    box_valuations,
    corner_valuation,
    oracle_holds,
    random_formula,
    random_trace,
)
from cpltl.formula import (
    And,
    Atom,
    FLe,
    GLe,
    NegAtom,
    Next,
    Or,
    Release,
    Until,
    closure,
    color_name,
    negate,
    parse,
    pretty_print,
    relativize,
    var_profile,
)
from cpltl.modelcheck import (
    build_product,
    check_exists,
    check_fixed,
    verify_pumpable,
    witness_automaton,
)
from cpltl.optimize import Objective, optimize_mc
from cpltl.system import TransitionSystem, canonical_lasso, parse_system, validate
from cpltl.trace import (
    CostLetter,
    CostTrace,
    check_bounded,
    check_spaced,
    evaluate,
    letter,
    make_spaced_coloring,
)

MC1 = "G (q -> F[<=x] p)"


@pytest.fixture(scope="module")
def exists_sweep(system_pool, formula_pool):
    """One existence check per (system, formula) pair, shared by criteria."""
    return [
        (system, phi, check_exists(system, phi))
        for system in system_pool
        for phi in formula_pool
    ]


def exists_product(system, phi):
    """The colored product graph an existence witness is a path of."""
    return build_product(system, witness_automaton(phi, system.d))


# --- criterion 1 --------------------------------------------------------------


def test_criterion_01_fixed_check_matches_run_enumeration(
    system_pool, formula_pool
):
    """Fixed-valuation verdicts agree with evaluating every short run."""
    checked = 0
    mismatches = []
    uncanonical = []
    for system in system_pool:
        for phi in formula_pool:
            for valuation in box_valuations(phi, 5):
                result = check_fixed(system, phi, valuation)
                want = oracle_holds(system, phi, valuation)
                checked += 1
                if result.holds is not want:
                    mismatches.append((system, pretty_print(phi), valuation))
                path = result.counterexample
                if path is not None and path != canonical_lasso(path.prefix, path.loop):
                    uncanonical.append((system, pretty_print(phi), valuation))
    assert not mismatches, mismatches[:3]
    # counterexamples come in the normal form of their ultimately periodic path
    assert not uncanonical, uncanonical[:3]
    print(
        f"criterion 1: {checked} fixed checks over {len(system_pool)} systems "
        f"and {len(formula_pool)} formulas match the enumerated-run oracle"
    )


# --- criterion 2 --------------------------------------------------------------


def test_criterion_02_exists_equals_bounded_valuation_search(exists_sweep):
    """The existence verdict coincides with searching valuations directly.

    Feasible sets grow as F-budgets grow and G-budgets shrink, so the single
    corner with F-variables maxed and G-variables at zero decides the search;
    a cap of 32 covers every budget these small systems can need, and so
    does the computed bound.
    """
    agreements = 0
    for system, phi, result in exists_sweep:
        probe = corner_valuation(phi, 32)
        found = check_fixed(system, phi, probe).holds
        assert found == result.holds, (pretty_print(phi), probe, system)
        # the bound is sound: its corner decides as well
        corner = corner_valuation(phi, result.bound)
        at_bound = check_fixed(system, phi, corner).holds
        assert at_bound == result.holds, (pretty_print(phi), corner, system)
        agreements += 1
    print(
        f"criterion 2: {agreements} existence verdicts equal corner search, "
        "at cap 32 and at the bound"
    )


# --- criterion 3 --------------------------------------------------------------


def _alternating_coloring(trace):
    """Color by position parity; doubling the loop keeps it periodic."""
    letters = list(trace.prefix) + list(trace.loop) * 2
    colored = []
    for i, lt in enumerate(letters):
        props = set(lt.props)
        if i % 2 == 0:
            props.add(color_name(1))
        colored.append(CostLetter(frozenset(props), lt.cost))
    p = len(trace.prefix)
    return CostTrace(tuple(colored[:p]), tuple(colored[p:]), trace.d)


def _random_coloring(rng, trace):
    letters = list(trace.prefix) + list(trace.loop) * 2
    colored = []
    for lt in letters:
        props = set(lt.props)
        if rng.random() < 0.5:
            props.add(color_name(1))
        colored.append(CostLetter(frozenset(props), lt.cost))
    p = len(trace.prefix)
    return CostTrace(tuple(colored[:p]), tuple(colored[p:]), trace.d)


def test_criterion_03_coloring_reduction_both_directions():
    """Color abstraction: spaced colorings inherit satisfaction, and a
    bounded satisfying coloring forces satisfaction at doubled budgets."""
    rng = random.Random(20260815)
    rel_cache = {}

    def rel_of(phi):
        if phi not in rel_cache:
            rel_cache[phi] = relativize(phi, 1)
        return rel_cache[phi]

    forward = 0
    for _ in range(100000):
        if forward >= 1000:
            break
        phi = random_formula(rng, rng.randint(1, 3), f_vars=("x", "x2"), g_vars=())
        trace = random_trace(rng)
        names = sorted(var_profile(phi).variables)
        valuation = {v: rng.randint(0, 4) for v in names}
        if not evaluate(trace, 0, valuation, phi):
            continue
        k = max(valuation.values(), default=0)
        target = rel_of(phi)
        for bump in (1, 2, 2 + rng.randint(1, 3)):
            colored = make_spaced_coloring(trace, k + bump)
            assert check_spaced(colored, k + 1)
            assert evaluate(colored, 0, {}, target), (
                pretty_print(phi),
                valuation,
                k + bump,
            )
            forward += 1
    assert forward >= 1000

    backward = 0
    for attempt in range(100000):
        if backward >= 1000:
            break
        phi = random_formula(rng, rng.randint(1, 3), f_vars=("x", "x2"), g_vars=())
        trace = random_trace(rng)
        k = rng.randint(0, 4)
        if attempt % 2 == 0:
            colored = _alternating_coloring(trace)
        else:
            colored = _random_coloring(rng, trace)
        if not check_bounded(colored, k):
            continue
        if not evaluate(colored, 0, {}, rel_of(phi)):
            continue
        names = sorted(var_profile(phi).variables)
        doubled = {v: 2 * k for v in names}
        assert evaluate(trace, 0, doubled, phi), (pretty_print(phi), k)
        backward += 1
    assert backward >= 1000
    print(
        f"criterion 3: coloring reduction confirmed on {forward} spaced and "
        f"{backward} bounded triples"
    )


# --- criterion 4 --------------------------------------------------------------


def test_criterion_04_budget_monotonicity():
    """Raising F-budgets and lowering G-budgets preserves satisfaction."""
    rng = random.Random(31415)
    confirmed = 0
    for _ in range(200000):
        if confirmed >= 1000:
            break
        phi = random_formula(rng, rng.randint(1, 3), f_vars=("x",), g_vars=("y",))
        profile = var_profile(phi)
        if not profile.variables:
            continue
        trace = random_trace(rng)
        alpha = {v: rng.randint(0, 5) for v in profile.variables}
        if not evaluate(trace, 0, alpha, phi):
            continue
        beta = {x: alpha[x] + rng.randint(0, 4) for x in profile.var_f}
        beta.update({y: rng.randint(0, alpha[y]) for y in profile.var_g})
        assert evaluate(trace, 0, beta, phi), (pretty_print(phi), alpha, beta)
        confirmed += 1
    assert confirmed >= 1000
    print(f"criterion 4: monotonicity held on {confirmed} satisfying triples")


# --- criterion 5 --------------------------------------------------------------


def test_criterion_05_negation_laws(formula_pool):
    """Negation complements the semantics, keeps closure size, involutes."""
    rng = random.Random(271828)
    comparisons = 0
    for phi in formula_pool:
        neg = negate(phi)
        assert negate(neg) == phi
        assert len(closure(neg)) == len(closure(phi))
        names = sorted(var_profile(phi).variables)
        for _ in range(12):
            trace = random_trace(rng)
            valuation = {v: rng.randint(0, 5) for v in names}
            assert evaluate(trace, 0, valuation, phi) != evaluate(
                trace, 0, valuation, neg
            ), (pretty_print(phi), valuation)
            comparisons += 1
    print(
        f"criterion 5: negation laws verified on {len(formula_pool)} formulas "
        f"({comparisons} semantic comparisons)"
    )


# --- criterion 6 --------------------------------------------------------------


def _unit_trace(rng, props=("p", "q")):
    """Every step costs one, so budgets count steps; kappa rides along."""
    def letters(n):
        out = []
        for _ in range(n):
            chosen = [a for a in props if rng.random() < 0.5]
            out.append(letter(chosen + ["kappa1"], 1))
        return out

    return CostTrace(
        tuple(letters(rng.randint(0, 3))), tuple(letters(rng.randint(1, 4))), 1
    )


def _step_holds(trace, phi, valuation):
    """Step-indexed reference semantics over the lasso's slots."""
    slots = range(trace.n_slots)
    succ = trace.succ_slot
    truth = {}

    def row_of(node):
        if node in truth:
            return truth[node]
        if isinstance(node, Atom):
            row = [node.name in trace.letter_at_slot(s).props for s in slots]
        elif isinstance(node, NegAtom):
            row = [node.name not in trace.letter_at_slot(s).props for s in slots]
        elif isinstance(node, And):
            left, right = row_of(node.left), row_of(node.right)
            row = [a and b for a, b in zip(left, right)]
        elif isinstance(node, Or):
            left, right = row_of(node.left), row_of(node.right)
            row = [a or b for a, b in zip(left, right)]
        elif isinstance(node, Next):
            child = row_of(node.child)
            row = [child[succ(s)] for s in slots]
        elif isinstance(node, (Until, Release)):
            left, right = row_of(node.left), row_of(node.right)
            start = isinstance(node, Release)
            row = [start] * trace.n_slots
            changed = True
            while changed:
                changed = False
                for s in slots:
                    if isinstance(node, Until):
                        value = right[s] or (left[s] and row[succ(s)])
                    else:
                        value = right[s] and (left[s] or row[succ(s)])
                    if value != row[s]:
                        row[s] = value
                        changed = True
        else:
            child = row_of(node.child)
            budget = valuation.get(node.var, 0)
            row = []
            for s in slots:
                cursor = s
                seen = []
                for _ in range(budget + 1):
                    seen.append(child[cursor])
                    cursor = succ(cursor)
                row.append(any(seen) if isinstance(node, FLe) else all(seen))
        truth[node] = row
        return row

    return row_of(phi)[trace.slot(0)]


def test_criterion_06_unit_costs_reduce_to_step_bounds():
    """On unit-cost traces the budgeted operators count steps."""
    rng = random.Random(161803)
    checked = 0
    while checked < 500:
        phi = random_formula(rng, rng.randint(1, 3), f_vars=("x",), g_vars=("y",))
        trace = _unit_trace(rng)
        names = sorted(var_profile(phi).variables)
        valuation = {v: rng.randint(0, 5) for v in names}
        got = evaluate(trace, 0, valuation, phi)
        want = _step_holds(trace, phi, valuation)
        assert got == want, (pretty_print(phi), valuation, trace)
        checked += 1
    print(f"criterion 6: {checked} unit-cost instances match step semantics")


# --- criterion 7 --------------------------------------------------------------


def test_criterion_07_witnesses_verify_and_stay_short(exists_sweep):
    """Every refutation witness re-verifies and fits the pumping bound."""
    verified = 0
    for system, phi, result in exists_sweep:
        if result.holds:
            continue
        prefix, loop = result.witness
        graph = exists_product(system, phi)
        problems = verify_pumpable(graph, prefix, loop)
        assert problems == [], (pretty_print(phi), problems[:2])
        assert len(prefix) + len(loop) <= 4 * graph.n_vertices ** 2
        verified += 1
    assert verified > 0
    print(f"criterion 7: {verified} witnesses verified within 4n^2 length")


# --- criterion 8 --------------------------------------------------------------


def _check_optimum(system, phi, objective, result, elapsed):
    assert elapsed < 10.0, (pretty_print(phi), objective, elapsed)
    (var,) = sorted(var_profile(phi).variables)

    def feas(v):
        return check_fixed(system, phi, {var: v}).holds

    box = [v for v in range(13) if feas(v)]
    if objective in (Objective.MIN_MIN, Objective.MIN_MAX):
        if box:
            assert result.status == "optimal"
            assert result.value == box[0]
            assert result.witness == {var: box[0]}
        else:
            assert result.status == "infeasible" or result.value > 12
        if result.status == "optimal":
            assert feas(result.value)
            assert result.value == 0 or not feas(result.value - 1)
        return
    # maximization: the feasible set is an initial segment of the budgets
    if not box:
        assert result.status == "infeasible"
    elif result.status == "optimal":
        assert feas(result.value)
        assert not feas(result.value + 1)
        if result.value <= 12:
            assert result.value == box[-1]
        else:
            assert box == list(range(13))
    else:
        assert result.status == "unbounded"
        assert box == list(range(13))
        assert feas(result.bound)


def test_criterion_08_optimization_matches_reference_search(
    system_pool, sys_a
):
    """Optimal budgets agree with direct feasibility search, quickly."""
    start = time.monotonic()
    best = optimize_mc(sys_a, parse(MC1), Objective.MIN_MIN)
    assert (best.status, best.value, best.witness) == ("optimal", 3, {"x": 3})
    _check_optimum(sys_a, parse(MC1), Objective.MIN_MIN, best, time.monotonic() - start)

    start = time.monotonic()
    widest = optimize_mc(sys_a, parse("G[<=y] q"), Objective.MAX_MAX)
    assert (widest.status, widest.value, widest.witness) == ("optimal", 2, {"y": 2})
    _check_optimum(
        sys_a, parse("G[<=y] q"), Objective.MAX_MAX, widest, time.monotonic() - start
    )

    runs = 2
    subset = [system_pool[i] for i in (0, 9, 17, 33, 52, 56)]
    plans = [
        ("F[<=x] p", (Objective.MIN_MIN, Objective.MIN_MAX)),
        ("F[<=x] (p & q)", (Objective.MIN_MIN, Objective.MIN_MAX)),
        (MC1, (Objective.MIN_MIN, Objective.MIN_MAX)),
        ("G[<=y] p", (Objective.MAX_MAX, Objective.MAX_MIN)),
        ("G[<=y] (p | q)", (Objective.MAX_MAX, Objective.MAX_MIN)),
        ("G[<=y] q", (Objective.MAX_MAX, Objective.MAX_MIN)),
    ]
    for system in subset:
        for text, objectives in plans:
            phi = parse(text)
            for objective in objectives:
                start = time.monotonic()
                result = optimize_mc(system, phi, objective)
                _check_optimum(
                    system, phi, objective, result, time.monotonic() - start
                )
                runs += 1
    print(f"criterion 8: {runs} optimization runs match the reference search")


# --- criterion 9 --------------------------------------------------------------


def test_criterion_09_two_coordinate_response_bounds(sys_streett):
    """A two-coordinate request/response system has the expected verdict
    surface, and flag-inconsistent mutations of it are rejected."""
    phi = parse(STREETT_FORMULA)
    points = 0
    for a in range(5):
        for b in range(5):
            valuation = {"x1": a, "x2": b}
            got = check_fixed(sys_streett, phi, valuation).holds
            want = a >= 2 and b >= 3
            assert got is want, valuation
            assert oracle_holds(sys_streett, phi, valuation) is want, valuation
            points += 1

    def mutated(labels=None, cost=None):
        return TransitionSystem(
            states=sys_streett.states,
            initial=sys_streett.initial,
            edges=sys_streett.edges,
            labels=labels if labels is not None else sys_streett.labels,
            cost=cost if cost is not None else sys_streett.cost,
            d=2,
        )

    relabeled = dict(sys_streett.labels)
    relabeled["s1"] = relabeled["s1"] - {"kappa1"}
    assert validate(mutated(labels=relabeled))

    relabeled = dict(sys_streett.labels)
    relabeled["s0"] = relabeled["s0"] | {"kappa2"}
    assert validate(mutated(labels=relabeled))

    recosted = dict(sys_streett.cost)
    recosted[("s0", "s1")] = (0, 0)
    assert validate(mutated(cost=recosted))

    relabeled = dict(sys_streett.labels)
    relabeled["s2"] = relabeled["s2"] - {"kappa2"}
    assert validate(mutated(labels=relabeled))

    print(
        f"criterion 9: {points} two-coordinate verdicts match the threshold "
        "surface; 4 flag mutations rejected"
    )


# --- criterion 10 -------------------------------------------------------------


def test_criterion_10_positive_existence_yields_valuation(exists_sweep):
    """Whenever existence holds, a concrete in-bound valuation is found."""
    found = 0
    for system, phi, result in exists_sweep:
        if not result.holds or not var_profile(phi).variables:
            continue
        witness = None
        for cap in (0, 1, 2, 4, 8, 16, 32):
            candidate = corner_valuation(phi, cap)
            if check_fixed(system, phi, candidate).holds:
                witness = candidate
                break
        assert witness is not None, (pretty_print(phi), system)
        assert all(0 <= v <= result.bound for v in witness.values())
        assert check_fixed(system, phi, witness).holds
        found += 1
    assert found > 0
    print(f"criterion 10: {found} positive instances produced valuations")
