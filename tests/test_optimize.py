"""Parameter optimization objectives over weighted systems."""

import random

import pytest

from conftest import SYS_A_TEXT, box_optimum, oracle_holds, random_ring
from cpltl import modelcheck, optimize
from cpltl.formula import FragmentError, parse, var_profile
from cpltl.modelcheck import check_fixed, check_forall, valuation_upper_bound
from cpltl.optimize import (
    Objective,
    OptimizeResult,
    binary_search_threshold,
    gallop_threshold,
    optimize_mc,
)
from cpltl.system import TransitionSystem, parse_system

MC1 = "G (q -> F[<=x] p)"


@pytest.fixture(scope="module")
def sys_a():
    return parse_system(SYS_A_TEXT)


def test_objective_values():
    assert Objective.MIN_MIN.value == "min-min"
    assert Objective.MIN_MAX.value == "min-max"
    assert Objective.MAX_MAX.value == "max-max"
    assert Objective.MAX_MIN.value == "max-min"
    assert Objective("min-min") is Objective.MIN_MIN


def test_binary_search_least():
    calls = []

    def pred(v):
        calls.append(v)
        return v >= 3

    assert binary_search_threshold(pred, 0, 26) == 3
    # bisection probes each point once: at most ceil(log2(27)) + 1
    assert len(calls) <= 6
    assert binary_search_threshold(lambda v: v >= 0, 0, 26) == 0
    assert binary_search_threshold(lambda v: v >= 26, 0, 26) == 26
    assert binary_search_threshold(lambda v: False, 0, 26) is None


def test_binary_search_greatest():
    assert binary_search_threshold(lambda v: v <= 17, 0, 26, find="greatest") == 17
    assert binary_search_threshold(lambda v: True, 0, 26, find="greatest") == 26
    assert binary_search_threshold(lambda v: v <= -1, 0, 26, find="greatest") is None


def test_binary_search_edges():
    assert binary_search_threshold(lambda v: True, 5, 3) is None
    assert binary_search_threshold(lambda v: True, 4, 4) == 4
    with pytest.raises(ValueError):
        binary_search_threshold(lambda v: True, 0, 3, find="middle")


def _loop_threshold(predicate, lo, hi, find):
    """binary_search_threshold as two hand-written bisection loops, the
    reference for its probe sequence."""
    if lo > hi:
        return None
    if find == "least":
        if not predicate(hi):
            return None
        while lo < hi:
            mid = (lo + hi) // 2
            if predicate(mid):
                hi = mid
            else:
                lo = mid + 1
        return lo
    if not predicate(lo):
        return None
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if predicate(mid):
            lo = mid
        else:
            hi = mid - 1
    return lo


def test_binary_search_probes_like_the_loop_version():
    # every threshold on and just outside each range, both directions
    for lo in range(6):
        for hi in range(lo - 1, 40):
            for threshold in range(lo - 1, hi + 2):
                for find, holds in (
                    ("least", lambda v: v >= threshold),
                    ("greatest", lambda v: v <= threshold),
                ):
                    probes = ([], [])

                    def probe(k):
                        return lambda v: probes[k].append(v) or holds(v)

                    got = binary_search_threshold(probe(0), lo, hi, find)
                    want = _loop_threshold(probe(1), lo, hi, find)
                    assert (got, probes[0]) == (want, probes[1]), (
                        lo, hi, threshold, find,
                    )


def test_gallop_threshold():
    for threshold in (0, 1, 2, 3, 5, 8, 13, 26):
        calls = []

        def pred(v):
            calls.append(v)
            return v >= threshold

        assert gallop_threshold(pred, 26) == threshold
        assert max(calls) <= 2 * threshold + 1
        assert gallop_threshold(lambda v: v <= threshold, 26, "greatest") == threshold
    assert gallop_threshold(lambda v: False, 26) is None
    assert gallop_threshold(lambda v: v <= -1, 26, "greatest") is None
    assert gallop_threshold(lambda v: True, 0) == 0
    with pytest.raises(ValueError):
        gallop_threshold(lambda v: True, 3, find="middle")


def test_min_min_frozen(sys_a):
    result = optimize_mc(sys_a, parse(MC1), Objective.MIN_MIN)
    assert result.status == "optimal"
    assert result.value == 3
    assert result.witness == {"x": 3}
    assert not result.empty_domain
    assert result.probes == 6
    assert result.bound == valuation_upper_bound(sys_a, parse(MC1))
    # the witness is feasible and one step below is not
    assert check_fixed(sys_a, parse(MC1), result.witness).holds
    assert not check_fixed(sys_a, parse(MC1), {"x": 2}).holds


def test_min_max_frozen(sys_a):
    result = optimize_mc(sys_a, parse(MC1), Objective.MIN_MAX)
    assert (result.status, result.value, result.witness) == ("optimal", 3, {"x": 3})


def test_max_objectives_frozen(sys_a):
    for objective in (Objective.MAX_MAX, Objective.MAX_MIN):
        result = optimize_mc(sys_a, parse("G[<=y] q"), objective)
        assert (result.status, result.value, result.witness) == (
            "optimal",
            2,
            {"y": 2},
        ), objective
        assert (result.probes, result.bound) == (5, 98), objective
        assert check_fixed(sys_a, parse("G[<=y] q"), {"y": 2}).holds
        assert not check_fixed(sys_a, parse("G[<=y] q"), {"y": 3}).holds


def test_unbounded(sys_a):
    # every state satisfies q or p, so any budget is tolerated
    for objective in (Objective.MAX_MAX, Objective.MAX_MIN):
        result = optimize_mc(sys_a, parse("G[<=y] (q | p)"), objective)
        assert result.status == "unbounded"
        assert result.value is None
        assert result.witness is None


def test_infeasible(sys_a):
    for objective in (Objective.MIN_MIN, Objective.MIN_MAX):
        result = optimize_mc(sys_a, parse("F[<=x] r"), objective)
        assert (result.status, result.value, result.witness) == (
            "infeasible",
            None,
            None,
        )
    result = optimize_mc(sys_a, parse("G[<=y] p"), Objective.MAX_MIN)
    assert result.status == "infeasible"


def test_empty_domain(sys_a):
    holds = optimize_mc(sys_a, parse("p | !p"), Objective.MIN_MIN)
    assert (holds.status, holds.value, holds.witness) == ("optimal", 0, {})
    assert holds.empty_domain
    assert holds.probes == 1
    fails = optimize_mc(sys_a, parse("p"), Objective.MAX_MAX)
    assert (fails.status, fails.value, fails.witness) == ("infeasible", None, None)
    assert fails.empty_domain


def test_objective_accepts_raw_value(sys_a):
    result = optimize_mc(sys_a, parse("G[<=y] q"), "max-max")
    assert (result.status, result.value) == ("optimal", 2)


def test_fragment_errors(sys_a):
    with pytest.raises(FragmentError):
        optimize_mc(sys_a, parse("G[<=y] q"), Objective.MIN_MIN)
    with pytest.raises(FragmentError):
        optimize_mc(sys_a, parse("F[<=x] p"), Objective.MAX_MAX)
    for objective in Objective:
        with pytest.raises(FragmentError):
            optimize_mc(sys_a, parse("F[<=x] p & G[<=y] q"), objective)


def _tiny_system(d):
    return TransitionSystem(
        states=("a",),
        initial="a",
        edges={"a": ("a",)},
        labels={"a": frozenset(["p"])},
        cost={("a", "a"): (0,) * d},
        d=d,
    )


# On a zero-cost loop the least F-budget suffices and G-budgets tolerate
# anything.
TINY_PLANS = (
    ("F[<=x] p", Objective.MIN_MIN, ("optimal", 0, {"x": 0})),
    ("F[<=x] p", Objective.MIN_MAX, ("optimal", 0, {"x": 0})),
    ("G[<=y] p", Objective.MAX_MAX, ("unbounded", None, None)),
    ("G[<=y] p", Objective.MAX_MIN, ("unbounded", None, None)),
)

# Max objectives on the Streett fixture, derived by hand.  Every run
# reaches s2, which has neither Q1 nor P1, after coordinate-1 cost 2, and
# reaches P2 (at s2) after coordinate-2 cost 3.  In the disjunction,
# G[<=0@1] !P2 only sees s0, so it holds and leaves y unbounded.
STREETT_PLANS = (
    ("G[<=y@1] (Q1 | P1)", Objective.MAX_MAX, ("optimal", 1, {"y": 1})),
    ("G[<=y@2] !P2", Objective.MAX_MAX, ("optimal", 2, {"y": 2})),
    (
        "G[<=y@1] (Q1 | P1) & G[<=y2@2] !P2",
        Objective.MAX_MAX,
        ("optimal", 2, {"y": 0, "y2": 2}),
    ),
    (
        "G[<=y@1] (Q1 | P1) & G[<=y2@2] !P2",
        Objective.MAX_MIN,
        ("optimal", 1, {"y": 1, "y2": 1}),
    ),
    ("G[<=y@2] Q1 | G[<=y2@1] !P2", Objective.MAX_MAX, ("unbounded", None, None)),
)


def test_multi_coordinate_optimizes_by_search(sys_streett):
    # several coordinates take the same corner check and line searches
    tiny = _tiny_system(2)
    # variable-free queries only check the corner
    plain = optimize_mc(tiny, parse("p"), Objective.MIN_MIN)
    assert (plain.status, plain.value) == ("optimal", 0)
    cases = [(tiny, *plan) for plan in TINY_PLANS]
    cases += [(sys_streett, *plan) for plan in STREETT_PLANS]
    for system, text, objective, expected in cases:
        phi = parse(text)
        result = optimize_mc(system, phi, objective)
        assert (result.status, result.value, result.witness) == expected
        _check_two_variable_optimum(system, phi, objective, result)
        if result.witness is not None:
            assert oracle_holds(system, phi, result.witness)


def test_searches_agree_with_box_scan(sys_streett):
    # the line searches and a scan of the box [0, 4]^k agree; zero-cost
    # systems and the Streett fixture's max objectives keep the box small
    hi = 4
    cases = [(_tiny_system(d), *plan) for d in (1, 2) for plan in TINY_PLANS]
    cases += [(sys_streett, *plan) for plan in STREETT_PLANS]
    for system, text, objective, _ in cases:
        phi = parse(text)
        result = optimize_mc(system, phi, objective)
        best, witnesses = box_optimum(system, phi, objective.value, hi)
        if result.status == "infeasible":
            assert best is None
        elif result.status == "unbounded":
            assert best == hi
        else:
            assert result.value == best
            assert result.witness in witnesses


# Seeded d=2 rings against one- and two-variable formulas on each
# coordinate.
D2_POOL_PLANS = (
    ("G (q -> F[<=x@2] p)", (Objective.MIN_MIN, Objective.MIN_MAX)),
    ("G F[<=x] p & G F[<=x2@2] q", (Objective.MIN_MIN, Objective.MIN_MAX)),
    ("F[<=x] p & F[<=x2@2] q", (Objective.MIN_MIN, Objective.MIN_MAX)),
    ("G (q -> X G[<=y@2] !q)", (Objective.MAX_MAX, Objective.MAX_MIN)),
    ("X (G[<=y] !p | G[<=y2@2] !q)", (Objective.MAX_MAX, Objective.MAX_MIN)),
    (
        "G (p -> X G[<=y] !p) & G (q -> X G[<=y2@2] !q)",
        (Objective.MAX_MAX, Objective.MAX_MIN),
    ),
)


def test_d2_pool_matches_box_scan():
    """Each result agrees with a scan of the box [0, 12]^k: the optimum
    when it lies in the box, no feasible point when infeasible or when a
    minimum lies beyond it, the box's top when unbounded or when a maximum
    lies beyond it.  Witnesses also hold by the oracle."""
    hi = 12
    rng = random.Random(1717)
    systems = [random_ring(rng, rng.randint(3, 5), d=2) for _ in range(8)]
    values = set()
    for system in systems:
        for text, objectives in D2_POOL_PLANS:
            phi = parse(text)
            for objective in objectives:
                result = optimize_mc(system, phi, objective)
                best, witnesses = box_optimum(system, phi, objective.value, hi)
                values.add(result.value if result.value is not None else result.status)
                if result.status == "infeasible":
                    assert best is None
                    continue
                if result.status == "unbounded" or result.value > hi:
                    minimizing = objective.value.startswith("min")
                    assert best == (None if minimizing else hi)
                    continue
                assert best == result.value, (text, objective, system)
                if all(v <= hi for v in result.witness.values()):
                    assert result.witness in witnesses
                assert oracle_holds(system, phi, result.witness)
    assert {"infeasible", "unbounded", 0, 1, 2, 3, 4} <= values


def test_result_shape(sys_a):
    result = optimize_mc(sys_a, parse(MC1), Objective.MIN_MIN)
    assert isinstance(result, OptimizeResult)
    assert result.probes >= 1
    assert result.bound >= 1


# p costs 2 to reach and q costs 5, so the search lines of a two-variable
# objective have different thresholds.
STAIRS_TEXT = """\
dim 1
state s0 init :
state s1 : p kappa1
state s2 : q kappa1
edge s0 s1 : 2
edge s1 s2 : 3
edge s2 s2 : 1
"""

TWO_VARIABLE_PLANS = (
    ("F[<=x] p & F[<=x2] q", (Objective.MIN_MIN, Objective.MIN_MAX)),
    ("F[<=x] q & F[<=x2] p", (Objective.MIN_MIN, Objective.MIN_MAX)),
    ("F[<=x] p | F[<=x2] q", (Objective.MIN_MIN, Objective.MIN_MAX)),
    ("G[<=y] !p & G[<=y2] !q", (Objective.MAX_MAX, Objective.MAX_MIN)),
    ("G[<=y] !q & G[<=y2] !p", (Objective.MAX_MAX, Objective.MAX_MIN)),
    ("G[<=y] p | G[<=y2] q", (Objective.MAX_MAX, Objective.MAX_MIN)),
)


def _check_two_variable_optimum(system, phi, objective, result):
    """Compare with a check_fixed scan over 0..12 along each search line:
    one line per variable for min-min and max-max, the others held at the
    permissive value (the reported bound for F, 0 for G); one line of
    uniform valuations for min-max and max-min."""
    variables = sorted(var_profile(phi).variables)
    minimizing = objective in (Objective.MIN_MIN, Objective.MIN_MAX)
    if objective in (Objective.MIN_MIN, Objective.MAX_MAX):
        lines = [(x,) for x in variables]
    else:
        lines = [tuple(variables)]

    def point(line, v):
        valuation = dict.fromkeys(variables, result.bound if minimizing else 0)
        valuation.update(dict.fromkeys(line, v))
        return valuation

    def feas(line, v):
        return check_fixed(system, phi, point(line, v)).holds

    boxes = [[v for v in range(13) if feas(line, v)] for line in lines]
    if minimizing:
        ends = [(box[0], line) for box, line in zip(boxes, lines) if box]
        if ends:
            value, line = min(ends, key=lambda end: end[0])
            assert (result.status, result.value) == ("optimal", value)
            assert result.witness == point(line, value)
        elif result.status == "optimal":
            assert result.value > 12
        else:
            assert result.status == "infeasible"
        if result.status == "optimal":
            assert check_fixed(system, phi, result.witness).holds
            assert result.value == 0 or not any(
                feas(line, result.value - 1) for line in lines
            )
        return
    if not any(boxes):
        assert result.status == "infeasible"
    elif result.status == "unbounded":
        assert list(range(13)) in boxes
    else:
        assert result.status == "optimal"
        assert check_fixed(system, phi, result.witness).holds
        assert not any(feas(line, result.value + 1) for line in lines)
        if result.value <= 12:
            ends = [(box[-1], line) for box, line in zip(boxes, lines) if box]
            value, line = max(ends, key=lambda end: end[0])
            assert result.value == value
            assert result.witness == point(line, value)


def test_two_variable_objectives_match_reference_scan(system_pool, sys_a):
    stairs = parse_system(STAIRS_TEXT)
    systems = [sys_a, stairs] + [system_pool[i] for i in (0, 9, 17)]
    seen = set()
    for system in systems:
        for text, objectives in TWO_VARIABLE_PLANS:
            phi = parse(text)
            for objective in objectives:
                result = optimize_mc(system, phi, objective)
                _check_two_variable_optimum(system, phi, objective, result)
                seen.add(result.status)
    assert seen == {"optimal", "infeasible", "unbounded"}
    # on the stairs each line has its own threshold
    expected = {
        ("F[<=x] q & F[<=x2] p", Objective.MIN_MIN): (2, "x2"),
        ("F[<=x] q & F[<=x2] p", Objective.MIN_MAX): (5, None),
        ("G[<=y] !q & G[<=y2] !p", Objective.MAX_MAX): (4, "y"),
        ("G[<=y] !q & G[<=y2] !p", Objective.MAX_MIN): (1, None),
    }
    for (text, objective), (value, moved) in expected.items():
        result = optimize_mc(stairs, parse(text), objective)
        assert (result.status, result.value) == ("optimal", value)
        if moved is not None:
            assert result.witness[moved] == value


def test_probes_gallop_below_the_bound(monkeypatch, system_pool, sys_a):
    """Bounded max-max and max-min searches probe nothing above twice the
    optimum plus one; check_forall calls check_fixed at the bound only
    when the gallop gets there."""
    probed = []

    def recording(system, phi, valuation):
        probed.append(dict(valuation))
        return check_fixed(system, phi, valuation)

    monkeypatch.setattr(optimize, "check_fixed", recording)
    # q for the first 12 units of cost, then p for good
    far = parse_system(
        "dim 1\nstate s0 init : q\nstate s1 : q kappa1\nstate s2 : q kappa1\n"
        "state s3 : p kappa1\nedge s0 s1 : 5\nedge s1 s2 : 6\nedge s2 s3 : 2\n"
        "edge s3 s3 : 1\n"
    )
    systems = [sys_a, far, parse_system(STAIRS_TEXT), *system_pool]
    texts = ("G[<=y] q", "G[<=y] (p | q)", "G[<=y] !q & G[<=y2] !p", "G[<=y] p | G[<=y2] q")
    optima = 0
    for system in systems:
        for text in texts:
            for objective in (Objective.MAX_MAX, Objective.MAX_MIN):
                probed.clear()
                result = optimize_mc(system, parse(text), objective)
                assert result.probes == len(probed)
                if result.status == "optimal":
                    optima += 1
                    top = max(v for valuation in probed for v in valuation.values())
                    assert top <= 2 * result.value + 1, (text, objective, probed)
                elif result.status == "infeasible":
                    assert probed == [dict.fromkeys(probed[0], 0)]
                else:
                    # the dual, not a probe at the bound, found the
                    # unbounded line
                    assert all(result.bound not in v.values() for v in probed)
    assert optima >= 30

    monkeypatch.setattr(modelcheck, "check_fixed", recording)
    for system in systems:
        for text in ("G[<=y] q", "G[<=y] (p | q)", "G (p -> G[<=y] q)", "p U G[<=y] q"):
            probed.clear()
            result = check_forall(system, parse(text))
            at_bound = [v for v in probed if result.bound in v.values()]
            if at_bound:
                # only as the gallop's last rung, after every smaller one held
                assert at_bound == probed[-1:]
                assert len(probed) >= 2 and max(probed[-2].values()) * 2 >= result.bound
