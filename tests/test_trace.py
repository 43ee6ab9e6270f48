"""Cost traces: representation, evaluation, colorings."""

import math
import random
import time

import pytest

from conftest import T1_TEXT, random_trace
from cpltl.formula import COLOR_PREFIX, parse
from cpltl.trace import (
    CostLetter,
    CostTrace,
    TraceError,
    changepoints,
    check_bounded,
    check_spaced,
    evaluate,
    format_trace,
    kappa_violations,
    letter,
    make_spaced_coloring,
    parse_trace,
)
from cpltl.trace import Lasso, changepoints_of


def strip_colors(trace: CostTrace) -> CostTrace:
    """Remove all coloring propositions, keeping letters and costs."""
    def bare(lt: CostLetter) -> CostLetter:
        return CostLetter(
            frozenset(p for p in lt.props if not p.startswith(COLOR_PREFIX)),
            lt.cost,
        )

    return CostTrace(
        tuple(bare(lt) for lt in trace.prefix),
        tuple(bare(lt) for lt in trace.loop),
        trace.d,
    )


def is_coloring_of(colored: CostTrace, base: CostTrace) -> bool:
    """Does `colored` equal `base` once coloring propositions are removed?

    The two lassos may carve up the same infinite word differently, so
    compare position-wise across a full joint period.
    """
    if colored.d != base.d:
        return False
    horizon = (
        max(len(colored.prefix), len(base.prefix))
        + 2 * math.lcm(len(colored.loop), len(base.loop))
    )
    stripped = strip_colors(colored)
    for n in range(horizon):
        a, b = stripped.letter(n), base.letter(n)
        if a.props != b.props or a.cost != b.cost:
            return False
    return True


def test_t1_shape():
    t1 = parse_trace(T1_TEXT)
    assert t1.d == 1
    assert t1.prefix == ()
    assert len(t1.loop) == 2
    assert t1.n_slots == 2
    assert t1.props_at(0) == frozenset(["q"])
    assert t1.props_at(1) == frozenset(["p", "kappa1"])
    assert t1.props_at(2) == t1.props_at(0)


def test_t1_segment_costs():
    t1 = parse_trace(T1_TEXT)
    assert t1.segment_cost(0, 0, 1) == 0
    assert t1.segment_cost(0, 1, 1) == 3
    assert t1.segment_cost(0, 2, 1) == 3
    assert t1.segment_cost(0, 4, 1) == 6
    assert t1.segment_cost(1, 3, 1) == 3
    assert t1.step_cost(t1.slot(0), 1) == 3
    assert t1.step_cost(t1.slot(1), 1) == 0


def test_slot_arithmetic():
    trace = CostTrace(
        (letter(["p"], 0),),
        (letter(["q"], 1), letter(["kappa1"], 0)),
        1,
    )
    assert [trace.slot(i) for i in range(6)] == [0, 1, 2, 1, 2, 1]
    assert trace.succ_slot(0) == 1
    assert trace.succ_slot(2) == 1
    assert trace.unroll(5) == [trace.letter_at_slot(s) for s in (0, 1, 2, 1, 2)]


def test_negative_position_is_rejected():
    t1 = parse_trace(T1_TEXT)
    for pos in (-1, -5):
        with pytest.raises(TraceError, match="non-negative"):
            t1.slot(pos)
        with pytest.raises(TraceError, match="non-negative"):
            evaluate(t1, pos, {"x": 3}, parse("F[<=x] p"))


def test_kappa_validation():
    # positive-cost step into a letter lacking the kappa flag is rejected
    with pytest.raises(TraceError):
        CostTrace((), (letter(["p"], 1), letter([], 0)), 1)
    ok = CostTrace((), (letter(["p"], 1), letter(["kappa1"], 0)), 1)
    assert kappa_violations(ok) == []
    # the flag may not appear after a zero-cost step either
    with pytest.raises(TraceError):
        CostTrace((), (letter(["p"], 0), letter(["kappa1"], 0)), 1)
    # the loop seam wraps: the last loop letter feeds the first loop letter
    with pytest.raises(TraceError):
        CostTrace((letter([], 0),), (letter([], 0), letter([], 2)), 1)
    # the very first letter is unconstrained when a prefix exists
    CostTrace((letter(["kappa1"], 0),), (letter([], 0),), 1)


def test_dimension_checks():
    with pytest.raises(TraceError):
        CostTrace((), (letter([], 1, 0),), 1)
    with pytest.raises(TraceError):
        CostTrace((), (), 1)
    two = CostTrace((), (letter(["kappa2"], 0, 1),), 2)
    assert two.segment_cost(0, 3, 2) == 3


def test_evaluate_ltl_basics():
    t1 = parse_trace(T1_TEXT)
    for text, want in [
        ("q", True),
        ("p", False),
        ("X p", True),
        ("F p", True),
        ("G q", False),
        ("G (p | q)", True),
        ("q U p", True),
        ("p R (p | q)", True),
        ("F G p", False),
        ("G F p", True),
    ]:
        assert evaluate(t1, 0, {}, parse(text)) is want, text


def test_evaluate_budgeted():
    t1 = parse_trace(T1_TEXT)
    phi = parse("F[<=x] p")
    assert not evaluate(t1, 0, {"x": 0}, phi)
    assert not evaluate(t1, 0, {"x": 2}, phi)
    assert evaluate(t1, 0, {"x": 3}, phi)
    assert evaluate(t1, 1, {"x": 0}, phi)
    g = parse("G[<=y] q")
    assert evaluate(t1, 0, {"y": 0}, g)
    assert evaluate(t1, 0, {"y": 2}, g)
    assert not evaluate(t1, 0, {"y": 3}, g)
    mc1 = parse("G (q -> F[<=x] p)")
    assert evaluate(t1, 0, {"x": 3}, mc1)
    assert not evaluate(t1, 0, {"x": 2}, mc1)


def test_evaluate_time_does_not_grow_with_the_bound():
    loop = (letter(["q", "kappa1"], 1), letter(["q", "kappa1"], 1))
    start = time.perf_counter()
    assert evaluate(CostTrace((), loop, 1), 0, {"y": 10**6}, parse("G[<=y] q"))
    assert time.perf_counter() - start < 1.0
    # p only at the end of a 3001-slot loop, one cost unit per step
    long_loop = (letter(["q", "kappa1"], 1),) * 3000 + (letter(["p", "kappa1"], 1),)
    trace = CostTrace((), long_loop, 1)
    phi = parse("G (q -> F[<=y] p)")
    start = time.perf_counter()
    assert evaluate(trace, 0, {"y": 3000}, phi)
    assert not evaluate(trace, 0, {"y": 2999}, phi)
    assert time.perf_counter() - start < 1.0


def test_evaluate_positions_follow_slots():
    t1 = parse_trace(T1_TEXT)
    phi = parse("F[<=x] p")
    for pos in range(0, 10, 2):
        assert evaluate(t1, pos, {"x": 3}, phi)
        assert not evaluate(t1, pos, {"x": 2}, phi)


def test_strict_mode():
    t1 = parse_trace(T1_TEXT)
    phi = parse("F[<=x] p")
    assert not evaluate(t1, 0, {}, phi)  # unbound variables default to zero
    with pytest.raises(TraceError):
        evaluate(t1, 0, {}, phi, strict=True)
    with pytest.raises(TraceError):
        evaluate(t1, 0, {"x": -1}, phi)
    with pytest.raises(TraceError):
        evaluate(t1, 0, {}, parse("F[<=x@2] p"))  # coordinate beyond dimension


def test_make_spaced_coloring_frozen():
    t1 = parse_trace(T1_TEXT)
    colored = make_spaced_coloring(t1, 4)
    assert is_coloring_of(colored, t1)
    assert is_coloring_of(strip_colors(colored), t1)
    pts = changepoints(colored, 1)
    assert pts.initial == (0, 4, 8)
    assert pts.repeating == (4, 8)
    assert pts.period == 8
    assert not pts.finite
    assert pts.blocks() == ([(0, 4), (4, 8), (8, 12)], None)
    # blocks span [0,4) and [4,8); each costs 6 through its crossing step
    assert colored.segment_cost(0, 3, 1) == 6
    assert check_spaced(colored, 4)
    assert check_spaced(colored, 6)
    assert not check_spaced(colored, 7)


def test_make_spaced_coloring_random():
    rng = random.Random(406)
    for _ in range(100):
        base = random_trace(rng)
        k = rng.randint(1, 5)
        colored = make_spaced_coloring(base, k)
        assert is_coloring_of(colored, base)
        assert check_spaced(colored, k)


def test_check_bounded():
    t1 = parse_trace(T1_TEXT)
    # a block's cost runs from its changepoint through the crossing step,
    # so flipping every position makes each block exactly one step wide
    flip = []
    for slot in range(2):
        props = set(t1.letter_at_slot(slot).props)
        if slot % 2 == 0:
            props.add("p@1")
        flip.append(CostLetter(frozenset(props), t1.letter_at_slot(slot).cost))
    colored = CostTrace((), tuple(flip), 1)
    assert check_bounded(colored, 3)
    assert not check_bounded(colored, 2)
    assert not check_spaced(colored, 3)  # the zero-cost steps give 0-blocks
    assert check_spaced(colored, 0)
    # every other position pairs one costly step with a free crossing step
    wide = []
    for pos in range(4):
        base = t1.letter_at_slot(t1.slot(pos))
        props = set(base.props)
        if pos in (0, 1):
            props.add("p@1")
        wide.append(CostLetter(frozenset(props), base.cost))
    colored = CostTrace((), tuple(wide), 1)
    assert check_bounded(colored, 3)
    assert not check_bounded(colored, 2)
    assert check_spaced(colored, 3)
    # a coloring that never changes has an infinite-cost tail block
    assert not check_bounded(t1, 100)
    # with zero loop cost the frozen tail is finite and must fit the bound
    quiet = CostTrace(
        (letter(["p@1"], 0), letter([], 2), letter(["kappa1"], 0)),
        (letter([], 0),),
        1,
    )
    assert check_bounded(quiet, 2)
    assert not check_bounded(quiet, 1)


def test_coloring_checks_reject_plain_mismatch():
    t1 = parse_trace(T1_TEXT)
    other = CostTrace((), (letter(["q"], 3), letter(["p", "kappa1", "p@1"], 0)), 1)
    assert is_coloring_of(other, t1)
    changed = CostTrace((), (letter([], 3), letter(["p", "kappa1", "p@1"], 0)), 1)
    assert not is_coloring_of(changed, t1)


def test_format_parse_round_trip():
    rng = random.Random(407)
    for _ in range(50):
        trace = random_trace(rng, d=rng.choice((1, 2)))
        assert parse_trace(format_trace(trace)) == trace


@pytest.mark.parametrize(
    "text",
    [
        "",
        "dim 0\nloop:\n{p} -> 1\n",
        "dim 1\nloop:\n",
        "dim 1\nloop:\n{p} -> 1 2\n",
        "dim 1\nloop:\n{p} 1\n",
        "dim 1\nloop:\n{p} -> -1\n",
        "loop:\n{p} -> 1\n",
        "dim \u00b2\nloop:\n{p} -> 1\n",  # a superscript digit, which int() does not read
    ],
)
def test_parse_trace_errors(text):
    with pytest.raises(TraceError):
        parse_trace(text)


def _reduce_block(block, p, n):
    """Shift a block that starts past the prefix back into (p, p + n]."""
    a, b = block
    if a <= p:
        return block
    shift = (a - p - 1) // n * n
    return a - shift, b - shift


def _brute_force_blocks(prefix, loop):
    """Block classes and tail start from scanning p + 4n unrolled positions."""
    p, n = len(prefix), len(loop)
    bits = list(prefix) + list(loop) * 4
    points = [0] + [q for q in range(1, len(bits)) if bits[q] != bits[q - 1]]
    frozen = all(q <= p for q in points)
    blocks = {_reduce_block(block, p, n) for block in zip(points, points[1:])}
    return blocks, points[-1] if frozen else None


def test_blocks_match_brute_force_unrolling():
    rng = random.Random(2015)
    frozen = flipping = 0
    for _ in range(3000):
        prefix = tuple(rng.random() < 0.5 for _ in range(rng.randint(0, 4)))
        n = rng.randint(1, 5)
        if rng.random() < 0.3:
            loop = (rng.random() < 0.5,) * n
        else:
            loop = tuple(rng.random() < 0.5 for _ in range(n))
        blocks, tail = changepoints_of(Lasso(prefix, loop), bool).blocks()
        want_blocks, want_tail = _brute_force_blocks(prefix, loop)
        reduced = [_reduce_block(block, len(prefix), n) for block in blocks]
        assert len(set(reduced)) == len(reduced), (prefix, loop, blocks)
        assert set(reduced) == want_blocks, (prefix, loop, blocks)
        assert tail == want_tail, (prefix, loop, tail)
        if tail is None:
            flipping += 1
        else:
            frozen += 1
    assert frozen > 500 and flipping > 500
