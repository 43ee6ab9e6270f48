"""Property tests: printing, negation and evaluation on generated formulas,
including formulas nested more than 2000 deep."""

import itertools
import random
import re

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import FORMULA_TEXTS, random_trace
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
    always,
    eventually,
    ff,
    negate,
    parse,
    pretty_print,
    tt,
)
from cpltl.trace import evaluate

PROPERTY = settings(
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# Variables never bound both ways, so every generated formula is well-formed.
F_BOUNDS = (("x", 1), ("x2", 2))
G_BOUNDS = (("y", 1), ("y2", 2))

literals = st.builds(
    lambda name, positive: Atom(name) if positive else NegAtom(name),
    st.sampled_from(("p", "q")),
    st.booleans(),
)
leaves = st.one_of(literals, st.sampled_from((tt(), ff())))


def _bounded(kind, bounds, child):
    return st.builds(lambda vc, f: kind(vc[0], vc[1], f), st.sampled_from(bounds), child)


small_formulas = st.recursive(
    leaves,
    lambda kids: st.one_of(
        st.builds(And, kids, kids),
        st.builds(Or, kids, kids),
        st.builds(Next, kids),
        st.builds(Until, kids, kids),
        st.builds(Release, kids, kids),
        st.builds(eventually, kids),
        st.builds(always, kids),
        _bounded(FLe, F_BOUNDS, kids),
        _bounded(GLe, G_BOUNDS, kids),
    ),
    max_leaves=8,
)

# Families of one-level wrappers whose chains print without parentheses:
# prefix operators, right-nested U/R, left-nested & and left-nested |.
# Switching family costs one level of parentheses, so a deep formula is
# built from a few long single-family segments.
_P, _Q = Atom("p"), NegAtom("q")
FAMILIES = {
    "prefix": (
        Next,
        eventually,
        always,
        lambda f: FLe("x", 1, f),
        lambda f: GLe("y2", 2, f),
    ),
    "until": (lambda f: Until(_P, f), lambda f: Release(_Q, f)),
    "and": (lambda f: And(f, _P),),
    "or": (lambda f: Or(f, _Q),),
}


@st.composite
def deep_formulas(draw, min_depth=2000):
    phi = draw(small_formulas)
    segments = draw(
        st.lists(
            st.tuples(
                st.sampled_from(sorted(FAMILIES)),
                st.lists(st.integers(0, 4), min_size=1, max_size=4),
            ),
            min_size=1,
            max_size=4,
        )
    )
    length = -(-min_depth // len(segments)) + draw(st.integers(0, 50))
    for family, picks in segments:
        wrappers = FAMILIES[family]
        for level in range(length):
            phi = wrappers[picks[level % len(picks)] % len(wrappers)](phi)
    return phi


@PROPERTY
@given(small_formulas)
def test_print_parse_round_trip(phi):
    assert parse(pretty_print(phi)) == phi


@PROPERTY
@given(st.sampled_from(FORMULA_TEXTS), st.integers(0, 3000), st.integers(161, 3000), st.data())
def test_deep_parentheses_leave_the_tree_unchanged(text, outer, inner, data):
    # wrap the whole formula, and one of its atoms, deeper than recursive
    # descent could read
    atom = data.draw(st.sampled_from(list(re.finditer(r"\b[pq]\b", text))))
    wrapped = text[: atom.start()] + "(" * inner + atom[0] + ")" * inner + text[atom.end() :]
    assert parse("(" * outer + wrapped + ")" * outer) == parse(text)


@PROPERTY
@given(small_formulas, st.integers(900, 1100), st.integers(0, 2**32))
def test_print_parse_round_trip_alternating_chain(phi, depth, seed):
    # & and | alternate, so every second level prints a parenthesis
    rng = random.Random(seed)
    for level in range(depth):
        node = And if level % 2 else Or
        phi = node(phi, _P) if rng.random() < 0.5 else node(_Q, phi)
    text = pretty_print(phi)
    nesting = max(itertools.accumulate((c == "(") - (c == ")") for c in text))
    assert nesting > 400
    assert parse(text) == phi


@settings(PROPERTY, max_examples=25)
@given(deep_formulas())
def test_print_parse_round_trip_deep(phi):
    assert parse(pretty_print(phi)) == phi


@PROPERTY
@given(small_formulas)
def test_negation_is_an_involution(phi):
    assert negate(negate(phi)) == phi


@settings(PROPERTY, max_examples=25)
@given(deep_formulas())
def test_negation_is_an_involution_deep(phi):
    assert negate(negate(phi)) == phi


VALUATIONS = st.fixed_dictionaries({v: st.integers(0, 12) for v in ("x", "x2", "y", "y2")})


@settings(PROPERTY, max_examples=300)
@given(small_formulas, st.randoms(use_true_random=False), st.integers(0, 8), VALUATIONS)
def test_negation_complements_evaluation(phi, rng, position, valuation):
    trace = random_trace(rng, d=2, max_prefix=5, max_loop=6)
    assert evaluate(trace, position, valuation, negate(phi)) != evaluate(
        trace, position, valuation, phi
    )


@settings(PROPERTY, max_examples=25)
@given(deep_formulas(), st.randoms(use_true_random=False), st.integers(0, 8), VALUATIONS)
def test_negation_complements_evaluation_deep(phi, rng, position, valuation):
    trace = random_trace(rng, d=2, max_prefix=5, max_loop=6)
    assert evaluate(trace, position, valuation, negate(phi)) != evaluate(
        trace, position, valuation, phi
    )
