"""Formula layer: parser, printer, negation, closure, rewrites."""

import random
import time

import pytest

from conftest import FORMULA_TEXTS, random_formula, random_trace
from cpltl.automata import ltl_to_nba
from cpltl.formula import (
    And,
    Atom,
    FLe,
    FormulaError,
    GLe,
    NegAtom,
    Next,
    Or,
    ParseError,
    Release,
    Until,
    always,
    atoms,
    chi_formula,
    closure,
    color_name,
    drop_cost_bounds,
    eliminate_parametric_always,
    eventually,
    expand_derived,
    ff,
    is_ff,
    is_tt,
    kappa_name,
    negate,
    parse,
    pretty_print,
    relativize,
    require_well_formed,
    simplify_constants,
    subformulas,
    tt,
    var_profile,
)
from cpltl.trace import CostLetter, CostTrace, evaluate


def test_parse_pretty_round_trip_pool():
    for text in FORMULA_TEXTS:
        phi = parse(text)
        assert parse(pretty_print(phi)) == phi


def test_parse_pretty_round_trip_random():
    rng = random.Random(401)
    for _ in range(300):
        phi = random_formula(rng, rng.randint(1, 4), d=2, f_vars=("x", "x2"), g_vars=("y",))
        assert parse(pretty_print(phi)) == phi


def test_precedence():
    assert parse("p | q & r") == Or(Atom("p"), And(Atom("q"), Atom("r")))
    assert parse("p & q U r") == And(Atom("p"), Until(Atom("q"), Atom("r")))
    # U is right-associative and binds tighter than conjunction
    assert parse("p U q U r") == Until(Atom("p"), Until(Atom("q"), Atom("r")))
    assert parse("X p U q") == Until(Next(Atom("p")), Atom("q"))
    assert parse("p -> q -> r") == parse("!p | (!q | r)")
    assert parse("(p | q) & r") == And(Or(Atom("p"), Atom("q")), Atom("r"))


def test_parse_negation_is_pushed():
    assert parse("!(p & q)") == Or(NegAtom("p"), NegAtom("q"))
    assert parse("!(p U q)") == Release(NegAtom("p"), NegAtom("q"))
    assert parse("!X p") == Next(NegAtom("p"))
    assert parse("!!p") == Atom("p")
    assert parse("!F[<=x] p") == GLe("x", 1, NegAtom("p"))


def test_parse_brackets():
    assert parse("F[<=x] p") == FLe("x", 1, Atom("p"))
    assert parse("G[<=y] p") == GLe("y", 1, Atom("p"))
    assert parse("F[<=x@2] p") == FLe("x", 2, Atom("p"))
    assert parse("a U[<=x] b") == expand_derived("U<=", (Atom("a"), Atom("b")), var="x")
    assert parse("a R[<=y] b") == expand_derived("R<=", (Atom("a"), Atom("b")), var="y")
    assert parse("F[>y] a") == expand_derived("F>", (Atom("a"),), var="y")
    assert parse("G[>x] a") == expand_derived("G>", (Atom("a"),), var="x")


def test_parse_constants():
    assert is_tt(parse("tt"))
    assert is_ff(parse("ff"))
    assert is_tt(tt()) and is_ff(ff())
    assert not is_tt(ff()) and not is_ff(tt())


PARSE_ERRORS = {
    "": "expected a formula, found 'end of input' (column 1)",
    "p &": "expected a formula, found 'end of input' (column 4)",
    "& p": "expected a formula, found '&' (column 1)",
    "(p": "expected ')', found 'end of input' (column 3)",
    "p)": "unexpected trailing input ')' (column 2)",
    "F[<=] p": "expected a variable name inside brackets (column 5)",
    "F[<=x p": "expected ']', found 'p' (column 7)",
    "p q": "unexpected trailing input 'q' (column 3)",
    "U p": "'U' is an operator, not a proposition (column 1)",
    "F[<=x@0] p": "coordinate index must be >= 1 (column 7)",
    # a superscript digit, which int() does not read
    "F[<=x@\u00b2] p": "unexpected character '\u00b2' (column 7)",
    "(p q)": "expected ')', found 'q' (column 4)",
    "((p)": "expected ')', found 'end of input' (column 5)",
    "!(": "expected a formula, found 'end of input' (column 3)",
    "p U": "expected a formula, found 'end of input' (column 4)",
    "F[x] p": "expected '<=' or '>' inside brackets (column 3)",
}


@pytest.mark.parametrize("text", list(PARSE_ERRORS))
def test_parse_errors(text):
    with pytest.raises(ParseError) as info:
        parse(text)
    assert str(info.value) == PARSE_ERRORS[text]
    assert f"(column {info.value.position + 1})" in PARSE_ERRORS[text]


def test_negate_involution_and_closure_size():
    rng = random.Random(402)
    pool = [parse(t) for t in FORMULA_TEXTS]
    pool += [
        random_formula(rng, rng.randint(1, 4), d=2, f_vars=("x",), g_vars=("y",))
        for _ in range(200)
    ]
    for phi in pool:
        neg = negate(phi)
        assert negate(neg) == phi
        assert len(closure(neg)) == len(closure(phi))


def test_negate_semantic_complement():
    rng = random.Random(403)
    for _ in range(300):
        phi = random_formula(rng, rng.randint(1, 3), f_vars=("x",), g_vars=("y",))
        trace = random_trace(rng)
        val = {"x": rng.randint(0, 5), "y": rng.randint(0, 5)}
        assert evaluate(trace, 0, val, phi) != evaluate(trace, 0, val, negate(phi))


def test_closure_frozen():
    phi = And(Atom("p"), Next(Atom("q")))
    assert closure(phi) == frozenset(
        [phi, Atom("p"), Next(Atom("q")), Atom("q")]
    )
    mc1 = parse("G (q -> F[<=x] p)")
    assert FLe("x", 1, Atom("p")) in closure(mc1)
    assert Atom("p") in closure(mc1)
    assert list(subformulas(phi))[0] == phi


def test_pool_formulas_small_and_well_formed():
    for text in FORMULA_TEXTS:
        phi = parse(text)
        require_well_formed(phi)
        assert len(closure(phi)) <= 8


def test_var_profile():
    profile = var_profile(parse("F[<=x] p & G[<=y] q"))
    assert profile.var_f == frozenset(["x"])
    assert profile.var_g == frozenset(["y"])
    assert profile.variables == frozenset(["x", "y"])
    shared = And(FLe("x", 1, Atom("p")), GLe("x", 1, Atom("q")))
    assert not var_profile(shared).well_formed
    with pytest.raises(FormulaError):
        require_well_formed(shared)


def test_atoms():
    assert atoms(parse("G (q -> F[<=x] p)")) == frozenset(["p", "q"])


def test_eliminate_parametric_always_shape():
    got = eliminate_parametric_always(GLe("y", 1, Atom("a")))
    kappa = Atom("kappa1")
    assert got == And(Atom("a"), Next(Release(kappa, Or(kappa, Atom("a")))))
    got2 = eliminate_parametric_always(GLe("y", 2, Atom("a")))
    kappa2 = Atom("kappa2")
    assert got2 == And(Atom("a"), Next(Release(kappa2, Or(kappa2, Atom("a")))))
    plain = parse("G (q -> F[<=x] p)")
    assert eliminate_parametric_always(plain) == plain


def test_node_hash_is_the_field_tuple_hash(formula_pool):
    # the hash of the field tuple, so set orders (and the automata built
    # from them) do not change when the hash is stored
    for phi in formula_pool:
        for node in subformulas(phi):
            fields = tuple(getattr(node, name) for name in node.__match_args__)
            assert hash(node) == hash(fields)
    deep = Atom("p")
    for _ in range(5000):
        deep = Next(deep)
    assert deep in {deep}
    assert len(list(subformulas(deep))) == 5001
    # equality compares fields, not just stored hashes: in CPython
    # hash(-1) == hash(-2), so these two nodes hash alike
    twins = FLe("x", -1, Atom("p")), FLe("x", -2, Atom("p"))
    assert hash(twins[0]) == hash(twins[1])
    assert twins[0] != twins[1]


def test_deep_formulas_parse_compare_and_print():
    text = "X " * 3000 + "p"
    deep = parse(text)
    assert deep == parse(text)
    assert deep != parse("X " * 2999 + "q")
    assert negate(negate(deep)) == deep
    assert parse(pretty_print(deep)) == deep
    assert repr(deep).startswith("Next(child=Next(child=")
    until_chain = parse(" U ".join(["p"] * 3000))
    assert parse(pretty_print(until_chain)) == until_chain
    implications = Atom("p")
    for _ in range(2999):
        implications = Or(NegAtom("p"), implications)
    assert parse(" -> ".join(["p"] * 3000)) == implications


def test_prefix_chains_apply_innermost_first():
    assert parse("X ! F[<=x] p") == Next(GLe("x", 1, NegAtom("p")))
    assert parse("! X G[<=y@2] p") == Next(FLe("y", 2, NegAtom("p")))
    assert parse("F G[>y] X p") == parse("F (G[>y] (X p))")
    assert parse("! ! ! p") == NegAtom("p")


def test_parentheses_nest_to_any_depth():
    # parentheses are read by the same loop as operator chains
    assert parse("(" * 100_000 + "p" + ")" * 100_000) == Atom("p")
    assert parse("X (" * 3000 + "p" + ")" * 3000) == parse("X " * 3000 + "p")
    with pytest.raises(ParseError, match=r"expected '\)', found 'end of input' \(column 100002\)"):
        parse("(" * 100_000 + "p")


def test_rewrites_visit_shared_subterms_once():
    # relativizing F[<=x] and eliminating G[<=y] both use the rewritten
    # body twice, so these chains have 2^16 paths through 16 levels
    f_chain = relativize(parse("F[<=x] " * 16 + "p"), 1)
    g_chain = eliminate_parametric_always(parse("G[<=y] " * 16 + "p"))
    for phi in (f_chain, g_chain):
        start = time.perf_counter()
        neg = simplify_constants(negate(phi))
        assert time.perf_counter() - start < 1.0
        assert negate(neg) == phi


def test_drop_cost_bounds():
    got = drop_cost_bounds(parse("G[<=y] (p -> X F[<=x@2] q) & q U G[<=z] p"))
    assert got == parse("G (p -> X F q) & q U G p")


def test_eliminate_matches_zero_budget_semantics():
    # The rewrite must agree with the bounded-always operator when its
    # variable is fixed to zero, on every position of sampled traces.
    rng = random.Random(404)
    for _ in range(150):
        d = rng.choice((1, 2))
        coord = rng.randint(1, d)
        body = random_formula(rng, 1, d=d, f_vars=(), g_vars=())
        phi = GLe("y", coord, body)
        rewritten = eliminate_parametric_always(phi)
        trace = random_trace(rng, d=d)
        for pos in range(trace.n_slots + 1):
            want = evaluate(trace, pos, {"y": 0}, phi)
            got = evaluate(trace, pos, {}, rewritten)
            assert got == want, (pretty_print(phi), pos)


def test_relativize_shape_and_errors():
    got = relativize(parse("F[<=x] q"), 1)
    p1 = Atom("p@1")
    n1 = NegAtom("p@1")
    q = Atom("q")
    assert got == And(
        Or(n1, Until(p1, Until(n1, q))),
        Or(p1, Until(n1, Until(p1, q))),
    )
    plain = parse("p U q")
    assert relativize(plain, 1) == plain
    with pytest.raises(FormulaError):
        relativize(parse("G[<=y] p"), 1)
    with pytest.raises(FormulaError):
        relativize(And(Atom("p@1"), FLe("x", 1, Atom("q"))), 1)
    with pytest.raises(FormulaError):
        relativize(FLe("x", 2, Atom("q")), 1)  # coordinate out of range


def _colored(costs, flags, kappas):
    letters = []
    for c, flag, k in zip(costs, flags, kappas):
        props = set()
        if flag:
            props.add("p@1")
        if k:
            props.add("kappa1")
        letters.append(CostLetter(frozenset(props), (c,)))
    return CostTrace((), tuple(letters), 1)


def _chi_biconditional_at(i):
    """Coordinate i's consistency conjunct as the biconditional
    changes <-> inf: the reference chi_formula's disjunctive form must
    equal."""
    color = Atom(color_name(i))
    changes = And(always(eventually(color)), always(eventually(negate(color))))
    infinite_cost = always(eventually(Atom(kappa_name(i))))
    return And(
        Or(negate(changes), infinite_cost),
        Or(negate(infinite_cost), changes),
    )


def _chi_biconditional(d):
    result = _chi_biconditional_at(1)
    for i in range(2, d + 1):
        result = And(result, _chi_biconditional_at(i))
    return result


def test_chi_equals_the_biconditional():
    # Each coordinate's disjunctive conjunct and the biconditional accept
    # the same words: neither is satisfiable with the other negated.  The
    # second coordinate's conjunct is checked on its own, over p@2 and
    # kappa2; the whole d = 2 converse takes seconds to translate.
    pairs = [
        (chi_formula(1), _chi_biconditional(1)),
        (chi_formula(2).right, _chi_biconditional_at(2)),
    ]
    for new, old in pairs:
        assert not ltl_to_nba(And(new, negate(old))).accepting
        assert not ltl_to_nba(And(old, negate(new))).accepting


def test_chi_agrees_with_the_biconditional_on_lassos():
    rng = random.Random(417)
    for d in (1, 2):
        colors = tuple(color_name(i) for i in range(1, d + 1))
        new, old = chi_formula(d), _chi_biconditional(d)
        verdicts = set()
        for _ in range(300):
            trace = random_trace(rng, d=d, props=colors)
            got = evaluate(trace, 0, {}, new)
            assert got == evaluate(trace, 0, {}, old), trace
            verdicts.add(got)
        assert verdicts == {True, False}


def _colored2(letters):
    """A loop of d = 2 letters (color 1, kappa 1, color 2, kappa 2), with
    cost 1 wherever the coordinate's kappa holds."""
    names = ("p@1", "kappa1", "p@2", "kappa2")
    return CostTrace(
        (),
        tuple(
            CostLetter(
                frozenset(n for n, on in zip(names, flags) if on),
                (int(flags[1]), int(flags[3])),
            )
            for flags in letters
        ),
        2,
    )


def test_chi_semantics():
    chi = chi_formula(1)
    # infinitely many changepoints and infinite cost: both sides hold
    w = _colored([1, 1], [True, False], [True, True])
    assert evaluate(w, 0, {}, chi)
    # constant coloring but infinite cost: finitely many changepoints only
    w = _colored([1, 1], [True, True], [True, True])
    assert not evaluate(w, 0, {}, chi)
    # alternating coloring with zero cost: infinitely many changepoints
    w = _colored([0, 0], [True, False], [False, False])
    assert not evaluate(w, 0, {}, chi)
    # constant coloring and zero cost: both sides fail, so chi holds
    w = _colored([0, 0], [False, False], [False, False])
    assert evaluate(w, 0, {}, chi)
    # d = 2: coordinate 1 alternates and pays.  Coordinate 2 frozen while
    # it still pays breaks chi, whichever color it freezes at; frozen and
    # free it keeps chi.
    chi = chi_formula(2)
    for frozen in (True, False):
        paying = _colored2([(True, True, frozen, True), (False, True, frozen, True)])
        assert not evaluate(paying, 0, {}, chi)
        free = _colored2([(True, True, frozen, False), (False, True, frozen, False)])
        assert evaluate(free, 0, {}, chi)


def test_simplify_constants():
    p = Atom("p")
    assert simplify_constants(Until(p, tt())) == tt()
    assert simplify_constants(And(tt(), p)) == p
    assert simplify_constants(Or(ff(), p)) == p
    assert simplify_constants(Or(tt(), p)) == tt()
    assert simplify_constants(And(ff(), p)) == ff()
    assert simplify_constants(Next(ff())) == ff()
    assert simplify_constants(FLe("x", 1, tt())) == tt()
    assert simplify_constants(Release(p, ff())) == ff()
    # the eventually/always encodings survive untouched
    assert simplify_constants(parse("F p")) == parse("F p")
    assert simplify_constants(parse("G p")) == parse("G p")


def test_expand_derived_errors():
    with pytest.raises(FormulaError):
        expand_derived("W", (Atom("p"),))


def test_strict_eventually_semantics():
    # F[>y] a: some position with accumulated cost strictly above the bound
    # satisfies a.  Direct positional check against the encoding.
    rng = random.Random(405)
    phi = parse("F[>y] a")
    for _ in range(120):
        trace = random_trace(rng, props=("a",), max_prefix=2, max_loop=3)
        y = rng.randint(0, 4)
        loop_cost = sum(
            trace.letter_at_slot(s).cost[0]
            for s in range(len(trace.prefix), trace.n_slots)
        )
        horizon = trace.n_slots + len(trace.loop) * (y + 2) + 1
        want = any(
            trace.segment_cost(0, j, 1) > y and "a" in trace.props_at(j)
            for j in range(horizon)
        )
        if loop_cost == 0 and not want:
            # costs stop growing: the scanned window is conclusive
            pass
        got = evaluate(trace, 0, {"y": y}, phi)
        assert got == want, (y, trace)
