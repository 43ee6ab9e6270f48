"""The budget automaton's shape templates against a concrete expansion.

`reference_expand` is the budget automaton's expansion written over
concrete cores, frozensets of ("f", formula) and ("F"/"G", operator,
remainder) items; it is the oracle for the template expansion, which
expands each obligation shape once per letter.
"""

import os
import subprocess
import sys
from functools import lru_cache

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cpltl.automata import CostBuchiAutomaton
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
    is_ff,
    is_tt,
    parse,
    subformulas,
)


def budget(valuation, f) -> int:
    return valuation.get(f.var, 0)


def reference_normalize(valuation, items) -> frozenset:
    plain = set()
    fmin: dict = {}
    gmax: dict = {}
    for item in items:
        if item[0] == "f":
            f = item[1]
            if isinstance(f, FLe):
                r = budget(valuation, f)
                fmin[f] = min(fmin.get(f, r), r)
            elif isinstance(f, GLe):
                r = budget(valuation, f)
                gmax[f] = max(gmax.get(f, r), r)
            else:
                plain.add(item)
        elif item[0] == "F":
            f, r = item[1], item[2]
            fmin[f] = min(fmin.get(f, r), r)
        else:
            f, r = item[1], item[2]
            gmax[f] = max(gmax.get(f, r), r)
    core = set(plain)
    core.update(("F", f, r) for f, r in fmin.items())
    core.update(("G", f, r) for f, r in gmax.items())
    return frozenset(core)


def reference_expand(
    auto, valuation, core: frozenset, props: frozenset, cost: tuple
) -> set:
    """(next core, ok) pairs of a concrete core: ok is the frozenset of
    tracked obligations that were not delayed."""
    out = set()
    stack = [(list(core), set(), set(), set())]
    while stack:
        pending, nxt, delayed, done = stack.pop()
        alive = True
        while pending:
            item = pending.pop()
            if item in done:
                continue
            done.add(item)
            if item[0] == "F":
                f, rem = item[1], item[2]
                c = cost[f.coord - 1]
                if c <= rem:
                    stack.append(
                        (
                            list(pending),
                            set(nxt) | {("F", f, rem - c)},
                            set(delayed) | {f},
                            set(done),
                        )
                    )
                pending.append(("f", f.child))
                continue
            if item[0] == "G":
                f, rem = item[1], item[2]
                pending.append(("f", f.child))
                c = cost[f.coord - 1]
                if c <= rem:
                    nxt.add(("G", f, rem - c))
                continue
            f = item[1]
            if is_tt(f):
                continue
            if is_ff(f):
                alive = False
                break
            if isinstance(f, Atom):
                if f.name not in props:
                    alive = False
                    break
            elif isinstance(f, NegAtom):
                if f.name in props:
                    alive = False
                    break
            elif isinstance(f, And):
                pending.append(("f", f.left))
                pending.append(("f", f.right))
            elif isinstance(f, Or):
                stack.append(
                    (pending + [("f", f.right)], set(nxt), set(delayed), set(done))
                )
                pending.append(("f", f.left))
            elif isinstance(f, Next):
                nxt.add(("f", f.child))
            elif isinstance(f, Until):
                stack.append(
                    (
                        pending + [("f", f.left)],
                        set(nxt) | {("f", f)},
                        set(delayed) | {f},
                        set(done),
                    )
                )
                pending.append(("f", f.right))
            elif isinstance(f, Release):
                stack.append(
                    (
                        pending + [("f", f.right)],
                        set(nxt) | {("f", f)},
                        set(delayed),
                        set(done),
                    )
                )
                pending.append(("f", f.left))
                pending.append(("f", f.right))
            elif isinstance(f, FLe):
                pending.append(("F", f, budget(valuation, f)))
            elif isinstance(f, GLe):
                pending.append(("G", f, budget(valuation, f)))
        if alive:
            out.add(
                (
                    reference_normalize(valuation, nxt),
                    frozenset(set(auto.tracked) - delayed),
                )
            )
    return out


def concrete(auto, valuation, sid: int, spent: tuple) -> frozenset:
    """The items of the core (shape id, spent), each token with what it
    has left of its budget."""
    shape = auto.shapes[sid]
    items = {("f", auto._nodes[i]) for i in shape.seed}
    for i, used in zip(shape.slots, spent):
        f = auto._nodes[i]
        kind = "G" if isinstance(f, GLe) else "F"
        items.add((kind, f, budget(valuation, f) - used))
    return frozenset(items)


def reference_mask(auto, ok: frozenset) -> int:
    """The acceptance mask of a move that did not delay `ok`: bit j set
    when the j-th tracked obligation is in `ok`."""
    return sum(1 << j for j, f in enumerate(auto.tracked) if f in ok)


def reference_order(auto, move) -> tuple:
    """Successor order: the core's items as (kind, closure rank[,
    remainder]) in sorted order, ties broken by the indices of `ok`."""
    core, ok = move
    rank = dict(zip(auto._nodes, auto._ranks))
    items = sorted((item[0], rank[item[1]]) + item[2:] for item in core)
    return items, sorted(auto.tracked.index(f) for f in ok)


# Operators nested inside one of the same variable, so that one core
# holds tokens of one operator from two sources, and Until and Release
# chains with a budget inside.
NESTED = (
    "F[<=x] F[<=x] p",
    "G[<=x2] F[<=y] F[<=y] q",
    "G[<=x2] F[<=y] (p | F[<=y] q)",
    "G[<=y] (F[<=x] p & X F[<=x] q)",
    "F[<=x] (p U G[<=y] q) | G[<=y] F[<=x] p",
    "G (q -> F[<=x@2] p) & G[<=y] (p | X q)",
    "G (p | G[<=y] q)",
    "q U (q U F[<=x] p)",
    "q U (p U (q U G[<=y] p))",
    "p R (q R F[<=x] !p)",
    "q R (p R (q R G[<=y] p))",
)

literals = st.builds(
    lambda name, positive: Atom(name) if positive else NegAtom(name),
    st.sampled_from(("p", "q")),
    st.booleans(),
)


# A bounded operator takes either coordinate, so one variable may bound
# costs on both.
def _bounded(kind, names, child):
    return st.builds(
        lambda name, coord, f: kind(name, coord, f),
        st.sampled_from(names),
        st.sampled_from((1, 2)),
        child,
    )


generated = st.recursive(
    literals,
    lambda kids: st.one_of(
        st.builds(And, kids, kids),
        st.builds(Or, kids, kids),
        st.builds(Next, kids),
        st.builds(Until, kids, kids),
        st.builds(Release, kids, kids),
        st.builds(eventually, kids),
        st.builds(always, kids),
        _bounded(FLe, ("x", "x2"), kids),
        _bounded(GLe, ("y", "y2"), kids),
    ),
    max_leaves=6,
)

formulas = st.one_of(st.sampled_from(NESTED).map(parse), generated)

# One automaton per formula and dimension, as check_fixed keeps them, so
# examples that share a formula expand its templates under many valuations.
automaton = lru_cache(maxsize=None)(CostBuchiAutomaton)


@settings(
    derandomize=True,
    deadline=None,
    max_examples=300,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    formulas,
    st.integers(1, 2),
    st.fixed_dictionaries({v: st.integers(0, 4) for v in ("x", "x2", "y", "y2")}),
    st.randoms(use_true_random=False),
)
def test_template_expansion_matches_reference(phi, d, valuation, rng):
    d = max([d] + [f.coord for f in subformulas(phi) if isinstance(f, (FLe, GLe))])
    auto = automaton(phi, d)
    budgets = auto.budgets(valuation)
    frontier = [auto.initial_state()[:2]]
    for _ in range(12):
        sid, spent = rng.choice(frontier)
        core = concrete(auto, valuation, sid, spent)
        edges = [
            (
                y,
                frozenset(p for p in ("p", "q") if rng.random() < 0.5),
                tuple(rng.randint(0, 3) for _ in range(d)),
            )
            for y in range(rng.randint(1, 3))
        ]
        moves = {
            y: sorted(
                reference_expand(auto, valuation, core, props, cost),
                key=lambda move: reference_order(auto, move),
            )
            for y, props, cost in edges
        }
        # A node's successors do not depend on the mask it was entered with.
        for mask in (0, auto.full):
            node = ("x", sid, spent, mask)
            succ = auto.successors(node, edges, budgets)
            got = [
                (y, concrete(auto, valuation, nsid, nspent), nmask)
                for y, nsid, nspent, nmask in succ
            ]
            want = [
                (y, nxt, reference_mask(auto, ok))
                for y, _, _ in edges
                for nxt, ok in moves[y]
            ]
            assert got == want, (phi, valuation, core, mask, edges)
            one_by_one = [
                t for edge in edges for t in auto.successors(node, [edge], budgets)
            ]
            assert succ == one_by_one, (phi, valuation, core, mask, edges)
        frontier.extend((nsid, nspent) for _, nsid, nspent, _ in succ)


# One expansion of this automaton yields the same next core with two
# different `ok` sets; their order must not come from set iteration.  The
# fixed checks run on a system with several out-edges per state, under
# formulas whose templates have several moves.
SUCCESSOR_SCRIPT = """
import itertools
from cpltl.modelcheck import cost_nba
from cpltl.formula import GLe, parse, pretty_print
from cpltl.modelcheck import check_fixed
from cpltl.system import parse_system

valuation = {"x2": 0, "y": 0}
auto = cost_nba(parse("F[<=x2@2] X G[<=y] q"), 2)
budgets = auto.budgets(valuation)


def show(node):
    x, sid, spent, ok = node
    shape = auto.shapes[sid]
    items = [("f", pretty_print(auto._nodes[i])) for i in shape.seed]
    for i, used in zip(shape.slots, spent):
        f = auto._nodes[i]
        rem = valuation.get(f.var, 0) - used
        items.append(("G" if isinstance(f, GLe) else "F", pretty_print(f), rem))
    return x, sorted(items), ok


edges = [
    (y, frozenset(props), cost)
    for y, (props, cost) in enumerate(
        itertools.product(((), ("q",)), itertools.product(range(2), repeat=2))
    )
]
start = (None,) + auto.initial_state()
seen = {start[1:]}
todo = [start]
while todo:
    node = todo.pop()
    succ = auto.successors(node, edges, budgets)
    for y, props, cost in edges:
        print(show(node), sorted(props), cost, [show(t) for t in succ if t[0] == y])
    for t in succ:
        if t[1:] not in seen:
            seen.add(t[1:])
            todo.append((None,) + t[1:])

system = parse_system(
    "dim 1\\n"
    "state s0 init : q\\n"
    "state s1 : p kappa1\\n"
    "state s2 : p q\\n"
    "edge s0 s1 : 2\\nedge s0 s2 : 0\\n"
    "edge s1 s0 : 0\\nedge s1 s2 : 0\\n"
    "edge s2 s1 : 3\\nedge s2 s2 : 0\\n"
)
for text, valuation in (
    ("G (q -> F[<=x] p)", {"x": 1}),
    ("G (q -> F[<=x] p)", {"x": 2}),
    ("F G[<=y] (p | X q)", {"y": 3}),
    ("G (p U (q & F[<=x] p))", {"x": 3}),
):
    result = check_fixed(system, parse(text), valuation)
    print(text, valuation, result.holds, result.explored, result.counterexample)
"""


def test_successor_order_is_independent_of_hash_seed():
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    outputs = set()
    for seed in ("0", "1", "7"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", SUCCESSOR_SCRIPT],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        outputs.add(proc.stdout)
    assert len(outputs) == 1
    assert outputs.pop().count("\n") > 10


def test_letters_that_differ_only_in_cost_share_a_template():
    # The letter's cost enters a template's key only through the budget
    # comparisons, so both edges below expand the start shape once.
    auto = CostBuchiAutomaton(parse("F[<=x] p"), 1)
    node = ("x",) + auto.initial_state()
    edges = [(0, frozenset(), (1,)), (1, frozenset(), (2,))]
    succ = auto.successors(node, edges, auto.budgets({"x": 10}))
    assert len(auto._templates) == 1
    assert [(y, spent) for y, _, spent, _ in succ] == [(0, (1,)), (1, (2,))]
