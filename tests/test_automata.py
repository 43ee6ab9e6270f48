"""Buchi automata: translation, emptiness, budget acceptors."""

import hashlib
import os
import random
import subprocess
import sys
import tracemalloc
from collections import deque

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_formula, random_trace
from cpltl.automata import (
    AutomatonError,
    BuchiAutomaton,
    CostBuchiAutomaton,
    find_accepting_lasso,
    guard_holds,
    ltl_to_nba,
)
from cpltl.formula import (
    And,
    Atom,
    FormulaError,
    NegAtom,
    Next,
    Or,
    Release,
    Until,
    always,
    chi_formula,
    eliminate_parametric_always,
    eventually,
    negate,
    parse,
    relativize,
)
from cpltl.trace import CostTrace, Lasso, evaluate, letter


class PropLasso(Lasso[frozenset]):
    """Ultimately periodic word of proposition sets: prefix then loop."""

    error = AutomatonError

    @classmethod
    def of(cls, prefix, loop) -> "PropLasso":
        return cls(
            tuple(frozenset(p) for p in prefix),
            tuple(frozenset(p) for p in loop),
        )


def nba_accepts_lasso(auto: BuchiAutomaton, word: PropLasso) -> bool:
    """Membership of an ultimately periodic word: an accepting cycle in the
    product of the automaton with the word's slot graph."""

    def successors(node):
        slot, state = node
        letter = word.letter_at_slot(slot)
        nxt = word.succ_slot(slot)
        return [
            (nxt, dst)
            for guard, dst in auto.transitions[state]
            if guard_holds(guard, letter)
        ]

    def accepting(node) -> bool:
        return node[1] in auto.accepting

    found = find_accepting_lasso((0, auto.initial), successors, accepting, 1)
    return found is not None


def buchi_empty(auto: BuchiAutomaton):
    """Emptiness check. Returns None when the language is empty, otherwise
    an accepted lasso word (positive literals of the guards along a
    reachable accepting cycle), re-verified before being returned."""

    def successors(state):
        return [dst for _, dst in auto.transitions[state]]

    def accepting(state) -> bool:
        return state in auto.accepting

    found = find_accepting_lasso(auto.initial, successors, accepting, 1)
    if found is None:
        return None
    prefix, loop = found
    letters = []
    for src, dst in Lasso(tuple(prefix), tuple(loop)).steps():
        guard = next(g for g, tgt in auto.transitions[src] if tgt == dst)
        letters.append(frozenset(name for name, positive in guard if positive))
    word = PropLasso(
        tuple(letters[: len(prefix)]), tuple(letters[len(prefix):])
    )
    assert nba_accepts_lasso(auto, word), "witness word rejected on re-check"
    return word


def accepts_trace(auto, budgets, trace: CostTrace) -> bool:
    """Membership of a cost trace (from position 0) in a budget automaton
    under `budgets`, from its `budgets` method."""
    if trace.d != auto.d:
        raise FormulaError(
            f"trace has {trace.d} cost coordinates, automaton expects {auto.d}"
        )

    def successors(node):
        slot = node[0]
        step = trace.letter_at_slot(slot)
        return auto.successors(
            node, [(trace.succ_slot(slot), step.props, step.cost)], budgets
        )

    found = find_accepting_lasso(
        (0,) + auto.initial_state(), successors, auto.acceptance, auto.full
    )
    return found is not None


def zero_cost_trace(word: PropLasso) -> CostTrace:
    return CostTrace(
        tuple(letter(p, 0) for p in word.prefix),
        tuple(letter(p, 0) for p in word.loop),
        1,
    )


def random_word(rng, props=("p", "q")) -> PropLasso:
    def letters(n):
        return [
            frozenset(a for a in props if rng.random() < 0.5) for _ in range(n)
        ]

    return PropLasso.of(letters(rng.randint(0, 2)), letters(rng.randint(1, 3)))


def test_always_p_is_one_state():
    auto = ltl_to_nba(parse("G p"))
    assert auto.n_states == 1
    assert auto.accepting == frozenset(auto.states)
    ((guard, dst),) = auto.transitions[auto.initial]
    assert dst == auto.initial
    assert guard == frozenset([("p", True)])


def test_translation_rejects_variables():
    with pytest.raises(FormulaError):
        ltl_to_nba(parse("F[<=x] p"))
    with pytest.raises(FormulaError):
        ltl_to_nba(parse("G[<=y] p"))


def test_nba_language_matches_evaluator():
    rng = random.Random(411)
    for _ in range(120):
        phi = random_formula(rng, rng.randint(1, 3), f_vars=(), g_vars=())
        auto = ltl_to_nba(phi)
        for _ in range(6):
            word = random_word(rng)
            want = evaluate(zero_cost_trace(word), 0, {}, phi)
            assert nba_accepts_lasso(auto, word) is want, (phi, word)


def nested_formula(rng, depth):
    """Seeded plain formula whose X and U sit under G, F, U and R, as in
    G (p & X (p U q)): tableau cores that differ only in the Untils they
    owe."""
    kinds = ("and", "or", "next", "until", "release", "always", "eventually")
    if depth == 0 or rng.random() < 0.15:
        name = rng.choice(("p", "q"))
        return Atom(name) if rng.random() < 0.5 else NegAtom(name)
    kind = rng.choice(kinds)

    def sub():
        return nested_formula(rng, depth - 1)

    if kind == "and":
        return And(sub(), sub())
    if kind == "or":
        return Or(sub(), sub())
    if kind == "next":
        return Next(sub())
    if kind == "until":
        return Until(sub(), sub())
    if kind == "release":
        return Release(sub(), sub())
    return (always if kind == "always" else eventually)(sub())


def test_nba_language_matches_evaluator_on_nested_formulas():
    # Deeper than test_nba_language_matches_evaluator's sample, with G and
    # F over X and U, and each formula's negation too: a subsumption that
    # ignores which Untils a core owes accepts words these reject.
    rng = random.Random(2001)
    for _ in range(150):
        phi = nested_formula(rng, rng.randint(2, 5))
        for target in (phi, negate(phi)):
            auto = ltl_to_nba(target)
            for _ in range(6):
                word = random_word(rng)
                want = evaluate(zero_cost_trace(word), 0, {}, target)
                assert nba_accepts_lasso(auto, word) is want, (target, word)


def test_subsumption_keeps_the_owed_until():
    # The core that owes `p U q` has a smaller `old` than the one that
    # fulfils it and the same next-set; dropping the fulfilling one leaves
    # only runs that owe the Until forever, and the automaton empty.
    auto = ltl_to_nba(parse("G (p & X (p U q))"))
    assert auto.n_states == 3
    assert nba_accepts_lasso(auto, PropLasso.of([], [{"p", "q"}]))
    assert not nba_accepts_lasso(auto, PropLasso.of([], [{"p"}]))


def test_dominated_cores_are_dropped():
    # Sizes, not times: the negated chain's first expansion has 2^10 cores
    # and 2 undominated ones (11 states before subsumption), and the
    # relativized negation of F[<=x]^4 p had 152 states.
    chain = parse("q U " * 10 + "p")
    assert ltl_to_nba(negate(chain)).n_states == 2
    nested = parse("F[<=x] " * 4 + "p")
    assert ltl_to_nba(negate(relativize(nested, 1))).n_states <= 18


def test_nba_accepts_lasso_frozen():
    auto = ltl_to_nba(parse("p U q"))
    assert nba_accepts_lasso(auto, PropLasso.of([{"p"}], [{"q"}]))
    assert nba_accepts_lasso(auto, PropLasso.of([], [{"q"}, set()]))
    assert not nba_accepts_lasso(auto, PropLasso.of([{"p"}], [{"p"}]))
    assert not nba_accepts_lasso(auto, PropLasso.of([], [set()]))


def test_buchi_empty_returns_checked_witness():
    rng = random.Random(412)
    empty_count = 0
    for _ in range(150):
        phi = random_formula(rng, rng.randint(1, 3), f_vars=(), g_vars=())
        auto = ltl_to_nba(phi)
        witness = buchi_empty(auto)
        if witness is None:
            empty_count += 1
            # the negation acceptor must then be non-empty
            continue
        assert nba_accepts_lasso(auto, witness)
        assert evaluate(zero_cost_trace(witness), 0, {}, phi)
    assert empty_count > 0  # the sample includes contradictions


def test_buchi_empty_frozen():
    assert buchi_empty(ltl_to_nba(parse("p & !p"))) is None
    assert buchi_empty(ltl_to_nba(parse("F p & G !p"))) is None
    witness = buchi_empty(ltl_to_nba(parse("G p")))
    assert witness == PropLasso.of([], [{"p"}])


def test_unreachable_accepting_state_is_empty():
    auto = BuchiAutomaton(
        states=("a", "b"),
        initial="a",
        transitions={"a": ((frozenset(), "a"),), "b": ((frozenset(), "b"),)},
        accepting=frozenset(["b"]),
    )
    assert buchi_empty(auto) is None


def test_find_accepting_lasso():
    edges = {1: (2,), 2: (3,), 3: (2,)}
    found = find_accepting_lasso(
        1, lambda n: edges.get(n, ()), lambda n: n == 3, 1
    )
    assert found is not None
    prefix, loop = found
    assert list(prefix) + list(loop) and loop
    walk = list(prefix) + list(loop)
    assert walk[0] == 1
    assert 3 in loop
    for a, b in zip(walk, walk[1:]):
        assert b in edges[a]
    assert loop[0] in edges[loop[-1]]
    assert (
        find_accepting_lasso(1, lambda n: edges.get(n, ()), lambda n: n == 9, 1)
        is None
    )


def test_find_accepting_lasso_stops_at_the_first_fair_component():
    # the initial node reaches an accepting self-loop and an unbounded
    # chain; expanding the chain past its first nodes raises
    expanded = []

    def successors(node):
        expanded.append(node)
        if node == "init":
            return ["fair", ("chain", 0)]
        if node == "fair":
            return ["fair"]
        if node[1] >= 2:
            raise AssertionError("explored past the frontier")
        return [("chain", node[1] + 1)]

    found = find_accepting_lasso("init", successors, lambda n: n == "fair", 1)
    assert found == (["init"], ["fair"])
    assert all(isinstance(node, str) for node in expanded)


def _distances(edges, start) -> dict:
    """Edge count of a shortest path from start to each reachable node."""
    dist = {start: 0}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for w in edges[v]:
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def _shortest_cycle(edges, v):
    """Edge count of a shortest cycle through v, or None."""
    lengths = [
        dist[v] + 1
        for dist in (_distances(edges, w) for w in edges[v])
        if v in dist
    ]
    return min(lengths, default=None)


def _fair_components(edges, masks, full) -> list:
    """The components reachable from node 0 that are cyclic and whose
    members' masks cover `full`, by plain reachability."""
    reach = {v: _distances(edges, v).keys() for v in edges}
    fair = []
    for v in reach[0]:
        if _shortest_cycle(edges, v) is None:
            continue
        cover = 0
        for w in reach[v]:
            if v in reach[w]:
                cover |= masks[w]
        if cover & full == full:
            fair.append(v)
    return fair


# (node count, edges, acceptance mask per node, full mask)
small_graphs = st.integers(1, 8).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))),
        st.lists(st.integers(0, 3), min_size=n, max_size=n),
        st.sampled_from((1, 3)),
    )
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(small_graphs)
# two members each hold one of the two sets, neither holds both
@example((3, {(0, 1), (1, 2), (2, 1)}, [0, 1, 2], 3))
# the loop leaves its shortest cycle 1 -> 2 to reach 3, the second set
@example((4, {(0, 1), (1, 2), (2, 1), (2, 3), (3, 1)}, [0, 1, 0, 2], 3))
# the cyclic component covers only the first of two sets
@example((3, {(0, 1), (1, 2), (2, 1)}, [3, 1, 1], 3))
def test_find_accepting_lasso_matches_brute_force(graph):
    n, edge_set, masks, full = graph
    edges = {v: sorted(w for u, w in edge_set if u == v) for v in range(n)}
    found = find_accepting_lasso(0, edges.__getitem__, masks.__getitem__, full)
    if not _fair_components(edges, masks, full):
        assert found is None
        return
    assert found is not None
    prefix, loop = found
    run = Lasso(tuple(prefix), tuple(loop))
    assert run.letter(0) == 0
    for v, w in run.steps():
        assert w in edges[v]
    cover = 0
    for v in loop:
        cover |= masks[v]
    assert cover & full == full
    head = loop[0]
    assert masks[head] & 1
    assert len(prefix) == _distances(edges, 0)[head]
    if full == 1:
        assert len(loop) == _shortest_cycle(edges, head)


def test_cost_acceptor_basics():
    f = CostBuchiAutomaton(parse("F[<=x] p"), 1)
    trace = CostTrace((), (letter(["q"], 3), letter(["p", "kappa1"], 0)), 1)
    assert accepts_trace(f, f.budgets({"x": 3}), trace)
    assert not accepts_trace(f, f.budgets({"x": 2}), trace)
    g = CostBuchiAutomaton(parse("G[<=y] q"), 1)
    assert accepts_trace(g, g.budgets({"y": 2}), trace)
    assert not accepts_trace(g, g.budgets({"y": 3}), trace)


def test_cost_acceptor_matches_evaluator():
    rng = random.Random(413)
    for _ in range(200):
        d = rng.choice((1, 2))
        phi = random_formula(
            rng,
            rng.randint(1, 3),
            d=d,
            f_vars=("x",),
            g_vars=("y",),
        )
        val = {"x": rng.randint(0, 12), "y": rng.randint(0, 12)}
        auto = CostBuchiAutomaton(phi, d)
        budgets = auto.budgets(val)
        for _ in range(3):
            trace = random_trace(rng, d=d, max_prefix=5, max_loop=6)
            want = evaluate(trace, 0, val, phi)
            assert accepts_trace(auto, budgets, trace) is want, (phi, val, trace)


def test_cost_acceptor_dimension_mismatch():
    phi = parse("F[<=x@2] p")
    with pytest.raises((AutomatonError, FormulaError)):
        CostBuchiAutomaton(phi, 1)


def test_prop_lasso_needs_loop():
    with pytest.raises(AutomatonError):
        PropLasso.of([{"p"}], [])


def exists_target(text: str):
    """The formula a refuting check_exists translates for its witness,
    for `text` over one coordinate."""
    phi = eliminate_parametric_always(parse(text))
    return And(negate(relativize(phi, 1)), chi_formula(1))


def pin(auto: BuchiAutomaton) -> tuple:
    """Sizes and a digest of the sorted transitions and accepting set."""
    trans = sorted((src, tuple(sorted(g)), dst) for src, g, dst in auto.edges())
    text = repr((trans, sorted(auto.accepting)))
    digest = hashlib.sha256(text.encode()).hexdigest()[:16]
    return auto.n_states, auto.n_edges(), len(auto.accepting), digest


@pytest.mark.parametrize(
    "make, expected",
    [
        (lambda: exists_target("G (q -> F[<=x] p)"),
         (72, 264, 12, "3bde420fd0b2c8d9")),
        (lambda: exists_target("X G (q -> F[<=x] p)"),
         (88, 352, 15, "3e2b6a5e6b0a4cbb")),
        (lambda: exists_target("G[<=y] q"),
         (37, 132, 8, "4a2b301020f2b7dd")),
        (lambda: exists_target("F G (q -> F[<=x] p)"),
         (91, 610, 10, "28cd3395ff44ea46")),
        (lambda: exists_target("F[<=x] p | F[<=x] q"),
         (56, 201, 13, "d685e96e4f9499cc")),
        (lambda: chi_formula(1), (17, 56, 4, "61ed8ae71d85e0ba")),
        (lambda: chi_formula(2), (123, 1043, 16, "66bc11c0bf506a97")),
    ],
    ids=["lift", "next-lift", "g-bounded", "fg-lift", "two-f", "chi1", "chi2"],
)
def test_translation_is_pinned(make, expected):
    # The witness automata, state names included, as the tableau builds them
    # from the undominated cores of each next-set, with chi in disjunctive
    # form.
    assert pin(ltl_to_nba(make())) == expected


def test_translation_does_not_depend_on_sharing():
    for text in ("G (q -> F p)", "p U (q R X !p)", "G F p & F G !q"):
        shared = parse(text)
        separate = ltl_to_nba(And(parse(text), parse(text)))
        joined = ltl_to_nba(And(shared, shared))
        assert separate.states == joined.states
        assert separate.transitions == joined.transitions
        assert separate.accepting == joined.accepting
    left = exists_target("G (q -> F[<=x] p)")
    right = exists_target("G (q -> F[<=x] p)")
    assert left is not right
    assert pin(ltl_to_nba(And(left, right))) == pin(ltl_to_nba(And(left, left)))


def _states_on_accepting_cycles(auto: BuchiAutomaton) -> set:
    """States that reach an accepting state lying on a cycle, by plain
    reachability from every state."""
    reach = {}
    for q in auto.states:
        seen, queue = set(), deque([q])
        while queue:
            for _, dst in auto.transitions[queue.popleft()]:
                if dst not in seen:
                    seen.add(dst)
                    queue.append(dst)
        reach[q] = seen
    cycling = {a for a in auto.accepting if a in reach[a]}
    return {q for q in auto.states if q in cycling or reach[q] & cycling}


def test_random_translations_are_pinned_and_live():
    # States, names, edge order and acceptance of 400 translations, as the
    # translation builds them from undominated cores, naming live states
    # only.  The sample holds Until-free formulas and 22 empty automata.
    rng = random.Random(411)
    digest = hashlib.sha256()
    empty = 0
    for _ in range(400):
        phi = random_formula(rng, rng.randint(1, 4), f_vars=(), g_vars=())
        auto = ltl_to_nba(phi)
        trans = [
            (q, tuple((tuple(sorted(g)), dst) for g, dst in auto.transitions[q]))
            for q in auto.states
        ]
        digest.update(
            repr(
                (auto.initial, auto.states, trans, sorted(auto.accepting))
            ).encode()
        )
        if not auto.accepting:
            empty += 1
            assert auto.states == ("q0",) and auto.n_edges() == 0, phi
            continue
        # every state can still take part in an accepting run
        assert _states_on_accepting_cycles(auto) == set(auto.states), phi
    assert empty == 22
    assert digest.hexdigest() == (
        "ca6110b7eb047b01074f115c141b7b8557248c686129c635abce4ce719a4b9c6"
    )


PIN_SCRIPT = """
from cpltl.formula import chi_formula
from cpltl.automata import ltl_to_nba
from test_automata import exists_target, pin
print(pin(ltl_to_nba(exists_target("G (q -> F[<=x] p)"))))
print(pin(ltl_to_nba(chi_formula(2))))
"""


def test_translation_is_independent_of_hash_seed():
    here = os.path.dirname(__file__)
    path = os.pathsep.join((os.path.join(os.path.dirname(here), "src"), here))
    outputs = set()
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
        proc = subprocess.run(
            [sys.executable, "-c", PIN_SCRIPT],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        outputs.add(proc.stdout)
    assert outputs == {
        "(72, 264, 12, '3bde420fd0b2c8d9')\n"
        "(123, 1043, 16, '66bc11c0bf506a97')\n"
    }


def test_translation_frees_each_stage():
    # Each stage's tables are freed once the next stage is built, so the
    # peak stays within a few times the automaton returned: 3.1x for this
    # target, where keeping every table until the end peaks at 8x.
    target = exists_target("X " * 100 + "p")
    tracemalloc.start()
    try:
        auto = ltl_to_nba(target)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert auto.n_states == 1381
    assert peak < 6 * held
