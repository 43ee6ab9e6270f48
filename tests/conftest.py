"""Shared fixtures and generators for the test suite.

Provides the two worked fixtures (a 2-state weighted system and its
request/grant trace), a 3-state two-coordinate system, a curated formula
pool, seeded random generators for traces/formulas/systems, and the
enumerated-lasso oracle the checker is judged against.
"""

import itertools
import random

import pytest

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
    kappa_name,
    parse,
    var_profile,
)
from cpltl.modelcheck import check_fixed
from cpltl.system import TransitionSystem, enumerate_lassos, trace_of, validate
from cpltl.trace import CostLetter, CostTrace, evaluate, kappa_violations, parse_trace


SYS_A_TEXT = """\
dim 1
state s0 init : q
state s1 : p kappa1
edge s0 s1 : 3
edge s1 s0 : 0
edge s1 s1 : 1
"""

T1_TEXT = """\
dim 1
loop:
{q} -> 3
{p kappa1} -> 0
"""

# 3 states, two cost coordinates; requests Q1/Q2 are granted by P1/P2
# along the only cycles.  Holds exactly when x1 >= 2 and x2 >= 3.
SYS_STREETT_TEXT = """\
dim 2
state s0 init : Q1
state s1 : P1 Q2 kappa1
state s2 : P2 kappa2
edge s0 s1 : 2 0
edge s1 s2 : 0 3
edge s2 s0 : 0 0
edge s2 s1 : 1 0
"""

STREETT_FORMULA = "F G ((Q1 -> F[<=x1@1] P1) & (Q2 -> F[<=x2@2] P2))"

# Curated pool: each formula has at most 8 distinct subformulas.  Mix of
# plain LTL, single-variable F and G bounds, and two-variable formulas.
FORMULA_TEXTS = (
    "p",
    "!p",
    "p & q",
    "p | !q",
    "X p",
    "X X q",
    "p U q",
    "p R q",
    "F p",
    "G p",
    "G (p | q)",
    "F (p & q)",
    "q U (p & q)",
    "p R (p | q)",
    "X (p U q)",
    "F[<=x] p",
    "F[<=x] (p & q)",
    "X F[<=x] p",
    "F[<=x] X p",
    "F[<=x] F[<=x] p",
    "p U F[<=x] q",
    "F[<=x] p | G q",
    "F[<=x] p & F[<=x] q",
    "G (q -> F[<=x] p)",
    "F[<=x] (p U q)",
    "!p | F[<=x] q",
    "G[<=y] p",
    "G[<=y] (p | q)",
    "X G[<=y] q",
    "G[<=y] X q",
    "G[<=y] G[<=y] p",
    "q R G[<=y] p",
    "G[<=y] p | G[<=y] q",
    "G[<=y] (p R q)",
    "F[<=x] p & G[<=y] q",
    "F[<=x] p | G[<=y] q",
)


@pytest.fixture(scope="session")
def sys_a():
    from cpltl.system import parse_system

    return parse_system(SYS_A_TEXT)


@pytest.fixture(scope="session")
def sys_streett():
    from cpltl.system import parse_system

    return parse_system(SYS_STREETT_TEXT)


@pytest.fixture(scope="session")
def t1():
    return parse_trace(T1_TEXT)


@pytest.fixture(scope="session")
def formula_pool():
    return tuple(parse(text) for text in FORMULA_TEXTS)


# --- system pool ------------------------------------------------------------


def build_system(labels, edges, d=1):
    """Assemble and sanity-check a system from per-state label sets and
    an {(src, dst): cost-vector} map.  States are s0, s1, ..."""
    names = tuple(f"s{i}" for i in range(len(labels)))
    out: dict = {name: [] for name in names}
    cost = {}
    for (i, j), vec in sorted(edges.items()):
        if isinstance(vec, int):
            vec = (vec,)
        out[names[i]].append(names[j])
        cost[(names[i], names[j])] = tuple(vec)
    system = TransitionSystem(
        states=names,
        initial=names[0],
        edges={name: tuple(dsts) for name, dsts in out.items()},
        labels={names[i]: frozenset(lab) for i, lab in enumerate(labels)},
        cost=cost,
        d=d,
    )
    problems = validate(system)
    assert not problems, problems
    return system


def _label(pq, kappa):
    props = set(pq)
    if kappa:
        props.add(kappa_name(1))
    return frozenset(props)


def _pool_systems():
    pool = []
    pq_choices = (frozenset(), frozenset("p"), frozenset("q"), frozenset("pq"))

    # every 1-state system over {p, q} with a self loop
    for pq in pq_choices:
        for c in (0, 1, 2, 3):
            kappa = c > 0
            pool.append(build_system([_label(pq, kappa)], {(0, 0): c}))

    # all 9 total edge structures on 2 states, swept over label palettes;
    # edge costs cycle through {1, 2, 3} on kappa targets, 0 otherwise
    rows = ((0,), (1,), (0, 1))
    palettes = (
        ((frozenset("q"), False), (frozenset("p"), True)),
        ((frozenset("pq"), True), (frozenset(), False)),
        ((frozenset(), True), (frozenset("q"), True)),
        ((frozenset("p"), False), (frozenset("pq"), False)),
    )
    menu = (1, 2, 3)
    for palette in palettes:
        labels = [_label(pq, kappa) for pq, kappa in palette]
        kappa_of = {i: palette[i][1] for i in range(2)}
        for out0, out1 in itertools.product(rows, rows):
            edges = {}
            positive = 0
            for i, row in enumerate((out0, out1)):
                for j in row:
                    if kappa_of[j]:
                        edges[(i, j)] = menu[positive % len(menu)]
                        positive += 1
                    else:
                        edges[(i, j)] = 0
            pool.append(build_system(labels, edges))

    # seeded 3-state sample
    rng = random.Random(20260815)
    for _ in range(6):
        labels = []
        for _i in range(3):
            pq = frozenset(a for a in "pq" if rng.random() < 0.5)
            labels.append(_label(pq, rng.random() < 0.5))
        kappa_of = [kappa_name(1) in lab for lab in labels]
        edges = {}
        for i in range(3):
            targets = rng.sample(range(3), rng.randint(1, 2))
            for j in targets:
                edges[(i, j)] = rng.randint(1, 3) if kappa_of[j] else 0
        pool.append(build_system(labels, edges))
    return tuple(pool)


@pytest.fixture(scope="session")
def system_pool():
    return _pool_systems()


# --- enumerated-lasso oracle ------------------------------------------------

_TRACE_CACHE: dict = {}


def oracle_traces(system, length_bound=None):
    """All initial lasso traces up to the bound, cached per system."""
    if length_bound is None:
        length_bound = 2 * len(system.states) + 2
    # The entry keeps its system alive, so no later system can reuse the id.
    key = (id(system), length_bound)
    if key not in _TRACE_CACHE:
        _TRACE_CACHE[key] = system, tuple(
            trace_of(system, lasso)
            for lasso in enumerate_lassos(system, length_bound)
        )
    return _TRACE_CACHE[key][1]


def oracle_holds(system, phi, valuation, length_bound=None):
    """Ground truth at desk scale: phi holds on every enumerated lasso."""
    return all(
        evaluate(trace, 0, valuation, phi)
        for trace in oracle_traces(system, length_bound)
    )


def box_valuations(phi, hi):
    """Every valuation of phi's variables over [0, hi], as dicts."""
    names = sorted(var_profile(phi).variables)
    for combo in itertools.product(range(hi + 1), repeat=len(names)):
        yield dict(zip(names, combo))


def box_optimum(system, phi, objective, hi):
    """Reference optimum over the box [0, hi]^k: every valuation from
    box_valuations, decided by check_fixed.  `objective` is an objective
    value such as "max-min": the direction, then the aggregation over the
    valuation's values.  Returns the best aggregated value and the feasible
    valuations reaching it, or (None, []) when none in the box holds."""
    direction, aggregation = objective.split("-")
    aggregate = min if aggregation == "min" else max
    better = min if direction == "min" else max
    scores = [
        (aggregate(valuation.values(), default=0), valuation)
        for valuation in box_valuations(phi, hi)
        if check_fixed(system, phi, valuation).holds
    ]
    if not scores:
        return None, []
    best = better(score for score, _ in scores)
    return best, [valuation for score, valuation in scores if score == best]


def corner_valuation(phi, bound):
    """The weakest point of the box: F-variables maxed, G-variables zero."""
    profile = var_profile(phi)
    corner = {x: bound for x in profile.var_f}
    corner.update({y: 0 for y in profile.var_g})
    return corner


# --- random instances -------------------------------------------------------


def random_trace(rng, d=1, props=("p", "q"), max_prefix=3, max_loop=4, max_cost=3):
    """Seeded kappa-consistent lasso trace."""
    n_prefix = rng.randint(0, max_prefix)
    n_loop = rng.randint(1, max_loop)
    total = n_prefix + n_loop
    costs = [
        tuple(rng.choice((0, 0, 1, rng.randint(1, max_cost))) for _ in range(d))
        for _ in range(total)
    ]
    if n_prefix:
        # The first loop letter is entered from the prefix once and from
        # the loop tail forever after; both steps must agree on positivity.
        seam = costs[total - 1]
        bridge = list(costs[n_prefix - 1])
        for i in range(d):
            if (bridge[i] > 0) != (seam[i] > 0):
                bridge[i] = 0 if seam[i] == 0 else rng.randint(1, max_cost)
        costs[n_prefix - 1] = tuple(bridge)
    letters = []
    for n in range(total):
        chosen = set(a for a in props if rng.random() < 0.5)
        if n == 0 and n_prefix == 0:
            incoming = costs[total - 1]
        elif n == 0:
            incoming = None
        else:
            incoming = costs[n - 1]
        for i in range(1, d + 1):
            has = rng.random() < 0.5 if incoming is None else incoming[i - 1] > 0
            if has:
                chosen.add(kappa_name(i))
        letters.append(CostLetter(frozenset(chosen), costs[n]))
    trace = CostTrace(tuple(letters[:n_prefix]), tuple(letters[n_prefix:]), d)
    assert not kappa_violations(trace)
    return trace


def random_formula(rng, depth, d=1, f_vars=("x",), g_vars=(), props=("p", "q")):
    """Seeded formula in negation normal form.

    g_vars empty keeps the result in the no-parameterized-always fragment;
    variables never parameterize both operator kinds, so anything produced
    here is well-formed.
    """
    leaf_weight = 1 if depth > 0 else 100
    choices = ["atom"] * leaf_weight
    if depth > 0:
        choices += ["and", "or", "next", "until", "release"]
        if f_vars:
            choices += ["fle", "fle"]
        if g_vars:
            choices += ["gle", "gle"]
    kind = rng.choice(choices)
    if kind == "atom":
        name = rng.choice(props)
        return Atom(name) if rng.random() < 0.5 else NegAtom(name)
    def sub():
        return random_formula(rng, depth - 1, d, f_vars, g_vars, props)
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
    coord = rng.randint(1, d)
    if kind == "fle":
        return FLe(rng.choice(f_vars), coord, sub())
    return GLe(rng.choice(g_vars), coord, sub())


def random_ring(rng, n, d=1, self_loops=False):
    """Ring s0 -> s1 -> ... -> s0 plus one random edge, with random labels
    and costs up to 3 in every coordinate, so that obligations lie behind
    costly edges; with `self_loops`, every state also has an edge to
    itself."""
    labels = []
    for _ in range(n):
        label = {a for a in "pq" if rng.random() < 0.35}
        label.update(kappa_name(k) for k in range(1, d + 1) if rng.random() < 0.6)
        labels.append(label)
    pairs = {(i, (i + 1) % n) for i in range(n)}
    pairs.add((rng.randrange(n), rng.randrange(n)))
    if self_loops:
        pairs.update((i, i) for i in range(n))
    edges = {
        (i, j): tuple(
            rng.randint(1, 3) if kappa_name(k) in labels[j] else 0
            for k in range(1, d + 1)
        )
        for i, j in sorted(pairs)
    }
    return build_system(labels, edges, d=d)


def random_system(rng, max_states=3, d=1, props=("p", "q"), max_cost=3):
    """Seeded kappa-consistent system where every state has a successor."""
    n = rng.randint(1, max_states)
    labels = []
    for _ in range(n):
        label = set(a for a in props if rng.random() < 0.5)
        for i in range(1, d + 1):
            if rng.random() < 0.5:
                label.add(kappa_name(i))
        labels.append(frozenset(label))
    edges = {}
    for i in range(n):
        for j in rng.sample(range(n), rng.randint(1, n)):
            vec = tuple(
                rng.randint(1, max_cost) if kappa_name(k) in labels[j] else 0
                for k in range(1, d + 1)
            )
            edges[(i, j)] = vec
    return build_system(labels, edges, d=d)
