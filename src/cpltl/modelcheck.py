"""Decision procedures over weighted transition systems.

check_exists decides whether some valuation of the cost parameters makes a
formula hold on every run of the system.  It works on a colored product:
the system is composed with an automaton for the negated, color-relativized
formula, with the color propositions chosen freely at each step.  The
formula fails for every valuation exactly when this product contains a fair
path whose color blocks can all be pumped to arbitrarily high cost.  A
holding answer is decided on the product with the negated relativized
formula alone; a witness is a path of the product with that formula
conjoined with the consistency formula chi_d.

check_fixed decides a single valuation directly with a budget automaton and
returns a lasso counterexample when the formula fails.  check_forall decides
the universal question without a budget (forall_holds): it model checks the
formula with its cost bounds dropped, and only a failing verdict searches
for a counterexample, at budgets 0, 1, 2, 4, ... up to a computable bound.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from typing import Callable, Iterator, Mapping, Optional

from .automata import (
    AutomatonError,
    BuchiAutomaton,
    CostBuchiAutomaton,
    find_accepting_lasso,
    guard_holds,
    ltl_to_nba,
    _shortest_path,
)
from .formula import (
    And,
    Formula,
    FragmentError,
    chi_formula,
    color_name,
    drop_cost_bounds,
    eliminate_parametric_always,
    negate,
    relativize,
    require_well_formed,
    validate_coords,
)
from .record import Record
from .system import TransitionSystem, canonical_lasso, trace_of
from .trace import Lasso, changepoints_of, evaluate


class ModelCheckError(RuntimeError):
    """Internal invariant broke while building or certifying an answer."""


# --- colored product --------------------------------------------------------


class ColoredCostGraph(Record):
    """Product of a system with an automaton, with free color choices.

    A vertex is (system state, automaton state, colors), the chosen color
    names in coordinate order; the automaton reads the state label extended
    by the colors, and every subset of colors may be picked for the
    successor.  Vertex ids number the vertices in breadth-first order from
    the initial vertex, id 0, and the graph is kept as flat arrays over
    them: `place` holds the index of the vertex's system state in `states`,
    `auto` that of its automaton state in `auto_states`, `color` a bitmask
    with bit c-1 set when coordinate c's color is chosen, `accept` whether
    the automaton state is accepting, and `succ` the successor ids in edge
    order.

    The graph has no dead ends past the initial vertex: a successor (t, q',
    c') is kept only when q' has a move on t's label extended by c', since
    no infinite path passes through any other.  `succ[v]` lists the kept
    successors per system successor in edge order, then per automaton
    successor in guard order, then by ascending color mask: the order of
    the product without pruning, with the dead ends left out.  So pruning
    keeps the relative order of the vertices and of each vertex's edges,
    and the searches over the graph meet the kept vertices in the same
    order as over the full product.

    The graph keeps no cost per edge: an edge's cost is the system's cost
    between the two vertices' states, `system_cost[states[place[u]],
    states[place[w]]]`, and `positive_bits[place[u] * len(states) +
    place[w]]` is the bitmask of the coordinates in which it is positive
    (keyed by the system's edges only, so its size does not grow with the
    square of the state count).  The searches work on ids alone; the only
    decoded views are `decode` (the tuples of some ids) and, built on
    first use and cached in the instance `__dict__`, the vertex tuples,
    `vertices`, and `index` (vertex -> id).
    """

    __match_args__ = (
        "succ", "place", "auto", "color", "accept", "positive_bits",
        "states", "auto_states", "system_cost", "colors", "d",
    )

    @cached_property
    def vertices(self) -> tuple:
        return self.decode(range(self.n_vertices))

    def decode(self, ids) -> tuple:
        """The vertex tuples of `ids`."""
        states, auto_states = self.states, self.auto_states
        place, auto, color = self.place, self.auto, self.color
        subsets = _color_sets(self.colors)
        return tuple(
            (states[place[u]], auto_states[auto[u]], subsets[color[u]])
            for u in ids
        )

    @property
    def n_vertices(self) -> int:
        return len(self.succ)

    def n_edges(self) -> int:
        return sum(map(len, self.succ))

    @cached_property
    def index(self) -> dict:
        return {v: i for i, v in enumerate(self.vertices)}


def _color_sets(colors: tuple) -> list:
    """Per color mask, the colors whose bits it sets, in coordinate order."""
    return [
        tuple(c for i, c in enumerate(colors) if mask >> i & 1)
        for mask in range(1 << len(colors))
    ]


def build_product(
    system: TransitionSystem, auto: BuchiAutomaton
) -> ColoredCostGraph:
    d = system.d
    width = 1 << d
    colors = tuple(color_name(i) for i in range(1, d + 1))
    subsets = _color_sets(colors)
    # A vertex is keyed by the integer (state * |Q| + automaton state) *
    # width + color mask.  A letter is numbered label id * width + color
    # mask, over the distinct state labels, and an (automaton state,
    # letter) pair by letter * |Q| + automaton state.  The automaton
    # states a pair's guards lead to are worked out once per pair, and
    # each guard once per letter.
    auto_states = auto.states
    n_auto = len(auto_states)
    auto_index = {q: k for k, q in enumerate(auto_states)}
    stride = n_auto * width
    states = system.states
    n_states = len(states)
    state_index = {s: k for k, s in enumerate(states)}
    label_id: dict = {}
    for state in states:
        label_id.setdefault(system.labels[state], len(label_id))
    letter_sets = [label.union(chosen) for label in label_id for chosen in subsets]
    first_letter = [label_id[system.labels[s]] * width for s in states]
    bases = [
        tuple(
            (state_index[t] * stride, first_letter[state_index[t]])
            for t in dict.fromkeys(system.successors(state))
        )
        for state in states
    ]
    holds: dict = {}
    targets: dict = {}

    def targets_of(pair) -> tuple:
        """The automaton states the guards of `pair` lead to, in guard
        order; empty when no guard holds on its letter."""
        out = targets.get(pair)
        if out is None:
            letter, k = divmod(pair, n_auto)
            props = letter_sets[letter]
            found = {}
            for guard, dst in auto.transitions[auto_states[k]]:
                ok = holds.get((guard, letter))
                if ok is None:
                    ok = holds[(guard, letter)] = guard_holds(guard, props)
                if ok:
                    found[auto_index[dst]] = None
            out = targets[pair] = tuple(found)
        return out

    def moves_of(pair, first) -> tuple:
        """The (automaton state, color mask) codes of the successors of
        `pair` on a state whose label's first letter is `first` that have
        a move of their own, in guard order and then by color mask."""
        return tuple(
            k * width + m
            for k in targets_of(pair)
            for m in range(width)
            if targets_of((first + m) * n_auto + k)
        )

    # Per pair, its moves_of per first letter.  Pairs whose guards lead to
    # the same automaton states have the same moves, so they share one
    # table: product-heavy seed 7 computes 17,965 move tuples instead of
    # 31,025, and its products build about 10% sooner.
    moves: dict = {}
    shared: dict = {}
    start = auto_index[auto.initial]
    place = [state_index[system.initial]]
    auto_of = [start]
    color = [0]
    ids = {place[0] * stride + start * width: 0}
    lookup = ids.get
    succ = []
    for p in place:  # grows as new vertices are found
        v = len(succ)
        pair = (first_letter[p] + color[v]) * n_auto + auto_of[v]
        step = moves.get(pair)
        if step is None:
            step = moves[pair] = shared.setdefault(targets_of(pair), {})
        out = []
        for base, first in bases[p]:
            here = step.get(first)
            if here is None:  # a successor label the table has not met yet
                here = step[first] = moves_of(pair, first)
            for move in here:
                code = base + move
                j = lookup(code)
                if j is None:
                    j = ids[code] = len(place)
                    place.append(base // stride)
                    auto_of.append(move // width)
                    color.append(move % width)
                out.append(j)
        succ.append(out)
    accepting = [q in auto.accepting for q in auto_states]
    accept = [accepting[k] for k in auto_of]
    positive_bits = {
        state_index[s] * n_states + state_index[t]: sum(
            1 << i for i, c in enumerate(vec) if c > 0
        )
        for (s, t), vec in system.cost.items()
    }
    return ColoredCostGraph(
        succ=succ,
        place=place,
        auto=auto_of,
        color=color,
        accept=accept,
        positive_bits=positive_bits,
        states=states,
        auto_states=auto_states,
        system_cost=system.cost,
        colors=colors,
        d=d,
    )


# --- pumpable fair paths ----------------------------------------------------


def _components(graph: ColoredCostGraph, mask: int) -> list:
    """Per vertex id, the SCC of the vertex in the subgraph of the edges that
    keep the colors in `mask`, labelled by one of its members' ids.

    An iterative Tarjan over the ids; a vertex's kept successors are those
    of its successors whose colors agree with its own in `mask`.  A
    finished vertex's low value is set past every index, so it never
    lowers another's and no on-stack set is needed.
    """
    succ, color = graph.succ, graph.color
    n = len(succ)
    low = [-1] * n
    comp = [-1] * n
    stack = []
    counter = 0
    for root in range(n):
        if low[root] >= 0:
            continue
        work = []
        w = root  # the next vertex to number, or -1 to resume the top frame
        while True:
            if w >= 0:
                low[w] = counter
                stack.append(w)
                side = color[w] & mask
                out = []
                for x in succ[w]:
                    if color[x] & mask == side:
                        out.append(x)
                work.append((w, iter(out), counter))
                counter += 1
            node, children, number = work[-1]
            here = low[node]
            w = -1
            for x in children:
                reach = low[x]
                if reach < 0:
                    w = x
                    break
                if reach < here:
                    here = reach
            low[node] = here
            if w >= 0:
                continue
            work.pop()
            if here == number:
                while True:
                    x = stack.pop()
                    low[x] = n
                    comp[x] = node
                    if x == node:
                        break
            elif here < low[work[-1][0]]:
                low[work[-1][0]] = here
            if not work:
                break
    return comp


def _pump_capability(graph: ColoredCostGraph) -> tuple:
    """Per vertex id, a bitmask with bit c-1 set when the vertex's component
    in the subgraph that keeps coordinate c's color holds an edge with
    positive c-cost (the vertex can supply a pump for a block).  Returns
    the masks and, per coordinate bit, the components (`_components`)."""
    succ, place, bits = graph.succ, graph.place, graph.positive_bits
    n_states = len(graph.states)
    components = {}
    cap = [0] * graph.n_vertices
    for bit in (1 << i for i in range(graph.d)):
        comp = components[bit] = _components(graph, bit)
        pumped = bytearray(graph.n_vertices)
        for u, label in enumerate(comp):
            if pumped[label]:
                continue
            row = place[u] * n_states
            for w in succ[u]:
                if comp[w] == label and bits[row + place[w]] & bit:
                    pumped[label] = 1
                    break
        cap = [c | bit if pumped[label] else c for c, label in zip(cap, comp)]
    return cap, components


def _pump_cycle(
    graph: ColoredCostGraph, components: dict, bit: int, v: int, constant: bool
) -> Optional[list]:
    """Shortest cycle through vertex id v with a positive step in the
    coordinate of `bit`, inside v's component of the subgraph that keeps
    that coordinate's color (all colors when `constant`).  Returns the
    cycle as ids [v, ...] with an implicit wrap edge, or None when the
    component has no positive edge.

    One breadth-first search (`_shortest_path`) over (id, pumped) pairs,
    where pumped tells whether the path has taken a positive step yet,
    from (v, False) to (v, True): such paths are exactly the cycles through
    v with a positive step.  Ties go to the path the search meets first,
    following each vertex's successors in edge order.  `components` caches
    `_components` per color mask.
    """
    succ, place, bits = graph.succ, graph.place, graph.positive_bits
    n_states = len(graph.states)
    mask = (1 << graph.d) - 1 if constant else bit
    comp = components.get(mask)
    if comp is None:
        comp = components[mask] = _components(graph, mask)
    label = comp[v]

    def successors(node) -> list:
        u, pumped = node
        row = place[u] * n_states
        return [
            (w, pumped or bits[row + place[w]] & bit != 0)
            for w in succ[u]
            if comp[w] == label
        ]

    try:
        path = _shortest_path(((v, False),), successors, {(v, True)})
    except AutomatonError:
        return None
    return [u for u, _ in path[:-1]]


def _unpumped_blocks(graph: ColoredCostGraph, run: Lasso) -> list:
    """(coordinate, start, end) of each completed color block of `run`, a
    lasso of vertex ids, in which no vertex repeats with a positive step
    in that coordinate between its occurrences.  Costs are never
    negative, so such a step is what makes a repetition positive."""
    place, bits, color = graph.place, graph.positive_bits, graph.color
    n_states = len(graph.states)
    out = []
    for coord in range(1, graph.d + 1):
        bit = 1 << (coord - 1)
        cut = changepoints_of(run, lambda v: color[v] & bit)
        for start, end in cut.blocks()[0]:
            first: dict = {}
            pumped = -1  # the position the latest positive step entered
            for pos in range(start, end):
                v = run.letter(pos)
                if pos > start and bits[place[u] * n_states + place[v]] & bit:
                    pumped = pos
                if first.setdefault(v, pos) < pumped:
                    break
                u = v
            else:
                out.append((coord, start, end))
    return out


def _pumpable_lasso(graph: ColoredCostGraph) -> Optional[tuple]:
    """The emptiness decision of pumpable_fair_path, one find_accepting_lasso
    pass with its low values in a list indexed by flagged node: (run, cap,
    components), run the unspliced id lasso, cap each id's pump capability
    and components _pump_capability's; None without a pumpable fair path."""
    cap, components = _pump_capability(graph)
    d = graph.d
    full = (1 << d) - 1
    succ, color, accept = graph.succ, graph.color, graph.accept

    def successors(node) -> list:
        v = node >> d
        flags = node & full
        here = color[v]
        out = []
        for w in succ[v]:
            diff = here ^ color[w]
            if not diff & ~flags:
                out.append(w << d | (flags & ~diff) | cap[w])
        return out

    def accepting(node) -> bool:
        return accept[node >> d]

    low = [None] * (len(succ) << d)
    found = find_accepting_lasso(cap[0], successors, accepting, 1, low)
    if found is None:
        return None
    run = Lasso(*(tuple(node >> d for node in part) for part in found))
    return run, cap, components


def pumpable_fair_path(graph: ColoredCostGraph) -> Optional[tuple]:
    """Fair path whose completed color blocks can all be pumped.

    Searches the graph augmented with one flag per coordinate recording
    whether the current block has seen a pump-capable vertex; a color flip
    is only allowed with the flag set.  A flagged node is the integer
    `id << d | flags` over the graph's vertex ids: a step to w changes the
    colors in `diff = color[v] ^ color[w]`, is allowed iff
    `diff & ~flags == 0`, and leads to flags `(flags & ~diff) | cap[w]`,
    where `cap` is the pump capability of each id.  find_accepting_lasso
    decides emptiness over these nodes in one SCC pass, keeping its low
    values in a list indexed by flagged node, and builds a lasso only from
    the fair component it stops at.  The lasso is spliced with explicit
    pump cycles so that every completed block contains a repeated vertex
    with positive cost in between, and re-verified, all on vertex ids;
    only the witness's vertices are decoded.  Returns (prefix, loop) of
    product vertices, or None if no such path exists.
    """
    found = _pumpable_lasso(graph)
    if found is None:
        return None
    run = Lasso(*_splice_pumps(graph, *found))
    problems = _lasso_problems(graph, run)
    if problems:
        raise ModelCheckError(
            "could not certify a pumpable path: " + "; ".join(problems)
        )
    return graph.decode(run.prefix), graph.decode(run.loop)


def _splice_pumps(graph, run: Lasso, cap, components) -> tuple:
    """Insert a pump cycle into each block of the id lasso `run` that lacks
    a positive repetition, in front of the block's first pump-capable
    vertex: the shortest positive cycle through it that keeps every
    color, or failing that its block's color.  Returns [prefix, loop]."""
    p, n = len(run.prefix), len(run.loop)
    inserts: dict = {}  # (0 for the prefix or 1 for the loop, spot) -> cycles
    for coord, start, end in _unpumped_blocks(graph, run):
        bit = 1 << (coord - 1)
        spot = next(
            (pos for pos in range(start, end) if cap[run.letter(pos)] & bit),
            None,
        )
        if spot is None:
            raise ModelCheckError(
                "block without a pump-capable vertex slipped through"
            )
        v = run.letter(spot)
        cycle = _pump_cycle(graph, components, bit, v, constant=True)
        if cycle is None:
            cycle = _pump_cycle(graph, components, bit, v, constant=False)
        if cycle is None:
            raise ModelCheckError("pump-capable vertex has no positive cycle")
        key = (0, spot) if spot < p else (1, (spot - p) % n)
        inserts.setdefault(key, {})[tuple(cycle)] = None
    parts = [list(run.prefix), list(run.loop)]
    for (k, spot), cycles in sorted(inserts.items(), reverse=True):
        for cycle in cycles:
            parts[k][spot:spot] = cycle
    return parts


def verify_pumpable(graph: ColoredCostGraph, prefix, loop) -> list:
    """Check a candidate witness, a lasso of product vertices, explicitly.
    Returns a list of problems, empty when the lasso is a valid fair path
    whose completed color blocks all contain a positive repetition."""
    if not loop:
        return ["loop is empty"]
    index = graph.index
    run = Lasso(*(tuple(index.get(v, -1) for v in x) for x in (prefix, loop)))
    return _lasso_problems(graph, run)


def _lasso_problems(graph: ColoredCostGraph, run: Lasso) -> list:
    """verify_pumpable's checks on a lasso of vertex ids, where -1 stands
    for a vertex that is not in the graph."""
    succ = graph.succ
    problems = []
    if run.letter(0) != 0:
        problems.append("path does not start at the initial vertex")
    for i, (u, w) in enumerate(run.steps()):
        if u < 0 or w not in succ[u]:
            problems.append(f"missing edge at step {i}")
            return problems
    if not any(graph.accept[u] for u in run.loop):
        problems.append("loop never visits an accepting vertex")
    for coord, start, end in _unpumped_blocks(graph, run):
        problems.append(
            f"coordinate {coord} block [{start},{end}) has no "
            "positive repetition"
        )
    return problems


# --- bounds and caches ------------------------------------------------------


def bound_value(n_states: int, n_auto: int, d: int, max_cost: int) -> int:
    """Budget beyond which no valuation changes the verdict.

    Here phi_rel is relativize(eliminate_parametric_always(phi), d), and
    n_auto is the state count of any NBA A for its negation !phi_rel, with
    no chi_d in it.  V = n_states * n_auto * 2^d counts the vertices
    (system state, A-state, color set) of their colored product, and the
    bound is N = 2 * V * max_cost + 2.  Two directions rest on it.

    F-corner (check_exists, the min objectives' corner).  If phi fails at
    F-budgets N and G-budgets 0, it fails at every valuation.  Take a run
    violating it and color each coordinate c greedily: a c-block ends
    right after its (V/2)-th step of positive c-cost.  A relativized
    F[<=x] reaches at most the first position of the block after next,
    across the rest of a block, the whole next block and two flips, which
    cost at most (V + 2) * max_cost <= N.  So the colored run satisfies
    !phi_rel and A accepts it.  Only V/2 vertices share a block's color,
    so among the sources of its V/2 positive steps and its last position
    some vertex repeats, with positive cost in between: a pump cycle that
    keeps the block's color.  Inserting k copies of it into every
    completed block gives product paths with the same accepting visits
    whose completed blocks cost at least k.  On them a position past the
    first one of the block after next lies beyond a whole block, so for
    k > x F[<=x] implies its relativization, and !phi_rel implies !phi at
    x.  At d >= 2 this is no proof, since a pump cycle of a c-block may
    flip another coordinate's color, and its copies then add short blocks
    there; the tests cross-check the bound at d = 2.

    G-cap (check_forall's ladder, the max objectives' line cap).  For a
    formula with G-parameters only, phi_rel is phi at G-budgets 0, so A
    reads !phi with each F[<=y] of the negation at budget 0, written with
    kappa; on a word without kappa that is F.  If phi fails at some
    valuation, some lasso satisfies !phi with F[<=y] read as F
    (forall_holds), and A accepts its labels with kappa dropped.  So the
    product of the system with A, reading labels without kappa, has an
    accepting lasso through at most n_states * n_auto distinct vertices.
    Its system lasso satisfies !phi read without bounds, and each F's
    nearest witness lies fewer steps ahead than the lasso has positions,
    at cost below n_states * n_auto * max_cost <= N; so phi fails when
    every variable is N.  The argument needs kappa to enter only through
    those G[<=] operators.  A formula that names kappa itself or through
    a strict operator, and a max-max line whose other variables are
    pinned at 0 by the same rewrite, fall outside it; the tests
    cross-check their caps.

    Acceptance is no part of a vertex: it only says which vertices a fair
    loop visits, and inserting cycles keeps every visit it had.  So
    n_auto carries no factor for it.
    """
    return 2 * n_states * max(1, n_auto) * (1 << d) * max_cost + 2


# Automata are kept across queries, at most 128 of each kind, least
# recently used dropped first: the Buchi automata of _pipeline_nba, keyed by
# their target formula, and cost_nba's budget automata, keyed by (formula,
# dimension).  The optimizer's probes and check_forall's ladder ask for one
# budget automaton at each valuation: a pass of the budget-heavy benchmark
# workload runs 86 checks on 28 budget automata.  The test suite asks for
# the same few targets again and again: without the tables it runs about
# twice as long.
@lru_cache(maxsize=128)
def _pipeline_nba(target: Formula) -> BuchiAutomaton:
    return ltl_to_nba(target)


@lru_cache(maxsize=128)
def cost_nba(phi: Formula, d: int) -> CostBuchiAutomaton:
    """The budget automaton of !phi over d coordinates, kept under (phi, d),
    so checks of phi at other valuations neither negate it again nor
    expand its templates again."""
    return CostBuchiAutomaton(negate(phi), d)


def _negated_relativized(phi: Formula, d: int) -> Formula:
    return negate(relativize(eliminate_parametric_always(phi), d))


def exists_automaton(phi: Formula, d: int) -> BuchiAutomaton:
    """The automaton for !phi_rel over d coordinates, kept across queries:
    check_exists decides a holding answer on its product with a system,
    and valuation_upper_bound counts its states."""
    return _pipeline_nba(_negated_relativized(phi, d))


def witness_automaton(phi: Formula, d: int) -> BuchiAutomaton:
    """The automaton for !phi_rel & chi_d, kept across queries: a witness of
    check_exists is a path of its product with the system, searched for on
    the subsystem of the decision's spliced lasso first.  chi_d comes in
    disjunctive form, which the tableau translates to few states (see
    chi_formula): 72 for the README lift query."""
    return _pipeline_nba(And(_negated_relativized(phi, d), chi_formula(d)))


def valuation_upper_bound(system: TransitionSystem, phi: Formula) -> int:
    """Bound N such that exceeding N in any component cannot change whether
    the formula holds; searches may stop at N.  It is bound_value over
    exists_automaton, the automaton for the negated relativized formula
    alone: the argument needs no automaton states for chi_d."""
    require_well_formed(phi)
    validate_coords(phi, system.d)
    if system.max_cost == 0:
        # no block ever costs anything, whatever the automaton
        return bound_value(len(system.states), 1, system.d, 0)
    auto = exists_automaton(phi, system.d)
    return bound_value(
        len(system.states), auto.n_states, system.d, system.max_cost
    )


# --- results ----------------------------------------------------------------


class ExistsResult(Record):
    """`witness` is the pumpable fair path (prefix, loop) of vertices of
    the witness_automaton product, None when phi holds, searched for on
    the subsystem of the decision's spliced lasso first (check_exists)."""

    __slots__ = __match_args__ = (
        "holds", "bound", "witness", "product_vertices", "product_edges", "automaton_states",
    )


class FixedResult(Record):
    """`counterexample` is a LassoPath, None when phi holds.  `explored`
    counts the search nodes the decision pass expanded: every reachable
    node when the formula holds, and those up to the first fair component
    when it fails (the counterexample search is not counted).  They are
    quotient nodes, or the exact search's nodes after a spurious quotient
    lasso."""

    __slots__ = __match_args__ = ("holds", "counterexample", "explored")


class ForallResult(Record):
    """`corner` maps each variable to a value (a dict); `counterexample`
    is a LassoPath, None when phi holds."""

    __slots__ = __match_args__ = ("holds", "bound", "corner", "counterexample")


# --- checks -----------------------------------------------------------------


def check_exists(system: TransitionSystem, phi: Formula) -> ExistsResult:
    """Does some valuation make phi hold on every run of the system?

    Holds exactly when the colored product with the negated relativized
    formula admits no pumpable fair path; `witness` carries that path when
    one exists.

    The decision searches the product with exists_automaton, the automaton
    for !phi_rel alone.  Without a pumpable fair path there, phi holds at
    the F-corner of the bound: were it to fail there, bound_value's
    F-corner argument would color a violating run into such a path (that
    half of the argument holds at every d).  So the answer is holds, and
    chi_d is never translated.  Otherwise the decision's lasso is spliced
    (_splice_pumps), its product released, and the product with
    witness_automaton, for !phi_rel & chi_d, searched on the subsystem the
    spliced lasso steps through.  That lasso shows phi failing at every
    valuation on the subsystem, so by the characterization its product
    has a pumpable fair path, and each path of it is one of the whole
    system's product with the same vertices.  The pumping half of that
    argument is no proof at d >= 2 (bound_value), so when the subsystem
    yields nothing, the whole system's product is searched and gives the
    verdict.  `bound`, `automaton_states` and the product sizes are the
    decision's, so `bound` equals valuation_upper_bound.
    """
    require_well_formed(phi)
    validate_coords(phi, system.d)
    auto = exists_automaton(phi, system.d)
    graph = build_product(system, auto)
    vertices, edges = graph.n_vertices, graph.n_edges()
    found = _pumpable_lasso(graph)
    witness = None
    if found is not None:
        part = _subsystem(system, graph, _splice_pumps(graph, *found))
        del graph, found
        target = witness_automaton(phi, system.d)
        witness = pumpable_fair_path(build_product(part, target))
        if witness is None:
            witness = pumpable_fair_path(build_product(system, target))
    bound = bound_value(len(system.states), auto.n_states, system.d, system.max_cost)
    return ExistsResult(
        holds=witness is None,
        bound=bound,
        witness=witness,
        product_vertices=vertices,
        product_edges=edges,
        automaton_states=auto.n_states,
    )


def _subsystem(system: TransitionSystem, graph, parts) -> TransitionSystem:
    """The states and edges of `system` that the id lasso [prefix, loop] of
    `graph`, its product, steps through, in the system's order."""
    place, names = graph.place, graph.states
    used = set(Lasso(*(tuple(names[place[v]] for v in x) for x in parts)).steps())
    edges = {s: tuple(t for t in system.successors(s) if (s, t) in used) for s in system.states}
    states = tuple(s for s in system.states if edges[s])
    labels, cost = system.labels, system.cost
    return TransitionSystem(
        states, system.initial, {s: edges[s] for s in states},
        {s: labels[s] for s in states},
        {(s, t): cost[s, t] for s in states for t in edges[s]}, system.d,
    )


def check_fixed(
    system: TransitionSystem, phi: Formula, valuation: Mapping
) -> FixedResult:
    """Does phi hold on every run of the system under this valuation?

    Emptiness of the system composed with a budget automaton for the
    negated formula.  A failing verdict comes with a lasso counterexample,
    re-checked against the trace semantics before being returned.  The
    budget automaton, from cost_nba, holds nothing of the valuation and
    rejects coordinates beyond the system's dimension; its `budgets`
    rejects negative budgets and gives the one per-check object, the
    budgets its `successors` compares against.  The search's nodes are
    flat (system state, shape id, spent, ok) tuples, each expanded along
    all of its system state's out-edges in one budget automaton call; a
    node's `ok` mask, the tracked obligations its entering move did not
    delay, is its acceptance mask.

    The search runs first on a quotient that does not grow with the
    budget: each successor is replaced by an already kept node of its
    (system state, shape, ok) key that dominates it, having spent no more
    on each F[<=] token and no less on each G[<=] token
    (`CostBuchiAutomaton.dominates`), and is kept itself when none does.
    Per key the kept nodes form an antichain, a single node for the
    shapes with one budgeted operator.  A node's quotient successors are
    computed once, so the lasso search sees the graph the decision pass
    saw.  No fair component in the quotient means the formula holds: a
    dominating node mirrors every move of the node it stands in for, so
    an accepting run of the negation maps to an accepting path of the
    finite quotient (the argument is in `CostBuchiAutomaton`'s
    docstring).  A fair component gives a system lasso, which `evaluate`
    judges: violating phi, it is the counterexample; satisfying phi, the
    quotient's cycle was spurious and the exact search decides.
    """
    auto = cost_nba(phi, system.d)
    budgets = auto.budgets(valuation)
    expand = auto.successors
    dominates = auto.dominates
    labels = system.labels
    edges = {
        s: [(t, labels[s], system.cost[s, t]) for t in system.successors(s)]
        for s in system.states
    }
    start = (system.initial,) + auto.initial_state()
    kept: dict = {}
    quotient: dict = {}

    def keep(node):
        spent = node[2]
        if not spent:
            return node
        key = (node[0], node[1], node[3])
        front = kept.get(key)
        if front is None:
            kept[key] = [node]
            return node
        sid = node[1]
        for other in front:
            if dominates(sid, other[2], spent):
                return other
        front[:] = [a for a in front if not dominates(sid, spent, a[2])]
        front.append(node)
        return node

    def quotient_successors(node):
        out = quotient.get(node)
        if out is None:
            out = quotient[node] = [
                keep(w) for w in expand(node, edges[node[0]], budgets)
            ]
        return out

    def exact_successors(node):
        return expand(node, edges[node[0]], budgets)

    keep(start)
    for successors in (quotient_successors, exact_successors):
        found, explored = _decide(
            start, successors, auto.acceptance, auto.full
        )
        if found is None:
            return FixedResult(True, None, explored)
        prefix, loop = found
        path = canonical_lasso([v[0] for v in prefix], [v[0] for v in loop])
        if not evaluate(trace_of(system, path), 0, dict(valuation), phi):
            return FixedResult(False, path, explored)
    raise ModelCheckError(
        "counterexample candidate satisfies the formula on re-check"
    )


def _decide(start, successors: Callable, acceptance: Callable, full: int) -> tuple:
    """find_accepting_lasso from `start`, and the number of nodes its
    decision pass expanded: every reachable node when there is no lasso,
    those up to the first fair component when there is one (the
    counterexample search is not counted)."""
    explored = decided = 0

    def counted(node):
        nonlocal explored
        explored += 1
        return successors(node)

    def accepting(node) -> int:
        # only the decision pass asks, so the last ask marks its end
        nonlocal decided
        decided = explored
        return acceptance(node)

    found = find_accepting_lasso(start, counted, accepting, full)
    return found, explored if found is None else decided


def budget_ladder(cap: int) -> Iterator[int]:
    """The galloping probe sequence 0, 1, 2, 4, ... below cap, then cap."""
    yield 0
    value = 1
    while value < cap:
        yield value
        value *= 2
    if cap > 0:
        yield cap


def forall_holds(system: TransitionSystem, phi: Formula) -> bool:
    """Does phi hold on every run for every valuation, with all parameters
    on G[<=] operators?  Decided without a budget: exactly when phi with
    every G[<=y] read as G holds, plain LTL model checking.

    Why.  The formula fails for some valuation a exactly when some run
    satisfies the F-only formula !phi at a.  At a fixed a that is an
    omega-regular property, so a lasso has it whenever any run does.  On a
    lasso, F[<=x] psi implies F psi; conversely, by induction over !phi,
    if the lasso satisfies !phi with every F[<=x] read as F, then the cost
    from a position to the nearest witness of each F is bounded over all
    positions, because a lasso has finitely many distinct suffixes, and
    since F-only formulas only get easier as budgets grow, the lasso
    satisfies !phi at the largest of these costs.  So some valuation fails
    exactly when some lasso satisfies !phi read without bounds.  The
    colored product with "positive cost infinitely often implies color
    flips infinitely often" as a fairness condition decides the same
    question; on a lasso that condition costs nothing, so neither the
    colors nor the fairness check are needed.
    """
    return check_fixed(system, drop_cost_bounds(phi), {}).holds


def check_forall(system: TransitionSystem, phi: Formula) -> ForallResult:
    """Does phi hold on every run for every valuation?

    Only meaningful when all parameters bound G-style operators.  The
    verdict is budget-free (forall_holds).  A counterexample comes from
    check_fixed at the uniform valuations 0, 1, 2, 4, ..., the last capped
    at the bound.  On a fixed trace a G-only formula only gets harder to
    satisfy as the budget grows, so the first failing lasso also fails at
    the corner valuation, where it is re-checked.
    """
    profile = require_well_formed(phi)
    if profile.var_f:
        raise FragmentError(
            "universal parameter check supports G-bounded parameters only"
        )
    bound = valuation_upper_bound(system, phi)
    variables = sorted(profile.var_g)
    corner = dict.fromkeys(variables, bound)
    if forall_holds(system, phi):
        return ForallResult(
            holds=True, bound=bound, corner=corner, counterexample=None
        )
    for value in budget_ladder(bound):
        inner = check_fixed(system, phi, dict.fromkeys(variables, value))
        if not inner.holds:
            break
    else:
        raise ModelCheckError(
            "formula holds at the corner although some valuation fails"
        )
    if evaluate(trace_of(system, inner.counterexample), 0, corner, phi):
        raise ModelCheckError(
            "counterexample satisfies the formula at the corner"
        )
    return ForallResult(
        holds=False,
        bound=bound,
        corner=corner,
        counterexample=inner.counterexample,
    )
