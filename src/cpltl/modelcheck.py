"""Decision procedures over weighted transition systems.

check_exists decides whether some valuation of the cost parameters makes a
formula hold on every run of the system.  It works on a colored product:
the system is composed with an automaton for the negated, color-relativized
formula, with the color propositions chosen freely at each step.  The
formula fails for every valuation exactly when this product contains a fair
path whose color blocks can all be pumped to arbitrarily high cost.

check_fixed decides a single valuation directly with a budget automaton and
returns a lasso counterexample when the formula fails.  check_forall decides
the universal question without a budget (forall_holds): it model checks the
formula with its cost bounds dropped, and only a failing verdict searches
for a counterexample, at budgets 0, 1, 2, 4, ... up to a computable bound.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterator, Mapping, Optional

from .automata import (
    BuchiAutomaton,
    CostBuchiAutomaton,
    cost_nba,
    find_accepting_lasso,
    guard_holds,
    ltl_to_nba,
    _tarjan,
)
from .formula import (
    And,
    Formula,
    FormulaError,
    FragmentError,
    chi_formula,
    color_name,
    drop_cost_bounds,
    eliminate_parametric_always,
    negate,
    relativize,
    require_well_formed,
    validate_coords,
    var_profile,
)
from .system import LassoPath, TransitionSystem, trace_of
from .trace import Lasso, changepoints_of, evaluate


class ModelCheckError(RuntimeError):
    """Internal invariant broke while building or certifying an answer."""


# --- colored product --------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ColoredCostGraph:
    """Product of a system with an automaton, with free color choices.

    Vertices are (system state, automaton state, color set); the automaton
    reads the state label extended by the colors, and every subset of colors
    may be picked for the successor.  The graph keeps no cost table: an
    edge's cost is the system's cost between the two vertices' states
    (`step`).
    """

    initial: tuple
    vertices: tuple
    edges: dict
    system_cost: dict
    accepting: frozenset
    colors: tuple
    d: int

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    def n_edges(self) -> int:
        return sum(len(self.edges[v]) for v in self.vertices)

    def step(self, v, w) -> tuple:
        """Cost vector of the edge v -> w."""
        return self.system_cost[(v[0], w[0])]

    def color_bit(self, vertex, coord: int) -> bool:
        return self.colors[coord - 1] in vertex[2]


def build_product(
    system: TransitionSystem, auto: BuchiAutomaton
) -> ColoredCostGraph:
    colors = tuple(color_name(i) for i in range(1, system.d + 1))
    subsets = []
    for mask in range(1 << system.d):
        subsets.append(
            frozenset(colors[i] for i in range(system.d) if mask >> i & 1)
        )
    # The (automaton state, colors) pairs of a vertex's successors depend
    # only on its automaton state and letter, so they are worked out once
    # per such pair, and each guard once per letter.
    letters: dict = {}
    holds: dict = {}
    moves: dict = {}

    def moves_of(state, q, chosen) -> tuple:
        letter = letters.get((state, chosen))
        if letter is None:
            letter = letters[(state, chosen)] = system.labels[state] | chosen
        found = moves.get((q, letter))
        if found is None:
            targets = {}
            for guard, dst in auto.transitions[q]:
                ok = holds.get((guard, letter))
                if ok is None:
                    ok = holds[(guard, letter)] = guard_holds(guard, letter)
                if ok:
                    targets[dst] = None
            found = tuple((q2, picked) for q2 in targets for picked in subsets)
            moves[(q, letter)] = found
        return found

    successors = {
        state: tuple(dict.fromkeys(system.successors(state)))
        for state in system.states
    }
    initial = (system.initial, auto.initial, frozenset())
    edges: dict = {}
    order = [initial]
    seen = {initial}
    queue = deque([initial])
    while queue:
        vertex = queue.popleft()
        state, q, chosen = vertex
        step = moves_of(state, q, chosen)
        out = tuple(
            (succ, q2, picked)
            for succ in successors[state]
            for q2, picked in step
        )
        for w in out:
            if w not in seen:
                seen.add(w)
                order.append(w)
                queue.append(w)
        edges[vertex] = out
    accepting = frozenset(v for v in order if v[1] in auto.accepting)
    return ColoredCostGraph(
        initial=initial,
        vertices=tuple(order),
        edges=edges,
        system_cost=system.cost,
        accepting=accepting,
        colors=colors,
        d=system.d,
    )


# --- pumpable fair paths ----------------------------------------------------


def _capable_sets(graph: ColoredCostGraph) -> list:
    """Per coordinate: vertices whose single-color component can supply a
    positive-cost cycle (candidates for pumping a block)."""
    caps = []
    for coord in range(1, graph.d + 1):
        color = graph.colors[coord - 1]
        adj = {}
        for v in graph.vertices:
            side = color in v[2]
            adj[v] = tuple(w for w in graph.edges[v] if (color in w[2]) == side)
        sccid, _ = _tarjan(graph.vertices, adj)
        marked = set()
        for v in graph.vertices:
            comp = sccid[v]
            if comp in marked:
                continue
            for w in adj[v]:
                if sccid[w] == comp and graph.step(v, w)[coord - 1] > 0:
                    marked.add(comp)
                    break
        caps.append(
            frozenset(v for v in graph.vertices if sccid[v] in marked)
        )
    return caps


def _bfs_tree(start, adj: Mapping, members) -> tuple:
    dist = {start: 0}
    parent = {start: None}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if w in members and w not in dist:
                dist[w] = dist[u] + 1
                parent[w] = u
                queue.append(w)
    return dist, parent


def _tree_path(node, parent: Mapping) -> list:
    path = []
    while node is not None:
        path.append(node)
        node = parent[node]
    path.reverse()
    return path


def _pump_cycle(
    graph: ColoredCostGraph, coord: int, v, constant: bool
) -> Optional[list]:
    """Cycle through v with a positive step in `coord`, staying on vertices
    that agree with v on coordinate `coord`'s color (or on all colors when
    `constant`).  Returns the cycle as [v, ...] with an implicit wrap edge,
    or None."""
    if constant:
        def allowed(u) -> bool:
            return u[2] == v[2]
    else:
        def allowed(u) -> bool:
            return graph.color_bit(u, coord) == graph.color_bit(v, coord)

    verts = [u for u in graph.vertices if allowed(u)]
    adj = {u: tuple(w for w in graph.edges[u] if allowed(w)) for u in verts}
    sccid, _ = _tarjan(verts, adj)
    comp = sccid[v]
    members = {u for u in verts if sccid[u] == comp}
    candidates = [
        (a, b)
        for a in members
        for b in adj[a]
        if b in members and graph.step(a, b)[coord - 1] > 0
    ]
    if not candidates:
        return None
    dist_v, parent_v = _bfs_tree(v, adj, members)
    best = None
    for a, b in candidates:
        if a not in dist_v:
            continue
        dist_b, parent_b = _bfs_tree(b, adj, members)
        if v not in dist_b:
            continue
        length = dist_v[a] + 1 + dist_b[v]
        if best is None or length < best[0]:
            best = (length, a, b, parent_b)
    if best is None:
        return None
    _, a, b, parent_b = best
    head = _tree_path(a, parent_v)
    tail = _tree_path(v, parent_b)
    return head + tail[:-1]


def _block_pumped(graph, run: Lasso, coord: int, start: int, end: int) -> bool:
    """True when some vertex repeats inside the block with positive
    `coord`-cost between its occurrences."""
    first: dict = {}
    acc = [0]
    for pos in range(start, end):
        v = run.letter(pos)
        if pos > start:
            step = graph.step(run.letter(pos - 1), v)[coord - 1]
            acc.append(acc[-1] + step)
        if v in first:
            if acc[pos - start] - acc[first[v]] > 0:
                return True
        else:
            first[v] = pos - start
    return False


def pumpable_fair_path(graph: ColoredCostGraph) -> Optional[tuple]:
    """Fair path whose completed color blocks can all be pumped.

    Searches the graph augmented with one flag per coordinate recording
    whether the current block has seen a pump-capable vertex; a color flip
    is only allowed with the flag set.  The returned lasso is spliced with
    explicit pump cycles so that every completed block contains a repeated
    vertex with positive cost in between, then re-verified.  Returns
    (prefix, loop) of product vertices, or None if no such path exists.
    """
    caps = _capable_sets(graph)
    d = graph.d
    bits = {v: tuple(c in v[2] for c in graph.colors) for v in graph.vertices}
    capable = {v: tuple(v in cap for cap in caps) for v in graph.vertices}

    def successors(node):
        v, flags = node
        here = bits[v]
        out = []
        for w in graph.edges[v]:
            there = bits[w]
            pump = capable[w]
            nxt = []
            for i in range(d):
                if here[i] != there[i]:
                    if not flags[i]:
                        break
                    nxt.append(pump[i])
                else:
                    nxt.append(flags[i] or pump[i])
            else:
                out.append((w, tuple(nxt)))
        return out

    def accepting(node) -> bool:
        return node[0] in graph.accepting

    initial = (graph.initial, capable[graph.initial])
    found = find_accepting_lasso(initial, successors, accepting)
    if found is None:
        return None
    raw_prefix = [v for v, _ in found[0]]
    raw_loop = [v for v, _ in found[1]]
    prefix, loop = _splice_pumps(graph, caps, raw_prefix, raw_loop)
    problems = verify_pumpable(graph, prefix, loop)
    if problems:
        raise ModelCheckError(
            "could not certify a pumpable path: " + "; ".join(problems)
        )
    return tuple(prefix), tuple(loop)


def _splice_pumps(graph, caps, prefix, loop) -> tuple:
    """Insert pump cycles into blocks that lack a positive repetition."""
    run = Lasso(tuple(prefix), tuple(loop))
    p, n = len(prefix), len(loop)
    pre_ins: dict = {}
    loop_ins: dict = {}
    for coord in range(1, graph.d + 1):
        cut = changepoints_of(run, lambda v: graph.color_bit(v, coord))
        for start, end in cut.blocks()[0]:
            if _block_pumped(graph, run, coord, start, end):
                continue
            spot = None
            for pos in range(start, end):
                if run.letter(pos) in caps[coord - 1]:
                    spot = pos
                    break
            if spot is None:
                raise ModelCheckError(
                    "block without a pump-capable vertex slipped through"
                )
            v = run.letter(spot)
            cycle = _pump_cycle(graph, coord, v, constant=True)
            if cycle is None:
                cycle = _pump_cycle(graph, coord, v, constant=False)
            if cycle is None:
                raise ModelCheckError(
                    "pump-capable vertex has no positive cycle"
                )
            if spot < p:
                pre_ins.setdefault(spot, []).append(tuple(cycle))
            else:
                loop_ins.setdefault((spot - p) % n, []).append(tuple(cycle))
    new_prefix = list(prefix)
    for spot in sorted(pre_ins, reverse=True):
        for cycle in dict.fromkeys(pre_ins[spot]):
            new_prefix[spot : spot + 1] = list(cycle) + [new_prefix[spot]]
    new_loop = list(loop)
    for spot in sorted(loop_ins, reverse=True):
        for cycle in dict.fromkeys(loop_ins[spot]):
            new_loop[spot : spot + 1] = list(cycle) + [new_loop[spot]]
    return new_prefix, new_loop


def verify_pumpable(graph: ColoredCostGraph, prefix, loop) -> list:
    """Check a candidate witness explicitly. Returns a list of problems,
    empty when the lasso is a valid fair path whose completed color blocks
    all contain a positive repetition."""
    problems = []
    run = Lasso(tuple(prefix), tuple(loop))
    if run.letter(0) != graph.initial:
        problems.append("path does not start at the initial vertex")
    for i, (v, w) in enumerate(run.steps()):
        if w not in graph.edges.get(v, ()):
            problems.append(f"missing edge at step {i}")
            return problems
    if not any(v in graph.accepting for v in loop):
        problems.append("loop never visits an accepting vertex")
    for coord in range(1, graph.d + 1):
        cut = changepoints_of(run, lambda v: graph.color_bit(v, coord))
        for start, end in cut.blocks()[0]:
            if not _block_pumped(graph, run, coord, start, end):
                problems.append(
                    f"coordinate {coord} block [{start},{end}) has no "
                    "positive repetition"
                )
    return problems


# --- bounds and caches ------------------------------------------------------


def bound_value(n_states: int, n_auto: int, d: int, max_cost: int) -> int:
    """Budget beyond which no valuation changes the verdict."""
    return 2 * n_states * max(1, n_auto) * (1 << d) * max_cost + 2


_NBA_CACHE: dict = {}
_COST_CACHE: dict = {}
# Budget automata grow with the valuation, so evicting old entries keeps a
# long sequence of queries from pinning arbitrarily much memory.
_COST_CACHE_LIMIT = 128


def _pipeline_nba(target: Formula) -> BuchiAutomaton:
    auto = _NBA_CACHE.get(target)
    if auto is None:
        auto = ltl_to_nba(target)
        _NBA_CACHE[target] = auto
    return auto


def _negation_acceptor(
    phi: Formula, valuation: Mapping, d: int
) -> CostBuchiAutomaton:
    neg = negate(phi)
    relevant = tuple(
        sorted((x, valuation.get(x, 0)) for x in var_profile(neg).variables)
    )
    key = (neg, relevant, d)
    auto = _COST_CACHE.get(key)
    if auto is None:
        auto = cost_nba(neg, dict(relevant), d)
        while len(_COST_CACHE) >= _COST_CACHE_LIMIT:
            _COST_CACHE.pop(next(iter(_COST_CACHE)))
        _COST_CACHE[key] = auto
    return auto


def _exists_automaton(phi: Formula, d: int) -> BuchiAutomaton:
    eliminated = eliminate_parametric_always(phi)
    relativized = relativize(eliminated, d)
    return _pipeline_nba(And(negate(relativized), chi_formula(d)))


def valuation_upper_bound(system: TransitionSystem, phi: Formula) -> int:
    """Bound N such that exceeding N in any component cannot change whether
    the formula holds; searches may stop at N."""
    require_well_formed(phi)
    validate_coords(phi, system.d)
    auto = _exists_automaton(phi, system.d)
    return bound_value(
        len(system.states), auto.n_states, system.d, system.max_cost
    )


# --- results ----------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ExistsResult:
    holds: bool
    bound: int
    witness: Optional[tuple]
    product_vertices: int
    product_edges: int
    automaton_states: int


@dataclass(frozen=True, eq=False)
class FixedResult:
    holds: bool
    counterexample: Optional[LassoPath]
    explored: int


@dataclass(frozen=True, eq=False)
class ForallResult:
    holds: bool
    bound: int
    corner: dict
    counterexample: Optional[LassoPath]


# --- checks -----------------------------------------------------------------


def check_exists(system: TransitionSystem, phi: Formula) -> ExistsResult:
    """Does some valuation make phi hold on every run of the system?

    Holds exactly when the colored product with the negated relativized
    formula admits no pumpable fair path; `witness` carries that path when
    one exists.
    """
    require_well_formed(phi)
    validate_coords(phi, system.d)
    auto = _exists_automaton(phi, system.d)
    graph = build_product(system, auto)
    witness = pumpable_fair_path(graph)
    bound = bound_value(
        len(system.states), auto.n_states, system.d, system.max_cost
    )
    return ExistsResult(
        holds=witness is None,
        bound=bound,
        witness=witness,
        product_vertices=graph.n_vertices,
        product_edges=graph.n_edges(),
        automaton_states=auto.n_states,
    )


def check_fixed(
    system: TransitionSystem, phi: Formula, valuation: Mapping
) -> FixedResult:
    """Does phi hold on every run of the system under this valuation?

    Emptiness of the system composed with a budget automaton for the
    negated formula.  A failing verdict comes with a lasso counterexample,
    re-checked against the trace semantics before being returned.
    """
    validate_coords(phi, system.d)
    for var, value in valuation.items():
        if value < 0:
            raise FormulaError(f"negative value for parameter {var}: {value}")
    auto = _negation_acceptor(phi, valuation, system.d)
    explored = 0

    def successors(node):
        nonlocal explored
        explored += 1
        state, core = node
        props = system.labels[state]
        out = []
        for succ in system.successors(state):
            step = system.cost[(state, succ)]
            for core2 in auto.successors(core, props, step):
                out.append((succ, core2))
        return out

    def accepting(node) -> bool:
        return auto.is_accepting(node[1])

    found = find_accepting_lasso(
        (system.initial, auto.initial_state()), successors, accepting
    )
    if found is None:
        return FixedResult(holds=True, counterexample=None, explored=explored)
    path = LassoPath(
        tuple(s for s, _ in found[0]), tuple(s for s, _ in found[1])
    )
    trace = trace_of(system, path)
    if evaluate(trace, 0, dict(valuation), phi):
        raise ModelCheckError(
            "counterexample candidate satisfies the formula on re-check"
        )
    return FixedResult(holds=False, counterexample=path, explored=explored)


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
