"""Decision procedures over weighted transition systems.

check_exists decides whether some valuation of the cost parameters makes a
formula hold on every run of the system.  It works on a colored product:
the system is composed with an automaton for the negated, color-relativized
formula, with the color propositions chosen freely at each step.  The
formula fails for every valuation exactly when this product contains a fair
path whose color blocks can all be pumped to arbitrarily high cost.

check_fixed decides a single valuation directly with a budget automaton and
returns a lasso counterexample when the formula fails.  check_forall reduces
the universal question to one corner valuation given by a computable bound.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Mapping, Optional

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
    may be picked for the successor.  Edge costs come from the system.
    """

    initial: tuple
    vertices: tuple
    edges: dict
    cost: dict
    accepting: frozenset
    colors: tuple
    d: int

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    def n_edges(self) -> int:
        return sum(len(self.edges[v]) for v in self.vertices)

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
    initial = (system.initial, auto.initial, frozenset())
    edges: dict = {}
    cost: dict = {}
    order = [initial]
    seen = {initial}
    queue = deque([initial])
    while queue:
        vertex = queue.popleft()
        state, q, chosen = vertex
        letter = system.labels[state] | chosen
        targets = [
            dst
            for guard, dst in auto.transitions[q]
            if guard_holds(guard, letter)
        ]
        out = []
        for succ in system.successors(state):
            step = system.cost[(state, succ)]
            for q2 in targets:
                for picked in subsets:
                    w = (succ, q2, picked)
                    out.append(w)
                    cost[(vertex, w)] = step
                    if w not in seen:
                        seen.add(w)
                        order.append(w)
                        queue.append(w)
        edges[vertex] = tuple(dict.fromkeys(out))
    accepting = frozenset(v for v in order if v[1] in auto.accepting)
    return ColoredCostGraph(
        initial=initial,
        vertices=tuple(order),
        edges=edges,
        cost=cost,
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
        adj = {
            v: tuple(
                w
                for w in graph.edges[v]
                if graph.color_bit(w, coord) == graph.color_bit(v, coord)
            )
            for v in graph.vertices
        }
        sccid, _ = _tarjan(graph.vertices, adj)
        marked = set()
        for v in graph.vertices:
            for w in adj[v]:
                if (
                    sccid[w] == sccid[v]
                    and graph.cost[(v, w)][coord - 1] > 0
                ):
                    marked.add(sccid[v])
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
        if b in members and graph.cost[(a, b)][coord - 1] > 0
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
            step = graph.cost[(run.letter(pos - 1), v)][coord - 1]
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

    def start_flags(v):
        return tuple(v in caps[i] for i in range(d))

    def successors(node):
        v, flags = node
        out = []
        for w in graph.edges[v]:
            legal = True
            nxt = []
            for i in range(d):
                flip = graph.color_bit(v, i + 1) != graph.color_bit(w, i + 1)
                if flip:
                    if not flags[i]:
                        legal = False
                        break
                    nxt.append(w in caps[i])
                else:
                    nxt.append(flags[i] or w in caps[i])
            if legal:
                out.append((w, tuple(nxt)))
        return out

    def accepting(node) -> bool:
        return node[0] in graph.accepting

    initial = (graph.initial, start_flags(graph.initial))
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


def check_forall(system: TransitionSystem, phi: Formula) -> ForallResult:
    """Does phi hold on every run for every valuation?

    Only meaningful when all parameters bound G-style operators; those are
    hardest to satisfy at large budgets, and budgets beyond the computed
    bound are indistinguishable, so the single corner valuation decides.
    """
    profile = require_well_formed(phi)
    if profile.var_f:
        raise FragmentError(
            "universal parameter check supports G-bounded parameters only"
        )
    bound = valuation_upper_bound(system, phi)
    corner = {var: bound for var in sorted(profile.var_g)}
    inner = check_fixed(system, phi, corner)
    return ForallResult(
        holds=inner.holds,
        bound=bound,
        corner=corner,
        counterexample=inner.counterexample,
    )
