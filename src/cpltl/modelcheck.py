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
from functools import cached_property
from typing import Callable, Iterator, Mapping, Optional

from .automata import (
    BuchiAutomaton,
    cost_nba,
    find_accepting_lasso,
    guard_holds,
    ltl_to_nba,
    _sccs,
    _shortest_path,
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
)
from .system import LassoPath, TransitionSystem, canonical_lasso, trace_of
from .trace import Lasso, changepoints_of, evaluate


class ModelCheckError(RuntimeError):
    """Internal invariant broke while building or certifying an answer."""


# --- colored product --------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ColoredCostGraph:
    """Product of a system with an automaton, with free color choices.

    Vertices are (system state, automaton state, color set); the automaton
    reads the state label extended by the colors, and every subset of colors
    may be picked for the successor.  `vertices` lists them in breadth-first
    order from the initial vertex, and a vertex's position there is its id.
    Per id, `succ` holds the successor ids in edge order, `color` a bitmask
    with bit c-1 set when coordinate c's color is chosen, and `accept`
    whether the automaton state is accepting.  The views on vertex tuples,
    `edges`, `accepting` and `index` (vertex -> id), are built on first use.
    The graph keeps no cost table: an edge's cost is the system's cost
    between the two vertices' states (`step`; `positive` holds which
    coordinates of each state pair's cost are positive).
    """

    vertices: tuple
    succ: list
    color: list
    accept: list
    system_cost: dict
    colors: tuple
    d: int

    @property
    def initial(self) -> tuple:
        return self.vertices[0]

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    def n_edges(self) -> int:
        return sum(map(len, self.succ))

    @cached_property
    def edges(self) -> dict:
        vertices = self.vertices
        return {
            v: tuple(vertices[j] for j in out)
            for v, out in zip(vertices, self.succ)
        }

    @cached_property
    def accepting(self) -> frozenset:
        return frozenset(v for v, ok in zip(self.vertices, self.accept) if ok)

    @cached_property
    def index(self) -> dict:
        return {v: i for i, v in enumerate(self.vertices)}

    @cached_property
    def positive(self) -> dict:
        """(state, state) -> bitmask of the coordinates with positive cost."""
        return {
            pair: sum(1 << i for i, c in enumerate(vec) if c > 0)
            for pair, vec in self.system_cost.items()
        }

    def step(self, v, w) -> tuple:
        """Cost vector of the edge v -> w."""
        return self.system_cost[(v[0], w[0])]

    def color_bit(self, vertex, coord: int) -> bool:
        return self.colors[coord - 1] in vertex[2]


def build_product(
    system: TransitionSystem, auto: BuchiAutomaton
) -> ColoredCostGraph:
    d = system.d
    width = 1 << d
    colors = tuple(color_name(i) for i in range(1, d + 1))
    subsets = [
        frozenset(colors[i] for i in range(d) if mask >> i & 1)
        for mask in range(width)
    ]
    # A vertex is keyed by the integer (state * |Q| + automaton state) *
    # width + color mask.  The (automaton state, colors) parts of a
    # vertex's successors depend only on its automaton state and letter, so
    # they are worked out once per such pair, and each guard once per letter.
    auto_states = auto.states
    auto_index = {q: k for k, q in enumerate(auto_states)}
    stride = len(auto_states) * width
    states = system.states
    state_index = {s: k for k, s in enumerate(states)}
    letters = {
        state: [system.labels[state] | chosen for chosen in subsets]
        for state in states
    }
    bases = {
        state: tuple(
            state_index[t] * stride
            for t in dict.fromkeys(system.successors(state))
        )
        for state in states
    }
    holds: dict = {}
    moves: dict = {}

    def moves_of(q, letter) -> tuple:
        targets = {}
        for guard, dst in auto.transitions[q]:
            ok = holds.get((guard, letter))
            if ok is None:
                ok = holds[(guard, letter)] = guard_holds(guard, letter)
            if ok:
                targets[dst] = None
        return tuple(
            auto_index[q2] * width + picked
            for q2 in targets
            for picked in range(width)
        )

    accepting = [q in auto.accepting for q in auto_states]
    start = state_index[system.initial] * stride
    ids = {start + auto_index[auto.initial] * width: 0}
    lookup = ids.get
    vertices = [(system.initial, auto.initial, subsets[0])]
    color = [0]
    accept = [accepting[auto_index[auto.initial]]]
    succ = []
    for state, q, _ in vertices:
        key = (q, letters[state][color[len(succ)]])
        step = moves.get(key)
        if step is None:
            step = moves[key] = moves_of(*key)
        codes = [base + move for base in bases[state] for move in step]
        out = list(map(lookup, codes))
        if None in out:
            for pos, j in enumerate(out):
                if j is None:
                    code = codes[pos]
                    out[pos] = ids[code] = len(vertices)
                    k, mask = divmod(code % stride, width)
                    vertices.append(
                        (states[code // stride], auto_states[k], subsets[mask])
                    )
                    color.append(mask)
                    accept.append(accepting[k])
        succ.append(out)
    return ColoredCostGraph(
        vertices=tuple(vertices),
        succ=succ,
        color=color,
        accept=accept,
        system_cost=system.cost,
        colors=colors,
        d=d,
    )


# --- pumpable fair paths ----------------------------------------------------


def _components(graph: ColoredCostGraph, mask: int) -> list:
    """Per vertex id, the SCC of the vertex in the subgraph of the edges that
    keep the colors in `mask`, labelled by one of its members' ids."""
    succ, color = graph.succ, graph.color
    comp = [-1] * graph.n_vertices

    def kept(v) -> list:
        side = color[v] & mask
        return [w for w in succ[v] if color[w] & mask == side]

    for members, _ in _sccs(range(graph.n_vertices), kept):
        for u in members:
            comp[u] = members[0]
    return comp


def _pump_capability(graph: ColoredCostGraph) -> tuple:
    """Per vertex id, a bitmask with bit c-1 set when the vertex's component
    in the subgraph that keeps coordinate c's color holds an edge with
    positive c-cost (the vertex can supply a pump for a block).  Returns
    the masks and, per coordinate bit, the components (`_components`)."""
    succ, vertices, positive = graph.succ, graph.vertices, graph.positive
    components = {}
    cap = [0] * graph.n_vertices
    for bit in (1 << i for i in range(graph.d)):
        comp = components[bit] = _components(graph, bit)
        pumped = set()
        for u, label in enumerate(comp):
            if label in pumped:
                continue
            state = vertices[u][0]
            for w in succ[u]:
                if comp[w] != label:
                    continue
                if positive[(state, vertices[w][0])] & bit:
                    pumped.add(label)
                    break
        for u, label in enumerate(comp):
            if label in pumped:
                cap[u] |= bit
    return cap, components


def _distances(start, adj: Callable) -> dict:
    """Edge count of a shortest path from start to each reachable node."""
    dist = {start: 0}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for w in adj(u):
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def _pump_cycle(
    graph: ColoredCostGraph,
    components: dict,
    bit: int,
    v: int,
    constant: bool,
) -> Optional[list]:
    """Shortest cycle through vertex id v with a positive step in the
    coordinate of `bit`, staying on vertices that agree with v on that
    coordinate's color (or on all colors when `constant`).  Ties go to the
    first positive edge in vertex order.  Returns the cycle as ids
    [v, ...] with an implicit wrap edge, or None.

    `components` caches `_components` per color mask.
    """
    succ, color, vertices = graph.succ, graph.color, graph.vertices
    positive = graph.positive
    mask = (1 << graph.d) - 1 if constant else bit
    comp = components.get(mask)
    if comp is None:
        comp = components[mask] = _components(graph, mask)
    label = comp[v]

    def inside(u) -> list:
        return [w for w in succ[u] if comp[w] == label]

    members = [u for u in range(graph.n_vertices) if comp[u] == label]
    pred: dict = {u: [] for u in members}
    candidates = []
    for a in members:
        for b in inside(a):
            pred[b].append(a)
            if positive[(vertices[a][0], vertices[b][0])] & bit:
                candidates.append((a, b))
    if not candidates:
        return None
    dist_v = _distances(v, inside)
    dist_to_v = _distances(v, pred.__getitem__)
    best = None
    for a, b in candidates:
        length = dist_v[a] + 1 + dist_to_v[b]
        if best is None or length < best[0]:
            best = (length, a, b)
    _, a, b = best
    there = _shortest_path((v,), inside, {a})
    return there + _shortest_path((b,), inside, {v})[:-1]


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
    is only allowed with the flag set.  A flagged node is the integer
    `id << d | flags` over the graph's vertex ids: a step to w changes the
    colors in `diff = color[v] ^ color[w]`, is allowed iff
    `diff & ~flags == 0`, and leads to flags `(flags & ~diff) | cap[w]`,
    where `cap` is the pump capability of each id.  find_accepting_lasso
    decides emptiness over these nodes in one SCC pass and builds a lasso
    only from the fair component it stops at.  The lasso is spliced with
    explicit pump cycles so that every completed block contains a repeated
    vertex with positive cost in between, then re-verified.  Returns
    (prefix, loop) of product vertices, or None if no such path exists.
    """
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

    found = find_accepting_lasso(cap[0], successors, accepting)
    if found is None:
        return None
    vertices = graph.vertices
    raw_prefix = [vertices[node >> d] for node in found[0]]
    raw_loop = [vertices[node >> d] for node in found[1]]
    prefix, loop = _splice_pumps(graph, cap, components, raw_prefix, raw_loop)
    problems = verify_pumpable(graph, prefix, loop)
    if problems:
        raise ModelCheckError(
            "could not certify a pumpable path: " + "; ".join(problems)
        )
    return tuple(prefix), tuple(loop)


def _splice_pumps(graph, cap, components, prefix, loop) -> tuple:
    """Insert pump cycles into blocks that lack a positive repetition."""
    index = graph.index
    run = Lasso(tuple(prefix), tuple(loop))
    p, n = len(prefix), len(loop)
    pre_ins: dict = {}
    loop_ins: dict = {}
    for coord in range(1, graph.d + 1):
        bit = 1 << (coord - 1)
        cut = changepoints_of(run, lambda v: graph.color_bit(v, coord))
        for start, end in cut.blocks()[0]:
            if _block_pumped(graph, run, coord, start, end):
                continue
            spot = None
            for pos in range(start, end):
                if cap[index[run.letter(pos)]] & bit:
                    spot = pos
                    break
            if spot is None:
                raise ModelCheckError(
                    "block without a pump-capable vertex slipped through"
                )
            v = index[run.letter(spot)]
            cycle = _pump_cycle(graph, components, bit, v, constant=True)
            if cycle is None:
                cycle = _pump_cycle(graph, components, bit, v, constant=False)
            if cycle is None:
                raise ModelCheckError(
                    "pump-capable vertex has no positive cycle"
                )
            cycle = tuple(graph.vertices[u] for u in cycle)
            if spot < p:
                pre_ins.setdefault(spot, []).append(cycle)
            else:
                loop_ins.setdefault((spot - p) % n, []).append(cycle)
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
    index = graph.index
    for i, (v, w) in enumerate(run.steps()):
        if v not in index or index.get(w) not in graph.succ[index[v]]:
            problems.append(f"missing edge at step {i}")
            return problems
    if not any(graph.accept[index[v]] for v in loop):
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


# Translations are kept across queries, keyed by the target formula.  A
# single query asks for each of its automata once (no hits on either
# benchmark workload), but the test suite asks for the same few targets
# again and again: without this cache it runs about five times longer.
_NBA_CACHE: dict = {}


def _pipeline_nba(target: Formula) -> BuchiAutomaton:
    auto = _NBA_CACHE.get(target)
    if auto is None:
        auto = ltl_to_nba(target)
        _NBA_CACHE[target] = auto
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
    # Product nodes the decision pass expanded: every reachable node when
    # the formula holds, and those up to the first fair component when it
    # fails (the counterexample search is not counted).
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
    auto = cost_nba(negate(phi), valuation, system.d)
    explored = decided = 0

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
        # only the decision pass asks, so the last ask marks its end
        nonlocal decided
        decided = explored
        return auto.is_accepting(node[1])

    found = find_accepting_lasso(
        (system.initial, auto.initial_state()), successors, accepting
    )
    if found is None:
        return FixedResult(holds=True, counterexample=None, explored=explored)
    path = canonical_lasso(
        [s for s, _ in found[0]], [s for s, _ in found[1]]
    )
    trace = trace_of(system, path)
    if evaluate(trace, 0, dict(valuation), phi):
        raise ModelCheckError(
            "counterexample candidate satisfies the formula on re-check"
        )
    return FixedResult(holds=False, counterexample=path, explored=decided)


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
