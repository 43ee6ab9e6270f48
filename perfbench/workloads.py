"""Seeded query sets for the benchmark workloads, with expected answers.

A workload is a fixed list of query slots.  The seed fills each slot with a
concrete system and formula, but never changes what kind of work the slot
asks for, so the cost of a pass stays comparable between seeds.

Every expected answer comes from outside the checker's pipeline: the
README's documented results for the lift system, or closed forms of the
generated families (longest cost to a grant, cheapest path to a violation,
reachability).  The self-tests check the closed forms against brute-force
lasso enumeration on systems of four states or fewer, with the semantics of
``oracle_holds`` in ``tests/conftest.py``.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field
from typing import Callable, Optional

WORKLOADS = ("product-heavy", "budget-heavy")

LIFT_TEXT = """\
dim 1
state s0 init : q
state s1 : p kappa1
edge s0 s1 : 3
edge s1 s0 : 0
edge s1 s1 : 1
"""

# The README's lift query.  A run reports its counts next to those measured
# at the re-anchor (ROADMAP.md); a later design change may move them on
# purpose, so they are not part of the correctness gate.
LIFT_RESPONSE = "G (q -> F[<=x] p)"

# Brute-force corner valuation: F-parameters at this budget, G-parameters at
# zero.  Systems of at most four states with costs of at most 3 never need
# more (the same cap as the acceptance suite's criterion 2).
ORACLE_CAP = 32
ORACLE_MAX_STATES = 4


@dataclass(frozen=True)
class Query:
    """One question, answered cold in its own interpreter."""

    name: str
    kind: str  # exists | fixed | forall | optimize
    system: str
    formula: str
    expect: dict
    valuation: Optional[dict] = None
    objective: Optional[str] = None
    anchor: dict = field(default_factory=dict)

    def spec(self) -> dict:
        return {
            "kind": self.kind,
            "system": self.system,
            "formula": self.formula,
            "valuation": self.valuation,
            "objective": self.objective,
        }


# --- generated systems --------------------------------------------------------


@dataclass
class Graph:
    """A system as the generators build it: state i is named s<i>, state 0
    is initial, and an edge's coordinate is positive exactly when the
    target's `positive` flag for that coordinate is set."""

    labels: list
    positive: list
    out: list  # out[i] = [(j, cost tuple), ...]

    @property
    def d(self) -> int:
        return len(self.positive[0])

    def text(self) -> str:
        lines = [f"dim {self.d}"]
        for i, props in enumerate(self.labels):
            kappas = [f"kappa{c + 1}" for c in range(self.d) if self.positive[i][c]]
            words = " ".join(sorted(props) + kappas)
            init = " init" if i == 0 else ""
            lines.append(f"state s{i}{init} : {words}".rstrip())
        for i, edges in enumerate(self.out):
            for j, vec in edges:
                lines.append(f"edge s{i} s{j} : " + " ".join(map(str, vec)))
        return "\n".join(lines) + "\n"


def _edge_cost(rng: random.Random, positive: tuple, max_cost: int) -> tuple:
    return tuple(rng.randint(1, max_cost) if on else 0 for on in positive)


def _force_costs(rng: random.Random, g: Graph, max_cost: int) -> None:
    """Give one positive edge cost max_cost and another cost 1.  The
    checker's bound scales with the largest cost, and a budget search
    reaches every remainder only when cost 1 occurs, so both keep the work
    of one slot the same between seeds."""
    slots = [(i, k) for i, edges in enumerate(g.out) for k, (_, vec) in enumerate(edges)
             if vec[0] > 0]
    for (i, k), cost in zip(rng.sample(slots, min(2, len(slots))), (max_cost, 1)):
        j, vec = g.out[i][k]
        g.out[i][k] = (j, (cost,) + vec[1:])


def small_system(rng: random.Random, n: int, props=("p", "q"), max_cost: int = 3) -> Graph:
    """Random one-coordinate system of n states, every state with one or
    two successors, so that lasso enumeration stays cheap at n = 4."""
    labels = [frozenset(a for a in props if rng.random() < 0.5) for _ in range(n)]
    positive = [(rng.random() < 0.5,) for _ in range(n)]
    out = []
    for _ in range(n):
        targets = sorted(rng.sample(range(n), rng.randint(1, min(n, 2))))
        out.append([(j, _edge_cost(rng, positive[j], max_cost)) for j in targets])
    return Graph(labels, positive, out)


def ring_system(
    rng: random.Random, n: int, chords: int, pattern: str, loops: bool = False,
    positive_share: float = 0.75, max_cost: int = 3,
) -> Graph:
    """Ring s0 -> s1 -> ... -> s0 with `chords` extra random edges.

    Labels repeat `pattern` around the ring ("q,,p" labels s0 with q, s1
    with nothing, s2 with p, s3 with q, ...), which keeps the product size
    of one slot within a few percent between seeds.  With `loops` every
    state also has a self-loop, of cost 1 when the state is entered at
    positive cost (a `positive_share` of the states are).
    """
    cells = [frozenset(cell.split()) for cell in pattern.split(",")]
    labels = [cells[i % len(cells)] for i in range(n)]
    positive = [(rng.random() < positive_share,) for _ in range(n)]
    succ = [{(i + 1) % n} for i in range(n)]
    for _ in range(chords):
        succ[rng.randrange(n)].add(rng.randrange(n))
    out = [
        [(j, _edge_cost(rng, positive[j], max_cost)) for j in sorted(succ[i])]
        for i in range(n)
    ]
    if loops:
        for i in range(n):
            out[i] = [(j, vec) for j, vec in out[i] if j != i] + [(i, (int(positive[i][0]),))]
    g = Graph(labels, positive, out)
    _force_costs(rng, g, max_cost)
    return g


def sample(make: Callable, accept: Callable, tries: int = 1000):
    """First generated instance the closed form puts in the wanted class,
    so every seed fills a slot with the same kind of instance."""
    for _ in range(tries):
        g = make()
        if accept(g):
            return g
    raise RuntimeError("no instance of the wanted class")


# --- closed forms -------------------------------------------------------------


def _reachable(g: Graph, starts) -> set:
    seen = set(starts)
    stack = list(starts)
    while stack:
        i = stack.pop()
        for j, _ in g.out[i]:
            if j not in seen:
                seen.add(j)
                stack.append(j)
    return seen


def response_need(g: Graph, request: str, grant: str, skip_first: bool = False) -> Optional[int]:
    """Least x with `G (request -> F[<=x] grant)` on every run, or None
    when no x works.  With skip_first the formula is `X G (...)`, so only
    positions from 1 on count.

    From a reachable request state without the grant, every run must reach
    a grant state within budget: infeasible when a grant-free cycle is
    reachable through grant-free states, otherwise the need is the longest
    grant-free cost up to and including the step into a grant state.
    """
    starts = [j for j, _ in g.out[0]] if skip_first else [0]
    reach = _reachable(g, starts)
    longest: dict = {}
    on_path: set = set()

    def need_from(i: int) -> Optional[int]:
        # grant-free state i: longest cost until a grant is entered
        if i in longest:
            return longest[i]
        if i in on_path:
            return None
        on_path.add(i)
        best = 0
        for j, vec in g.out[i]:
            if grant in g.labels[j]:
                best = max(best, vec[0])
                continue
            rest = need_from(j)
            if rest is None:
                return None
            best = max(best, vec[0] + rest)
        on_path.discard(i)
        longest[i] = best
        return best

    worst = 0
    for i in sorted(reach):
        if request in g.labels[i] and grant not in g.labels[i]:
            need = need_from(i)
            if need is None:
                return None
            worst = max(worst, need)
    return worst


def violation_distance(g: Graph, ok: Callable) -> Optional[int]:
    """Cheapest cost from s0 to a state whose label fails `ok`, or None
    when no such state is reachable.  `G[<=y] ok` holds on every run
    exactly when y is below this distance."""
    dist = {0: 0}
    heap = [(0, 0)]
    while heap:
        c, i = heapq.heappop(heap)
        if c > dist[i]:
            continue
        if not ok(g.labels[i]):
            return c
        for j, vec in g.out[i]:
            nc = c + vec[0]
            if nc < dist.get(j, nc + 1):
                dist[j] = nc
                heapq.heappush(heap, (nc, j))
    return None


def greatest_window(g: Graph, ok: Callable) -> tuple:
    """Optimizer answer for `G[<=y] ok` under max-max and max-min."""
    dist = violation_distance(g, ok)
    if dist is None:
        return ("unbounded", None)
    if dist == 0:
        return ("infeasible", None)
    return ("optimal", dist - 1)


# --- brute force --------------------------------------------------------------


def brute_force_holds(system_text: str, formula_text: str, valuation: dict) -> bool:
    """phi holds on every lasso of length at most 2n + 2 (the oracle of
    tests/conftest.py)."""
    from cpltl.formula import parse
    from cpltl.system import enumerate_lassos, parse_system, trace_of
    from cpltl.trace import evaluate

    system = parse_system(system_text)
    if len(system.states) > ORACLE_MAX_STATES:
        raise ValueError("brute force is limited to small systems")
    phi = parse(formula_text)
    bound = 2 * len(system.states) + 2
    return all(
        evaluate(trace_of(system, lasso), 0, valuation, phi)
        for lasso in enumerate_lassos(system, bound)
    )


def brute_force_exists(system_text: str, formula_text: str) -> bool:
    """Some valuation works iff the weakest corner works: F-parameters
    large, G-parameters zero."""
    from cpltl.formula import parse, var_profile

    profile = var_profile(parse(formula_text))
    corner = {x: ORACLE_CAP for x in profile.var_f}
    corner.update({y: 0 for y in profile.var_g})
    return brute_force_holds(system_text, formula_text, corner)


# --- workloads ----------------------------------------------------------------

PRODUCT_STATES = 110
FAILING_STATES = 30
PRODUCT_HOLDING = 5
PRODUCT_FAILING = 1
BUDGET_COPIES = 3
WINDOW_COPIES = 3
VIOLATION_COST = 8
PRODUCT_FORMULAS = (
    # (name, formula, request, grant, skip_first, ring label pattern)
    ("response", "G (q -> F[<=x] p)", "q", "p", False, "q,,q,p"),
    ("next-response", "X G (q -> F[<=x] p)", "q", "p", True, "q,,q,p"),
    ("swapped", "G (p -> F[<=x] q)", "p", "q", False, "p,,p,q"),
)


def _product_heavy(rng: random.Random) -> list:
    queries = [
        Query(
            "lift-response",
            "exists",
            LIFT_TEXT,
            LIFT_RESPONSE,
            {"holds": True},
            anchor={"nba_states": 237, "product_vertices": 57,
                    "product_edges": 140, "bound": 5690},
        )
    ]
    # Every formula on PRODUCT_HOLDING holding rings of PRODUCT_STATES states
    # and PRODUCT_FAILING failing rings of FAILING_STATES.  On a ring as
    # large as the holding ones, a failing query's time varies by a third
    # between seeds, with where the search first closes a grant-free cycle;
    # on the smaller ring it stays below every holding query, so both
    # percentiles fall among the holding queries, whose time varies by a
    # tenth.
    kinds = len(PRODUCT_FORMULAS)
    for k in range(kinds * (PRODUCT_HOLDING + PRODUCT_FAILING)):
        name, formula, req, grant, skip, pattern = PRODUCT_FORMULAS[k % kinds]
        holds = k < kinds * PRODUCT_HOLDING
        n = PRODUCT_STATES if holds else FAILING_STATES
        # a failing ring has a grant-free cycle, closed by a chord
        g = sample(
            lambda: ring_system(rng, n, n // 5, pattern),
            lambda g: (response_need(g, req, grant, skip) is not None) == holds,
        )
        tag = "holds" if holds else "fails"
        queries.append(Query(f"{name}-{tag}-{k}", "exists", g.text(), formula, {"holds": holds}))
    return queries


def _budget_heavy(rng: random.Random) -> list:
    def either(lab):
        return "p" in lab or "q" in lab

    def has_q(lab):
        return "q" in lab

    queries = [
        Query("lift-fixed-window", "fixed", LIFT_TEXT, "G[<=y] (p | q)", {"holds": True},
              valuation={"y": 10000}, anchor={"fixed_explored": 19997}),
        Query("lift-min-min", "optimize", LIFT_TEXT, LIFT_RESPONSE,
              {"status": "optimal", "value": 3}, objective="min-min",
              anchor={"value": 3, "probes": 14}),
        Query("lift-max-max", "optimize", LIFT_TEXT, "G[<=y] q",
              {"status": "optimal", "value": 2}, objective="max-max",
              anchor={"value": 2, "probes": 12, "bound": 2330}),
    ]

    # A budget search explores about (states that avoid the violation) x
    # budget nodes when every state is entered at positive cost and a
    # self-loop of cost 1 lets it burn budget one unit at a time; chords
    # would make the avoiding share vary with the seed.  "q,q,p" keeps
    # `p | q` on every state, so the window check holds and explores its
    # whole budget; `G[<=y] q` fails at the p state.  Each ring enters its
    # states at the costs 1, 2, 3, 1, 2, 3, ... in a seeded order, and every
    # self-loop costs 1: the explored counts hardly depend on the costs, but
    # time and memory do, by up to a third between seeds.
    def balanced(g):
        ring_costs = sorted(vec[0] for i, edges in enumerate(g.out) for j, vec in edges if j != i)
        loop_costs = {vec[0] for i, edges in enumerate(g.out) for j, vec in edges if j == i}
        return ring_costs == sorted(i % 3 + 1 for i in range(len(g.out))) and loop_costs == {1}

    def ring(n, pattern, accept=lambda g: True):
        return sample(
            lambda: ring_system(rng, n, 0, pattern, loops=True, positive_share=1.0),
            lambda g: balanced(g) and accept(g),
        )

    # The p state of a "q,q,q,q,p" ring is VIOLATION_COST away from s0, so
    # the optimizer probes the same values in every seed.
    def at_violation_cost(g):
        return violation_distance(g, has_q) == VIOLATION_COST

    for k in range(BUDGET_COPIES):
        g = ring(5, "q,q,q,q,p", at_violation_cost)
        queries.append(Query(f"forall-q-5-{k}", "forall", g.text(), "G[<=y] q",
                             {"holds": violation_distance(g, has_q) is None}))
        g = ring(5, "q,q,q,q,p", at_violation_cost)
        status, value = greatest_window(g, has_q)
        queries.append(Query(f"max-min-5-{k}", "optimize", g.text(), "G[<=y] q",
                             {"status": status, "value": value}, objective="max-min"))
        # A response ring has no self-loops: a loop on a request state would
        # never grant it.
        g = ring_system(rng, 5, 0, "q,,p")
        queries.append(Query(f"min-max-5-{k}", "optimize", g.text(), LIFT_RESPONSE,
                             {"status": "optimal", "value": response_need(g, "q", "p")},
                             objective="min-max"))
    # The window checks take about as long as the min-max queries, so the
    # median query is one of many seeded instances and does not hinge on
    # one seed's; latency_tail_s falls among the forall, max-min and lift
    # window queries, 21 runs in three passes.
    for k in range(WINDOW_COPIES):
        for n, y in ((4, 2000), (6, 1350), (8, 1000)):
            g = ring(n, "q,q,p")
            queries.append(Query(f"fixed-window-{n}-{k}", "fixed", g.text(), "G[<=y] (p | q)",
                                 {"holds": violation_distance(g, either) is None},
                                 valuation={"y": y}))
    return queries


_BUILDERS = {
    "product-heavy": _product_heavy,
    "budget-heavy": _budget_heavy,
}


def build(workload: str, seed: int) -> list:
    """The workload's query set for this seed (same seed, same queries)."""
    return _BUILDERS[workload](random.Random(f"{workload}:{seed}"))
