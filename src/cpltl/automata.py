"""Buchi automata for plain and cost-bounded formulas.

Two automata live here, built on one tableau expansion (_expand) over the
interned closure of a formula.  ltl_to_nba translates a variable-free
formula in negation normal form into a nondeterministic Buchi automaton
whose guards are conjunctions of literals.  CostBuchiAutomaton is an
acceptor for formulas with cost-bounded operators; its letters are pairs
of a proposition set and a cost vector, and its states carry the cost
each budget token has spent, which stays outside the expansion.  It is
built once per formula: nothing in it depends on a valuation, which a
search hands to `successors` only as the budgets it compares against.

find_accepting_lasso decides generalized Buchi emptiness of a graph
spanned on the fly; the model checks run it over their products.
"""

from __future__ import annotations

import sys
from collections import deque
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

from .formula import (
    And,
    Atom,
    FLe,
    Formula,
    FormulaError,
    GLe,
    NegAtom,
    Next,
    Or,
    Release,
    Until,
    fold,
    is_ff,
    is_tt,
    rebuild,
    repr_step,
    simplify_constants,
    subformulas,
    validate_coords,
    var_profile,
)
from .record import Record

# A guard is a conjunction of literals: a frozenset of (name, polarity).
Guard = frozenset


class AutomatonError(RuntimeError):
    """Internal consistency failure while building or checking automata."""


def guard_holds(guard: Guard, props: frozenset) -> bool:
    return all((name in props) == positive for name, positive in guard)


def guard_text(guard: Guard) -> str:
    if not guard:
        return "tt"
    parts = []
    for name, positive in sorted(guard):
        parts.append(name if positive else "!" + name)
    return " & ".join(parts)


class BuchiAutomaton(Record):
    """Nondeterministic Buchi automaton with literal-conjunction guards.

    A letter is read on each transition; a run on w = w0 w1 ... is a state
    sequence q0 q1 ... with q0 = initial and an edge (guard, q_{n+1}) out of
    q_n whose guard holds on w_n.  Acceptance: some state in `accepting` is
    visited infinitely often.  `transitions[q]` holds q's edges as
    (guard, destination) pairs.
    """

    __slots__ = __match_args__ = ("states", "initial", "transitions", "accepting")

    @property
    def n_states(self) -> int:
        return len(self.states)

    def edges(self):
        for src in self.states:
            for guard, dst in self.transitions[src]:
                yield src, guard, dst

    def n_edges(self) -> int:
        return sum(len(self.transitions[q]) for q in self.states)


def _empty_nba() -> BuchiAutomaton:
    return BuchiAutomaton(
        states=("q0",), initial="q0", transitions={"q0": ()}, accepting=frozenset()
    )


def _interned(phi: Formula) -> tuple:
    """phi with equal subformulas shared as one object, so that set and dict
    lookups hit on identity, and its closure: the distinct nodes in the
    order of their `repr` text."""
    canon: dict = {}

    def step(node: Formula, kids: list) -> tuple:
        key = repr_step(node, [text for _, text in kids])
        if key not in canon:
            canon[key] = rebuild(node, [shared for shared, _ in kids])
        return canon[key], key

    phi, _ = fold(phi, step)
    return phi, [canon[key] for key in sorted(canon)]


# Expansion rules of the tableau.  The budget automaton adds three kinds: a
# bare F[<=]/G[<=] node forwards to its fresh token, an F token may be
# delayed, and a G token carries over.
_TT, _FF, _LIT, _NEXT, _AND, _OR, _UNTIL, _RELEASE = range(8)
_FORWARD, _F_TOKEN, _G_TOKEN = range(8, 11)
_RULE = {
    Atom: _LIT, NegAtom: _LIT, Next: _NEXT, And: _AND, Or: _OR, Until: _UNTIL,
    Release: _RELEASE, FLe: _FORWARD, GLe: _FORWARD,
}


def _rules(nodes: Sequence, index: Mapping) -> tuple:
    """The rules per closure node, by index: (rule, a, b), then two token
    slots per node; and the literals, (name, polarity) -> index.  A
    literal's `a` is the bit of the opposite literal (0 when it does not
    occur); Next has its child in `a`; the binary connectives their arms
    in `a` and `b`.  Of n nodes, an F[<=]/G[<=] node at index i forwards to
    its fresh token at i + n, and its fresh token and its carried one at
    i + 2n hold the operator's child in `a` and i in `b`."""
    n = len(nodes)
    rules = [(None, -1, -1)] * (3 * n)
    literals = {}
    for i, f in enumerate(nodes):
        kind = _RULE[type(f)]
        if kind == _LIT:
            literals[f.name, type(f) is Atom] = i
        elif kind == _NEXT:
            rules[i] = (_NEXT, index[f.child], -1)
        elif kind == _FORWARD:
            token = _G_TOKEN if type(f) is GLe else _F_TOKEN
            rules[i] = (_FORWARD, i + n, -1)
            rules[i + n] = rules[i + 2 * n] = (token, index[f.child], i)
        elif kind == _OR and is_tt(f):
            rules[i] = (_TT, -1, -1)
        elif kind == _AND and is_ff(f):
            rules[i] = (_FF, -1, -1)
        else:
            rules[i] = (kind, index[f.left], index[f.right])
    for (name, positive), i in literals.items():
        opposite = literals.get((name, not positive))
        rules[i] = (_LIT, 0 if opposite is None else 1 << opposite, -1)
    return rules, literals


def _expand(seed: list, rules: Sequence, fits: int, shift: int) -> list:
    """The distinct cores (old, next) that a seed expands into, in the order
    the depth-first expansion completes them.  A set of closure nodes is a
    bitmask over their indices.

    The tokens whose bit is set in `fits` may be carried into the next
    core: a G token then is, and an F token may instead be delayed.  A
    branch that delays the Until at index i, or an F token of the operator
    at index i, sets bit i + shift of its next-set; with shift 0 that is
    the Until's own bit."""
    cores: dict = {}
    pending = [(seed, 0, 0)]
    while pending:
        new, old, nxt = pending.pop()
        alive = True
        while new:
            f = new.pop()
            bit = 1 << f
            if old & bit:
                continue
            kind, a, b = rules[f]
            if kind == _TT:
                continue
            if kind == _FF or (kind == _LIT and old & a):
                alive = False
                break
            old |= bit
            if kind == _NEXT:
                nxt |= 1 << a
            elif kind == _AND:
                new.append(a)
                new.append(b)
            elif kind == _OR:
                pending.append((new + [b], old, nxt))
                new.append(a)
            elif kind == _UNTIL:
                pending.append((new + [a], old, nxt | bit | bit << shift))
                new.append(b)
            elif kind == _RELEASE:
                pending.append((new + [b], old, nxt | bit))
                new.append(a)
                new.append(b)
            elif kind == _FORWARD:
                new.append(a)
            elif kind == _F_TOKEN:
                if fits & bit:
                    pending.append((new[:], old, nxt | bit | 1 << (b + shift)))
                new.append(a)
            elif kind == _G_TOKEN:
                if fits & bit:
                    nxt |= bit
                new.append(a)
        if alive:
            cores[(old, nxt)] = None
    return list(cores)


def _members(mask: int) -> list:
    """The indices of the set bits of `mask`, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def ltl_to_nba(phi: Formula) -> BuchiAutomaton:
    """Translate a variable-free formula into a Buchi automaton.

    Tableau expansion over the formula's closure gives a generalized Buchi
    automaton with one acceptance set per Until; of the cores a next-set
    expands into, only the undominated ones become nodes (_undominated,
    after Gastin and Oddoux 2001).  One SCC pass over the tableau decides
    which nodes can still reach a cycle through every set (Couvreur 1999);
    only those nodes are degeneralized into (node, layer) states, and
    _merge then folds states with identical futures.  Exact on ultimately
    periodic words: the automaton accepts w exactly when f holds on w.
    Each stage runs in its own helper, so its tables are freed once the
    next stage is built.

    Dropping dominated cores keeps the language.  Say core c' is at most
    core c when c' has a subset of c's old, a subset of c's next-set, and
    lies in every Until's acceptance set that c lies in.  For any core c
    of a next-set N and any N' within N, the expansion of N' has a core
    c'' at most c: follow c's branch choices, taking the fulfilling branch
    at each Until whose right argument c holds.  Every node that branch
    meets is in c's old, so its literals agree with c's, its Next nodes
    put their children into c's next-set, and an Until it holds owes only
    where c owes it.  Being at most is a partial order on distinct cores,
    so some undominated core of N' is at most c''.  Now take an accepting
    run c0 c1 ... of the tableau without pruning.  The pruned tableau has
    a run d0 d1 ... on the same word with each d_i at most c_i: d_{i+1}
    comes from the expansion of d_i's next-set, a subset of c_i's.  Its
    guards are weaker, and it lies in every acceptance set c_i lies in,
    so it is accepting too.  The pruned tableau is a sub-automaton of the
    full one, so it accepts no more either.  Without the acceptance
    condition the order is wrong: in G (a & X (a U b)) the core that owes
    `a U b` has a smaller old than the one that fulfils it and the same
    next-set, and keeping only it leaves no accepting run.
    """
    profile = var_profile(phi)
    if profile.variables:
        raise FormulaError(
            "automaton translation needs a variable-free formula; "
            "substitute a valuation or eliminate bounded operators first"
        )
    phi = simplify_constants(phi)
    if is_ff(phi):
        return _empty_nba()
    # Closure nodes are numbered in `repr` order, so sorting a set of
    # indices orders its formulas by their `repr` text.
    phi, nodes = _interned(phi)
    index = {f: i for i, f in enumerate(nodes)}
    rules, literals = _rules(nodes, index)
    layered = _layered(1 << index[phi], rules, literals)
    if layered is None:
        return _empty_nba()
    return _merge(*layered)


def _tableau(start: int, rules: Sequence, literals: dict, untils: list) -> tuple:
    """The tableau grown from the next-set `start`, as per-node guards,
    per-node acceptance masks and out-nodes.

    Nodes are numbered by their (old, nxt) cores.  Source -1 denotes the
    run start.  A node's successors depend only on its next-set, so each
    distinct next-set is expanded once, into its undominated cores (see
    ltl_to_nba); a new node's successors are walked before its parent's
    remaining ones, which fixes the node numbering.  Every edge into node r
    carries r's guard, so a node's out-edges are its successor nodes,
    listed in ascending order."""
    node_old: list = []
    out_nodes: dict = {-1: []}
    by_core: dict = {}
    expanded: dict = {}

    def successors(nxt: int) -> list:
        cores = expanded.get(nxt)
        if cores is None:
            cores = _expand(_members(nxt), rules, 0, 0)
            cores = expanded[nxt] = _undominated(cores, untils, len(rules))
        return cores

    walk = [(-1, iter(successors(start)))]
    while walk:
        src, todo = walk[-1]
        for core in todo:
            idx = by_core.setdefault(core, len(node_old))
            out_nodes[src].append(idx)
            if idx == len(node_old):
                node_old.append(core[0])
                out_nodes[idx] = []
                walk.append((idx, iter(successors(core[1]))))
                break
        else:
            walk.pop()
    for targets in out_nodes.values():
        targets.sort()

    bits = [(1 << f, lit) for lit, f in literals.items()]
    guards = [frozenset(lit for bit, lit in bits if old & bit) for old in node_old]
    # One acceptance set per Until, holding the nodes that do not owe it or
    # fulfil it here, kept as a bitmask per node.
    masks = [0] * len(node_old)
    for j, (f, right) in enumerate(untils):
        owes = 1 << f
        fulfils = 1 << right
        for r, old in enumerate(node_old):
            if not old & owes or old & fulfils:
                masks[r] |= 1 << j
    return guards, masks, out_nodes


def _undominated(cores: list, untils: list, width: int) -> list:
    """The cores no other core dominates, in their order.  A core (old',
    nxt') dominates (old, nxt) when old' is a subset of old, nxt' of nxt,
    and the Untils that old' owes, holding the Until and not its right
    argument, are a subset of those old owes.  Cores are keyed by
    old | nxt << width, and a dominating core's key is a strict subset, so
    it has fewer bits.  Domination is transitive, so scanning by ascending
    bit count, a core need only be compared with the kept cores of fewer
    bits."""
    if len(cores) < 2:
        return cores
    olds = {old | nxt << width: old for old, nxt in cores}
    owed: dict = {}

    def owes(key: int) -> int:
        out = owed.get(key)
        if out is None:
            old = olds[key]
            out = 0
            for f, right in untils:
                if old >> f & 1 and not old >> right & 1:
                    out |= 1 << f
            owed[key] = out
        return out

    kept: list = []
    level: list = []
    size = -1
    for key in sorted(olds, key=int.bit_count):
        if key.bit_count() != size:
            kept += level
            level = []
            size = key.bit_count()
        outside = ~key
        for small in kept:
            if not small & outside and not owes(small) & ~owes(key):
                break
        else:
            level.append(key)
    keep = set(kept + level)
    return [core for core, key in zip(cores, olds) if key in keep]


def _layered(start: int, rules: Sequence, literals: dict) -> Optional[tuple]:
    """The degeneralized tableau's live part, as (states, initial state,
    transitions, accepting states), or None when it accepts no run."""
    untils = [(f, b) for f, (kind, _, b) in enumerate(rules) if kind == _UNTIL]
    guards, masks, out_nodes = _tableau(start, rules, literals, untils)
    n = len(guards)
    if n == 0:
        return None

    # If some node behaves exactly like the run start, use it as the initial
    # state instead of keeping a separate start state.
    init_node = -1
    for r in range(n):
        if out_nodes[r] == out_nodes[-1]:
            init_node = r
            break

    # A node is live when it reaches a cyclic component whose masks cover
    # every set: (node, layer) then has an accepting run for every layer,
    # and otherwise for none.  Components complete in reverse topological
    # order, so successors outside a component are decided before it.
    k = len(untils)
    full = (1 << k) - 1
    live = [False] * n
    for members, cyclic in _sccs(range(n), out_nodes.__getitem__):
        cover = 0
        for r in members:
            cover |= masks[r]
        if (cyclic and cover == full) or any(
            live[s] for r in members for s in out_nodes[r]
        ):
            for r in members:
                live[r] = True
    if not any(live[r] for r in out_nodes[-1]):
        return None

    # Degeneralize: the layer names the set a run waits for, and advances
    # when the run leaves a node in it.  A pair (node, layer) is keyed
    # node * width + layer.  The breadth-first search numbers the live
    # pairs in the order it discovers them; edges into dead pairs are
    # dropped.
    width = k or 1
    start = init_node * width
    names: dict = {start: "q0"}
    queue = deque([start])
    transitions: dict = {}
    accepting = set()
    while queue:
        pair = queue.popleft()
        node, layer = divmod(pair, width)
        passed = node != -1 and (k == 0 or masks[node] >> layer & 1)
        if passed and layer == 0:
            accepting.add(names[pair])
        succ_layer = (layer + 1) % width if passed else layer
        edges = []
        for target in out_nodes[node]:
            if live[target]:
                succ = target * width + succ_layer
                if succ not in names:
                    names[succ] = f"q{len(names)}"
                    queue.append(succ)
                edges.append((guards[target], names[succ]))
        transitions[names[pair]] = tuple(edges)
    return tuple(names.values()), "q0", transitions, accepting


def _merge(states, initial, transitions, accepting) -> BuchiAutomaton:
    """Merge states with identical acceptance and outgoing edges, keeping
    the first of each class; this preserves the language."""
    rename = {q: q for q in states}
    changed = True
    while changed:
        changed = False
        signature: dict = {}
        for q in states:
            if rename[q] != q:
                continue
            key = (
                q in accepting,
                frozenset((g, rename[dst]) for g, dst in transitions[q]),
            )
            owner = signature.get(key)
            if owner is None:
                signature[key] = q
            else:
                rename[q] = owner
                changed = True
        if changed:
            for q in states:
                root = rename[q]
                while rename[root] != root:
                    root = rename[root]
                rename[q] = root
    final_states = tuple(q for q in states if rename[q] == q)
    final_trans = {
        q: tuple(dict.fromkeys((g, rename[dst]) for g, dst in transitions[q]))
        for q in final_states
    }
    return BuchiAutomaton(
        states=final_states,
        initial=rename[initial],
        transitions=final_trans,
        accepting=frozenset(q for q in accepting if rename[q] == q),
    )


def find_accepting_lasso(
    initial,
    successors: Callable,
    acceptance: Callable,
    full: int,
    low=None,
) -> Optional[tuple]:
    """Find a reachable cycle that visits every acceptance set.

    Generalized Buchi acceptance: `acceptance(v)` is the bitmask of the
    sets node v belongs to (a bool counts as set 1), and a cycle is fair
    when the masks of its nodes cover `full` (any cycle when `full` is 0,
    and then the prefix ends at any member).  The graph is spanned on the
    fly by `successors`.  One SCC pass decides: it stops at the first
    completed component that is cyclic and whose members' masks cover
    `full`, and None means there is none.  Only then is a lasso built from
    that component, as (prefix, loop) node lists: prefix is a shortest path
    from the initial node up to but not including a member holding the
    lowest set, and loop starts at that member.  From there, while some
    set is not yet covered, the loop takes a shortest path inside the
    component to a member holding the lowest such set, and it closes with a
    shortest path back (the wrap edge loop[-1] -> loop[0] is implicit).
    `acceptance` is asked only by the decision pass; `low` is _sccs's.
    """
    for members, cyclic in _sccs((initial,), successors, low):
        if cyclic:
            masks = [acceptance(v) for v in members]
            cover = 0
            for mask in masks:
                cover |= mask
            if cover & full == full:
                break
    else:
        return None
    mask_of = dict(zip(members, masks))

    def holding(bit: int) -> set:
        return {v for v, mask in mask_of.items() if mask & bit == bit}

    path = _shortest_path((initial,), successors, holding(full & -full))
    head = path[-1]
    loop = [head]
    missing = full & ~mask_of[head]
    while missing:
        goal = holding(missing & -missing)
        leg = _shortest_path(successors(loop[-1]), successors, goal, mask_of)
        for v in leg:
            missing &= ~mask_of[v]
        loop += leg
    back = _shortest_path(successors(loop[-1]), successors, {head}, mask_of)
    return path[:-1], loop + back[:-1]


def _shortest_path(sources, successors: Callable, goal, inside=None) -> list:
    """Nodes of a shortest path from one of `sources` to a node in `goal`,
    by a breadth-first search that stops at the first goal node it reaches
    and, when `inside` is given, only visits nodes in it.  Ties go to the
    earlier source, then to the earlier successor."""
    parent = dict.fromkeys(v for v in sources if inside is None or v in inside)
    queue = deque(parent)
    end = next((v for v in parent if v in goal), None)
    while end is None:
        if not queue:
            raise AutomatonError("no path from the sources to the goal")
        u = queue.popleft()
        for w in successors(u):
            if w in parent or (inside is not None and w not in inside):
                continue
            parent[w] = u
            if w in goal:
                end = w
                break
            queue.append(w)
    path = []
    while end is not None:
        path.append(end)
        end = parent[end]
    path.reverse()
    return path


# Low value of a node whose component is complete (see _sccs).
_FINISHED = sys.maxsize


def _sccs(roots: Iterable, successors: Callable, low=None) -> Iterator:
    """Iterative Tarjan SCC over the nodes reachable from `roots`.

    Yields (members, cyclic) as each component completes, in reverse
    topological order; `cyclic` is True when the component has an edge
    (more than one member, or a self-loop).  The graph is spanned on the
    fly by `successors`, so a caller that stops early explores no further.

    Each DFS frame holds its node, its successors, an iterator over them
    and the node's index.  A finished node's low value is set past every
    index, so it never lowers another's and no on-stack set is needed.
    The low values live in `low`, a dict keyed by node unless a list of
    None is given, indexed by nodes numbered below its length.
    """
    low = {} if low is None else low
    lookup = low.get if isinstance(low, dict) else low.__getitem__
    counter = 0
    stack: list = []
    for root in roots:
        if lookup(root) is not None:
            continue
        low[root] = counter
        counter += 1
        stack.append(root)
        out = successors(root)
        work = [(root, out, iter(out), low[root])]
        while work:
            node, out, children, number = work[-1]
            here = low[node]
            for w in children:
                reach = lookup(w)
                if reach is None:
                    low[node] = here
                    low[w] = reach = counter
                    counter += 1
                    stack.append(w)
                    out = successors(w)
                    work.append((w, out, iter(out), reach))
                    break
                if reach < here:
                    here = reach
            else:
                work.pop()
                low[node] = here
                if work:
                    parent = work[-1][0]
                    if here < low[parent]:
                        low[parent] = here
                if here != number:
                    continue
                members = []
                while True:
                    w = stack.pop()
                    low[w] = _FINISHED
                    members.append(w)
                    if w == node:
                        break
                yield members, len(members) > 1 or node in out


# --- cost automaton ---------------------------------------------------------


class _Shape:
    """A core without its spent costs: the closure indices of its plain
    obligations (`seed`) and of its budgeted operators holding a token,
    F[<=] before G[<=] (`slots`), each group by closure rank.  `heads`
    and `tail` make the core's sort key, and the kinds in `heads` give
    `dominates` its order.  `coords` holds the cost coordinate each
    operator reads."""

    __slots__ = ("coords", "heads", "tail", "seed", "slots")

    def __init__(self, seed: tuple, slots: tuple, auto: "CostBuchiAutomaton"):
        ops, ranks = auto._ops, auto._ranks
        self.coords = tuple(ops[i][1] for i in slots)
        self.heads = tuple(("G" if ops[i][0] else "F", ranks[i]) for i in slots)
        self.tail = [("f", ranks[i]) for i in seed]
        self.seed = seed
        self.slots = slots


def _spent(recipe: tuple, spent: tuple, cost: tuple) -> tuple:
    """The next core's spent costs from the current core's `spent` and
    the letter's `cost`."""
    out = []
    for src, coord in recipe:
        if coord is None:
            out.append(0)
        elif src is None:
            out.append(cost[coord])
        else:
            out.append(spent[src] + cost[coord])
    return tuple(out)


class CostBuchiAutomaton:
    """Acceptor for formulas with cost-bounded operators, built once per
    formula and dimension and shared by every valuation.

    Letters are (props, cost vector) pairs as found on cost traces.  States
    are cores, (shape id, spent) pairs: the set of obligations holding at
    the current position.  The shape holds the obligations without their
    budgets, and `spent` gives each budgeted F[<=]/G[<=] operator of the
    shape the cost its token has spent; the valuation's budget less that
    is what the token has left.  Acceptance is generalized Buchi on the
    moves, one set per tracked least-fixpoint obligation (Until and F[<=]
    nodes): a move's `ok` mask holds the tracked obligations it did not
    delay, and a run is accepting when each of them is undelayed
    infinitely often.

    Nothing in the closure, its expansion rules, the shapes or the move
    templates depends on the valuation: a valuation is only the budgets
    that `successors` reads, which `budgets` computes once per search.

    Shapes are expanded by `_expand`, over the closure of n nodes in
    `repr` order.  A budgeted operator at index i has two token slots:
    its fresh token at i + n, which has spent nothing, and its carried
    token at i + 2n, which has spent what the current core's token has;
    the bare operator forwards to its fresh token.  A core token that has
    spent nothing is seeded as the fresh one, so the expansion meets the
    two once.  The letter fixes each literal to true or false and, with
    the budgets' comparisons, which tokens' costs fit their budgets.  A
    branch that delays the Until or F[<=] node at index i sets bit i + 3n
    of its next-set, from which `_settle` reads the move's `ok` mask.

    A template holds the moves of every core of one shape under one
    letter, as (next shape id, spent recipe, ok) triples from one
    `_expand`.  The expansion reads the budgets and the letter's costs
    only through comparisons.  For the core's tokens, whether the spent
    cost plus the letter's fits the budget and whether the token has
    spent nothing are the template's `flags`; which fresh tokens' costs
    fit their budgets is its `fresh` mask.  With both and the letter's
    propositions in the key, a template holds for every valuation and
    every cost vector that give the same key.  Its recipes hold no
    number: the search adds the letter's cost in (`_spent`).

    A search runs on flat nodes (x, shape id, spent, ok), a state prefixed
    with a position x of the run (a system state, a trace slot) and
    followed by the `ok` mask of the move that entered it (0 at the start
    node), which is the node's acceptance mask (`acceptance`).  The moves
    of a cyclic component of the search graph are exactly the moves into
    its members, so the component holds a fair cycle exactly when its
    members' masks cover `full` (find_accepting_lasso).

    `successors` expands a whole node in one call, along every out-edge
    of x at once.  A core's moves depend on a token's spent cost only
    through `spent + cost <= budget` and `spent == 0`, so each obligation
    shape is expanded once per letter's propositions and outcome of those
    comparisons.  A node is expanded from the templates directly: the
    letter's cost is only added and compared.

    `dominates` orders the nodes of one (x, shape, ok) key: a dominates
    n when each F[<=] token in a has spent at most what n's has and each
    G[<=] token at least.  A dominating node accepts every run that n
    accepts, so a search may stand a node in for the nodes it dominates.
    Why.  Say a covers n when they share x, and each obligation of a's
    core is one of n's: the same plain obligation, an F[<=] token of the
    same operator that has spent at most n's, or a G[<=] token that has
    spent at least n's.  a has no more obligations than n to meet.  Then
    a can mirror each move of n along the same edge: it makes the same
    choices for the obligations it shares with n.  An F token n may delay
    (spent + cost <= budget) a may delay too, and a G token only expires
    sooner in a.  Both add the letter's cost to what they spent, and
    `_settle` merges tokens of one operator by the largest spent (F) and
    the smallest (G), a token that has spent nothing with the operator's
    fresh token; all three are monotone, so the next core of a covers
    n's.  a meets a subset of n's pending items, so it delays a subset of
    n's tracked obligations and its `ok` mask contains n's.  Domination
    within a key is a special case of covering, and covering is
    transitive.  So take an accepting run n0 n1 ... and a graph whose
    successors of a node replace each successor by a dominating node of
    its key, which has the same mask: from q0 = n0 it has a path q0 q1 ...
    with each q_i covering n_i and each q_i's mask containing n_i's.
    Every tracked obligation is then undelayed infinitely often along the
    path: if that graph is finite, the nodes the path visits infinitely
    often lie in one cyclic component whose masks cover `full`.
    """

    def __init__(self, phi: Formula, d: int):
        validate_coords(phi, d)
        phi, nodes = _interned(simplify_constants(phi))
        self.d = d
        self.tracked = tuple(f for f in nodes if isinstance(f, (Until, FLe)))
        self.full = (1 << len(self.tracked)) - 1
        self._nodes = nodes
        index = {f: i for i, f in enumerate(nodes)}
        self._rules, self._literals = _rules(nodes, index)
        # `_settle` works on closure indices: `ok` sets are bitmasks over
        # the tracked obligations, by index, and each budgeted operator's
        # index gives (is G, cost coordinate).  Successors are ordered by
        # closure rank: a repr key would walk every formula again on each
        # expansion, recursing with its depth.
        self._bit = {index[f]: 1 << j for j, f in enumerate(self.tracked)}
        rank = {f: i for i, f in enumerate(subformulas(phi))}
        self._ranks = [rank[f] for f in nodes]
        self._ops = {
            i: (isinstance(f, GLe), f.coord - 1)
            for i, f in enumerate(nodes)
            if isinstance(f, (FLe, GLe))
        }
        # (fresh token's bit, cost coordinate, variable) per budgeted operator
        self._fresh = [
            (1 << a, f.coord - 1, f.var)
            for f, (kind, a, _) in zip(nodes, self._rules)
            if kind == _FORWARD
        ]
        self._shape_ids: dict = {}
        self.shapes: list = []
        self._templates: dict = {}
        self._letter_rules: dict = {}
        # The start core's shape id: its tokens have spent nothing.
        self.start = self._settle(1 << index[phi], ())[0]

    def budgets(self, valuation: Mapping) -> tuple:
        """What `successors` reads of `valuation`: the budget of each
        budgeted operator by closure index (0 at other nodes), and per
        budgeted operator (fresh token's bit, cost coordinate, budget).
        A variable the valuation leaves out has budget 0."""
        for var, value in valuation.items():
            if value < 0:
                raise FormulaError(f"negative budget for {var}: {value}")
        limits = [
            valuation.get(f.var, 0) if i in self._ops else 0
            for i, f in enumerate(self._nodes)
        ]
        fresh = [(bit, k, valuation.get(var, 0)) for bit, k, var in self._fresh]
        return limits, fresh

    def initial_state(self) -> tuple:
        sid = self.start
        return (sid, (0,) * len(self.shapes[sid].slots), 0)

    @staticmethod
    def acceptance(node) -> int:
        """The acceptance mask of a search node: its `ok` field."""
        return node[3]

    def _settle(self, nxt: int, slots: tuple) -> tuple:
        """(shape id, spent recipe, ok) of the next-set `nxt` of a core
        whose tokens' operators sit at the closure indices `slots`.  A
        token of the next core is bare (from a bare F/G obligation, spent
        0), fresh (spent the letter's cost on its operator's coordinate) or
        carried (the core token's spent plus that cost).  Tokens of one
        operator merge: F keeps the largest spent, G the smallest.  Spent
        costs and letter costs are never negative, so bare <= fresh <=
        carried under every letter, which is the order of their slots:
        the merge keeps the last slot listed for F and the first for G.
        The recipe gives per token (source core token or None, cost
        coordinate or None): its spent is the source's (0 without one)
        plus the letter's cost on the coordinate (0 without one).  `ok`
        holds the tracked obligations whose delay marker is not set."""
        n = len(self._nodes)
        ops_of = self._ops
        ranks = self._ranks
        plain = []
        slot_of: dict = {}
        ok = self.full
        # ascending, so the slots of one operator come in their order
        for m in _members(nxt):
            slot, i = divmod(m, n)
            if slot == 3:
                ok &= ~self._bit[i]
            elif slot or i in ops_of:
                if i not in slot_of or not ops_of[i][0]:
                    slot_of[i] = slot
            else:
                plain.append(i)
        ops = sorted(slot_of, key=lambda i: (ops_of[i][0], ranks[i]))
        recipe = tuple(
            (
                slots.index(i) if slot_of[i] == 2 else None,
                ops_of[i][1] if slot_of[i] else None,
            )
            for i in ops
        )
        plain.sort(key=ranks.__getitem__)
        key = (tuple(plain), tuple(ops))
        sid = self._shape_ids.get(key)
        if sid is None:
            sid = self._shape_ids[key] = len(self.shapes)
            self.shapes.append(_Shape(key[0], key[1], self))
        return sid, recipe, ok

    def template(
        self, sid: int, flags: tuple, fresh: int, props: frozenset
    ) -> tuple:
        """The moves shared by every core of shape `sid` whose tokens
        compare to the letter's costs as `flags` says, (fits, has spent
        nothing) per token, under a valuation whose fresh tokens' costs
        fit as the mask `fresh` says.  A core token that has spent nothing
        is seeded as the operator's fresh token, so the expansion meets it
        once."""
        key = (sid, flags, fresh, props)
        moves = self._templates.get(key)
        if moves is not None:
            return moves
        shape = self.shapes[sid]
        n = len(self._nodes)
        seed = list(shape.seed)
        fits = fresh
        for i, (fit, unspent) in zip(shape.slots, flags):
            if unspent:
                seed.append(i + n)
            else:
                seed.append(i + 2 * n)
                if fit:
                    fits |= 1 << (i + 2 * n)
        rules = self._letter_rules.get(props)
        if rules is None:
            rules = self._letter_rules[props] = list(self._rules)
            for (name, positive), i in self._literals.items():
                rules[i] = (_TT if (name in props) == positive else _FF, -1, -1)
        out: dict = {}
        for _, nxt in _expand(seed, rules, fits, 3 * n):
            out[self._settle(nxt, shape.slots)] = None
        moves = self._templates[key] = tuple(out)
        return moves

    def _order(self, node) -> tuple:
        """Sort key of the successors along one edge: the core's
        obligations as (kind, closure rank[, minus spent]) tuples in sorted
        order, then the indices of the move's tracked obligations that were
        not delayed."""
        _, sid, spent, ok = node
        shape = self.shapes[sid]
        core = [head + (-s,) for head, s in zip(shape.heads, spent)]
        return (
            core + shape.tail,
            [j for j in range(len(self.tracked)) if ok >> j & 1],
        )

    def dominates(self, sid: int, big: tuple, small: tuple) -> bool:
        """Do the spent costs `big` dominate `small` on shape `sid`: each
        F[<=] token's at most small's, each G[<=] token's at least?"""
        for (kind, _), b, s in zip(self.shapes[sid].heads, big, small):
            if b > s if kind == "F" else b < s:
                return False
        return True

    def successors(self, node, edges, budgets) -> list:
        """The successors of the search node (x, shape id, spent, ok) along
        x's out-edges `edges`, (y, props, cost) triples where props labels
        x and cost is the edge's, under `budgets` (from `budgets`): flat
        nodes (y, next shape id, next spent, the move's ok), in edge order
        and, per edge, in `_order` of the moves."""
        _, sid, spent, _ = node
        limits, fresh = budgets
        shape = self.shapes[sid]
        coords = shape.coords
        templates = self._templates
        # Nearly every expanded core has one budgeted operator (99.7% of
        # the expansions in the budget-heavy benchmark workload); building
        # its flags directly skips the generator.
        one = len(spent) == 1
        if one:
            used, coord = spent[0], coords[0]
            budget = limits[shape.slots[0]]
            unspent = used == 0
        else:
            caps = [limits[i] for i in shape.slots]
        out = []
        for y, props, cost in edges:
            if one:
                flags = ((used + cost[coord] <= budget, unspent),)
            else:
                flags = tuple(
                    (s + cost[k] <= b, s == 0)
                    for k, s, b in zip(coords, spent, caps)
                )
            fits = 0
            for bit, k, b in fresh:
                if cost[k] <= b:
                    fits |= bit
            template = templates.get((sid, flags, fits, props))
            if template is None:
                template = self.template(sid, flags, fits, props)
            # Only two or more moves can coincide or need ordering.
            if len(template) == 1:
                ((nsid, recipe, ok),) = template
                out.append((y, nsid, _spent(recipe, spent, cost), ok))
                continue
            moves = {
                (y, nsid, _spent(recipe, spent, cost), ok): None
                for nsid, recipe, ok in template
            }
            out.extend(sorted(moves, key=self._order))
        return out
