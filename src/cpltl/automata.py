"""Buchi automata for plain and cost-bounded formulas.

Two constructions live here.  ltl_to_nba translates a variable-free formula
in negation normal form into a nondeterministic Buchi automaton whose guards
are conjunctions of literals.  cost_nba builds an acceptor for formulas with
cost-bounded operators under a fixed valuation; its letters are pairs of a
proposition set and a cost vector, and its states carry budget remainders.

Membership of ultimately periodic words is decided by building the finite
product of an automaton with the word's slot graph and searching for a
reachable accepting cycle (find_accepting_lasso).  The slot layout of
those words (PropLasso, cost traces) is trace.Lasso.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Optional, Sequence

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
    atoms,
    closure,
    is_ff,
    is_tt,
    pretty_print,
    simplify_constants,
    validate_coords,
    var_profile,
)
from .trace import Lasso

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


@dataclass(frozen=True, eq=False)
class BuchiAutomaton:
    """Nondeterministic Buchi automaton with literal-conjunction guards.

    A letter is read on each transition; a run on w = w0 w1 ... is a state
    sequence q0 q1 ... with q0 = initial and an edge (guard, q_{n+1}) out of
    q_n whose guard holds on w_n.  Acceptance: some state in `accepting` is
    visited infinitely often.
    """

    states: tuple
    initial: str
    transitions: dict
    accepting: frozenset
    alphabet: frozenset

    @property
    def n_states(self) -> int:
        return len(self.states)

    def edges(self):
        for src in self.states:
            for guard, dst in self.transitions[src]:
                yield src, guard, dst

    def n_edges(self) -> int:
        return sum(len(self.transitions[q]) for q in self.states)


def _single_state_nba(alphabet: frozenset, universal: bool) -> BuchiAutomaton:
    edges = ((frozenset(), "q0"),) if universal else ()
    return BuchiAutomaton(
        states=("q0",),
        initial="q0",
        transitions={"q0": edges},
        accepting=frozenset(("q0",)) if universal else frozenset(),
        alphabet=alphabet,
    )


def _formula_key(phi: Formula) -> str:
    return repr(phi)


def ltl_to_nba(phi: Formula) -> BuchiAutomaton:
    """Translate a variable-free formula into a Buchi automaton.

    Tableau expansion over the formula's closure.  Exact on ultimately
    periodic words: nba_accepts_lasso(ltl_to_nba(f), w) agrees with
    evaluating f on w.
    """
    profile = var_profile(phi)
    if profile.variables:
        raise FormulaError(
            "automaton translation needs a variable-free formula; "
            "substitute a valuation or eliminate bounded operators first"
        )
    alphabet = atoms(phi)
    phi = simplify_constants(phi)
    if is_tt(phi):
        return _single_state_nba(alphabet, universal=True)
    if is_ff(phi):
        return _single_state_nba(alphabet, universal=False)

    # Tableau nodes: parallel lists of (old, nxt) cores and incoming sets.
    # Source -1 denotes the run start.
    node_old: list = []
    node_next: list = []
    node_incoming: list = []
    by_core: dict = {}
    pending = [({-1}, [phi], set(), set())]
    while pending:
        incoming, new, old, nxt = pending.pop()
        alive = True
        while new:
            f = new.pop()
            if f in old or is_tt(f):
                continue
            if is_ff(f):
                alive = False
                break
            if isinstance(f, Atom):
                if NegAtom(f.name) in old:
                    alive = False
                    break
                old.add(f)
            elif isinstance(f, NegAtom):
                if Atom(f.name) in old:
                    alive = False
                    break
                old.add(f)
            elif isinstance(f, Next):
                old.add(f)
                nxt.add(f.child)
            elif isinstance(f, And):
                old.add(f)
                new.append(f.left)
                new.append(f.right)
            elif isinstance(f, Or):
                old.add(f)
                pending.append((set(incoming), new + [f.right], set(old), set(nxt)))
                new.append(f.left)
            elif isinstance(f, Until):
                old.add(f)
                pending.append(
                    (set(incoming), new + [f.left], set(old), set(nxt) | {f})
                )
                new.append(f.right)
            elif isinstance(f, Release):
                old.add(f)
                pending.append(
                    (set(incoming), new + [f.right], set(old), set(nxt) | {f})
                )
                new.append(f.left)
                new.append(f.right)
            else:
                raise FormulaError(
                    "cost-bounded operator reached the plain translation: "
                    + pretty_print(f)
                )
        if not alive:
            continue
        core = (frozenset(old), frozenset(nxt))
        idx = by_core.get(core)
        if idx is not None:
            node_incoming[idx] |= incoming
            continue
        idx = len(node_old)
        by_core[core] = idx
        node_old.append(core[0])
        node_next.append(core[1])
        node_incoming.append(set(incoming))
        pending.append(
            ({idx}, sorted(core[1], key=_formula_key), set(), set())
        )

    n = len(node_old)
    if n == 0:
        return _single_state_nba(alphabet, universal=False)

    guards = []
    for old in node_old:
        lits = set()
        for f in old:
            if isinstance(f, Atom):
                lits.add((f.name, True))
            elif isinstance(f, NegAtom):
                lits.add((f.name, False))
        guards.append(frozenset(lits))

    out_edges: dict = {src: set() for src in range(-1, n)}
    for r in range(n):
        for q in node_incoming[r]:
            out_edges[q].add((guards[r], r))

    # If some node behaves exactly like the run start, use it as the initial
    # state instead of keeping a separate start state.
    init_node = -1
    for r in range(n):
        if out_edges[r] == out_edges[-1]:
            init_node = r
            break

    untils = sorted(
        (f for f in closure(phi) if isinstance(f, Until)), key=_formula_key
    )
    k = len(untils)
    fsets = []
    for f in untils:
        fsets.append(
            frozenset(
                r
                for r in range(n)
                if f not in node_old[r] or f.right in node_old[r]
            )
        )

    def next_layer(src: int, layer: int) -> int:
        if k == 0 or src == -1:
            return layer
        if src in fsets[layer]:
            return (layer + 1) % k
        return layer

    def meta_accepting(meta) -> bool:
        node, layer = meta
        if node == -1:
            return False
        if k == 0:
            return True
        return layer == 0 and node in fsets[0]

    def edge_sort_key(edge):
        guard, target = edge
        return (target, tuple(sorted(guard)))

    start = (init_node, 0)
    names: dict = {start: "q0"}
    order = [start]
    queue = deque([start])
    meta_edges: dict = {}
    while queue:
        meta = queue.popleft()
        node, layer = meta
        succ_layer = next_layer(node, layer)
        edges = []
        for guard, target in sorted(out_edges[node], key=edge_sort_key):
            succ = (target, succ_layer)
            if succ not in names:
                names[succ] = f"q{len(names)}"
                order.append(succ)
                queue.append(succ)
            edges.append((guard, succ))
        meta_edges[meta] = tuple(edges)

    transitions = {
        names[meta]: tuple((g, names[succ]) for g, succ in meta_edges[meta])
        for meta in order
    }
    accepting = frozenset(names[meta] for meta in order if meta_accepting(meta))
    return _trim(
        tuple(names[meta] for meta in order),
        "q0",
        transitions,
        accepting,
        alphabet,
    )


def _trim(states, initial, transitions, accepting, alphabet) -> BuchiAutomaton:
    """Drop states that cannot contribute to an accepting run, then merge
    states with identical acceptance and outgoing edges.  Both steps
    preserve the language."""
    adj = {q: tuple(dst for _, dst in transitions[q]) for q in states}
    sccid, cyclic = _tarjan(states, adj)
    fair = {
        sccid[q] for q in states if q in accepting and cyclic[sccid[q]]
    }
    reverse: dict = {q: [] for q in states}
    for q in states:
        for dst in adj[q]:
            reverse[dst].append(q)
    live = {q for q in states if sccid[q] in fair}
    queue = deque(live)
    while queue:
        q = queue.popleft()
        for src in reverse[q]:
            if src not in live:
                live.add(src)
                queue.append(src)
    if initial not in live:
        return _single_state_nba(alphabet, universal=False)
    keep = [initial]
    seen = {initial}
    queue = deque(keep)
    while queue:
        q = queue.popleft()
        for _, dst in transitions[q]:
            if dst in live and dst not in seen:
                seen.add(dst)
                keep.append(dst)
                queue.append(dst)
    trans = {
        q: tuple((g, dst) for g, dst in transitions[q] if dst in seen)
        for q in keep
    }
    acc = accepting & seen

    # collapse states whose futures are literally identical
    rename = {q: q for q in keep}
    changed = True
    while changed:
        changed = False
        signature: dict = {}
        for q in keep:
            if rename[q] != q:
                continue
            key = (
                q in acc,
                frozenset((g, rename[dst]) for g, dst in trans[q]),
            )
            owner = signature.get(key)
            if owner is None:
                signature[key] = q
            else:
                rename[q] = owner
                changed = True
        if changed:
            for q in keep:
                root = rename[q]
                while rename[root] != root:
                    root = rename[root]
                rename[q] = root
    final_states = tuple(q for q in keep if rename[q] == q)
    final_trans = {
        q: tuple(dict.fromkeys((g, rename[dst]) for g, dst in trans[q]))
        for q in final_states
    }
    return BuchiAutomaton(
        states=final_states,
        initial=rename[initial],
        transitions=final_trans,
        accepting=frozenset(rename[q] for q in acc if rename[q] == q),
        alphabet=alphabet,
    )


# --- lasso words over proposition sets -------------------------------------


@dataclass(frozen=True)
class PropLasso(Lasso[frozenset]):
    """Ultimately periodic word of proposition sets: prefix then loop."""

    error = AutomatonError

    @classmethod
    def of(cls, prefix: Iterable, loop: Iterable) -> "PropLasso":
        return cls(
            tuple(frozenset(p) for p in prefix),
            tuple(frozenset(p) for p in loop),
        )


def find_accepting_lasso(
    initial,
    successors: Callable,
    is_accepting: Callable,
) -> Optional[tuple]:
    """Find a reachable cycle through an accepting node.

    The graph is spanned on the fly by `successors`.  Returns (prefix, loop)
    as node lists, where prefix leads from the initial node up to but not
    including the loop head and loop is the cycle starting at its head (the
    wrap edge loop[-1] -> loop[0] is implicit).  Returns None when no
    accepting node lies on a reachable cycle.  Breadth-first exploration
    keeps both parts short.
    """
    adj: dict = {}
    parent: dict = {initial: None}
    bfs_order = [initial]
    queue = deque([initial])
    while queue:
        v = queue.popleft()
        succ = tuple(dict.fromkeys(successors(v)))
        adj[v] = succ
        for w in succ:
            if w not in parent:
                parent[w] = v
                bfs_order.append(w)
                queue.append(w)

    sccid, cyclic = _tarjan(bfs_order, adj)
    target = None
    for v in bfs_order:
        if cyclic[sccid[v]] and is_accepting(v):
            target = v
            break
    if target is None:
        return None

    path = []
    v = target
    while v is not None:
        path.append(v)
        v = parent[v]
    path.reverse()
    loop = _shortest_cycle(target, adj, sccid)
    return path[:-1], loop


def _tarjan(order: Sequence, adj: Mapping) -> tuple:
    """Iterative Tarjan SCC. Returns (node -> component id, cyclic flags)."""
    index: dict = {}
    low: dict = {}
    onstack: set = set()
    stack: list = []
    sccid: dict = {}
    cyclic: list = []
    counter = 0
    for root in order:
        if root in index:
            continue
        work = [(root, 0)]
        while work:
            node, ci = work.pop()
            if ci == 0:
                index[node] = low[node] = counter
                counter += 1
                stack.append(node)
                onstack.add(node)
            else:
                prev = adj[node][ci - 1]
                low[node] = min(low[node], low[prev])
            children = adj[node]
            descended = False
            for j in range(ci, len(children)):
                w = children[j]
                if w not in index:
                    work.append((node, j + 1))
                    work.append((w, 0))
                    descended = True
                    break
                if w in onstack:
                    low[node] = min(low[node], index[w])
            if descended:
                continue
            if low[node] == index[node]:
                comp = []
                while True:
                    w = stack.pop()
                    onstack.discard(w)
                    sccid[w] = len(cyclic)
                    comp.append(w)
                    if w == node:
                        break
                cyclic.append(len(comp) > 1 or comp[0] in adj[comp[0]])
    return sccid, cyclic


def _shortest_cycle(head, adj: Mapping, sccid: Mapping) -> list:
    """Shortest cycle through head, staying inside head's component."""
    comp = sccid[head]
    par: dict = {head: None}
    queue = deque([head])
    while queue:
        u = queue.popleft()
        if head in adj[u]:
            cycle = []
            v = u
            while v is not None:
                cycle.append(v)
                v = par[v]
            cycle.reverse()
            return cycle
        for w in adj[u]:
            if w not in par and sccid.get(w) == comp:
                par[w] = u
                queue.append(w)
    raise AutomatonError("component marked cyclic has no cycle")


def nba_accepts_lasso(auto: BuchiAutomaton, word: PropLasso) -> bool:
    """Membership of an ultimately periodic word."""

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

    found = find_accepting_lasso((0, auto.initial), successors, accepting)
    return found is not None


def buchi_empty(auto: BuchiAutomaton) -> Optional[PropLasso]:
    """Emptiness check. Returns None when the language is empty, otherwise
    an accepted lasso word (positive literals of the guards along a
    reachable accepting cycle), re-verified before being returned."""

    def successors(state):
        return [dst for _, dst in auto.transitions[state]]

    def accepting(state) -> bool:
        return state in auto.accepting

    found = find_accepting_lasso(auto.initial, successors, accepting)
    if found is None:
        return None
    prefix, loop = found
    letters = []
    for src, dst in Lasso(tuple(prefix), tuple(loop)).steps():
        guard = None
        for g, tgt in auto.transitions[src]:
            if tgt == dst:
                guard = g
                break
        if guard is None:
            raise AutomatonError("witness path uses a missing edge")
        letters.append(frozenset(name for name, positive in guard if positive))
    word = PropLasso(
        tuple(letters[: len(prefix)]), tuple(letters[len(prefix):])
    )
    if not nba_accepts_lasso(auto, word):
        raise AutomatonError("witness word rejected on re-check")
    return word


# --- cost automaton ---------------------------------------------------------


class CostBuchiAutomaton:
    """Acceptor for formulas with cost-bounded operators, fixed valuation.

    Letters are (props, cost vector) pairs as found on cost traces.  States
    are (core, layer): the core is a set of obligations holding at the
    current position, where F[<=]/G[<=] obligations carry their remaining
    budget; the layer cycles through the tracked least-fixpoint obligations
    (Until and F[<=] nodes) and reaches len(tracked) exactly when every one
    of them was discharged or absent since the last completion.
    """

    def __init__(self, phi: Formula, valuation: Mapping, d: int):
        validate_coords(phi, d)
        self.phi = simplify_constants(phi)
        self.valuation = dict(valuation)
        self.d = d
        for var, value in self.valuation.items():
            if value < 0:
                raise FormulaError(f"negative budget for {var}: {value}")
        self.tracked = tuple(
            sorted(
                (
                    f
                    for f in closure(self.phi)
                    if isinstance(f, (Until, FLe))
                ),
                key=_formula_key,
            )
        )
        self._tracked_set = frozenset(self.tracked)
        self._expand_cache: dict = {}

    def _full(self, f) -> int:
        return self.valuation.get(f.var, 0)

    def initial_state(self):
        return (self._normalize([("f", self.phi)]), 0)

    def is_accepting(self, state) -> bool:
        return not self.tracked or state[1] == len(self.tracked)

    def _normalize(self, items: Iterable) -> frozenset:
        """Canonical core: bare F/G obligations become full-budget tokens,
        duplicate F tokens keep the smallest remainder, G tokens the
        largest."""
        plain = set()
        fmin: dict = {}
        gmax: dict = {}
        for item in items:
            if item[0] == "f":
                f = item[1]
                if isinstance(f, FLe):
                    r = self._full(f)
                    fmin[f] = min(fmin.get(f, r), r)
                elif isinstance(f, GLe):
                    r = self._full(f)
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

    def _expand(self, core: frozenset, props: frozenset, cost: tuple) -> tuple:
        """All one-step resolutions of the obligations in `core` against the
        letter (props, cost).  Yields (next core, set of tracked obligations
        that were not delayed here)."""
        key = (core, props, cost)
        hit = self._expand_cache.get(key)
        if hit is not None:
            return hit
        out = set()
        stack = [(sorted(core, key=repr), set(), set(), set())]
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
                        (
                            pending + [("f", f.right)],
                            set(nxt),
                            set(delayed),
                            set(done),
                        )
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
                    pending.append(("F", f, self._full(f)))
                elif isinstance(f, GLe):
                    pending.append(("G", f, self._full(f)))
                else:
                    raise FormulaError(f"not a formula node: {f!r}")
            if alive:
                out.add(
                    (
                        self._normalize(nxt),
                        frozenset(self._tracked_set - delayed),
                    )
                )
        result = tuple(sorted(out, key=_core_sort_key))
        self._expand_cache[key] = result
        return result

    def _advance(self, layer: int, ok: frozenset) -> int:
        k = len(self.tracked)
        if k == 0:
            return 0
        j = 0 if layer == k else layer
        while j < k and self.tracked[j] in ok:
            j += 1
        return k if j == k else j

    def successors(self, state, props: frozenset, cost: tuple) -> list:
        core, layer = state
        result = []
        for nxt, ok in self._expand(core, props, cost):
            result.append((nxt, self._advance(layer, ok)))
        return result

    def accepts_trace(self, trace) -> bool:
        """Membership of a cost trace (from position 0)."""
        if trace.d != self.d:
            raise FormulaError(
                f"trace has {trace.d} cost coordinates, automaton expects {self.d}"
            )

        def successors(node):
            slot, state = node
            step = trace.letter_at_slot(slot)
            nxt_slot = trace.succ_slot(slot)
            return [
                (nxt_slot, succ)
                for succ in self.successors(state, step.props, step.cost)
            ]

        def accepting(node) -> bool:
            return self.is_accepting(node[1])

        found = find_accepting_lasso(
            (0, self.initial_state()), successors, accepting
        )
        return found is not None


def _core_sort_key(entry):
    core, _ = entry
    return tuple(sorted(repr(item) for item in core))


def cost_nba(phi: Formula, valuation: Mapping, d: int) -> CostBuchiAutomaton:
    """Budget automaton for phi under a fixed valuation over d coordinates."""
    return CostBuchiAutomaton(phi, valuation, d)
