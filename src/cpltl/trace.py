"""Lassos, cost-trace lassos, the reference semantics evaluator, and colorings.

`Lasso` is the one layout of an ultimately periodic word in the package:
cost traces here, system paths (system.LassoPath) and product witnesses
(modelcheck) all map positions to slots through it.  `Changepoints.blocks` is the one cut of a color
sequence into completed blocks; the coloring checks below and the
pumpable-witness code in modelcheck both use it.

A cost-trace is an ultimately periodic word of (propositions, step-cost)
pairs; the cost vector attached to a letter is the cost of the step
*leaving* that position.  Step costs are tied to the kappa propositions:
coordinate i of a step is positive exactly when kappa_i labels the next
position (position 0 itself is unconstrained).
"""

from __future__ import annotations

import math
from typing import Callable, ClassVar, Generic, Iterable, Mapping, Optional, Sequence, TypeVar

from .formula import (
    And,
    Atom,
    FLe,
    Formula,
    GLe,
    NegAtom,
    Next,
    Or,
    Release,
    Until,
    color_name,
    fold,
    kappa_name,
)
from .record import ValueRecord

Valuation = Mapping[str, int]


class TraceError(ValueError):
    """Malformed cost-trace or trace-file input."""


class CostLetter(ValueRecord):
    """A trace position: the propositions that hold there (a frozenset) and
    the cost vector of the step leaving it (a tuple)."""

    __slots__ = __match_args__ = ("props", "cost")


def letter(props: Iterable[str], *cost: int) -> CostLetter:
    return CostLetter(frozenset(props), tuple(cost))


T = TypeVar("T")


class Lasso(ValueRecord, Generic[T]):
    """Ultimately periodic word: a finite prefix, then a non-empty loop
    repeated forever, both tuples.

    Slots 0 .. n_slots-1 index prefix + loop.  Position n of the infinite
    word is slot n inside prefix + loop, and past it the loop slot that is
    congruent to n modulo the period.
    """

    __slots__ = __match_args__ = ("prefix", "loop")

    # Raised on an empty loop; each subclass names its module's error type.
    error: ClassVar[type[Exception]] = ValueError

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if not self.loop:
            raise self.error("loop must be non-empty")

    @property
    def n_slots(self) -> int:
        return len(self.prefix) + len(self.loop)

    def slot(self, position: int) -> int:
        if position < 0:
            raise self.error(f"position must be non-negative, got {position}")
        p = len(self.prefix)
        if position < p:
            return position
        return p + (position - p) % len(self.loop)

    def succ_slot(self, slot: int) -> int:
        nxt = slot + 1
        if nxt == self.n_slots:
            return len(self.prefix)
        return nxt

    def letter_at_slot(self, slot: int) -> T:
        p = len(self.prefix)
        if slot < p:
            return self.prefix[slot]
        return self.loop[slot - p]

    def letter(self, position: int) -> T:
        return self.letter_at_slot(self.slot(position))

    def unroll(self, n: int) -> list[T]:
        return [self.letter(i) for i in range(n)]

    def steps(self) -> list[tuple[T, T]]:
        """(letter, successor) for each slot: every consecutive pair of the
        infinite word, the loop seam included, exactly once."""
        return [
            (self.letter_at_slot(s), self.letter_at_slot(self.succ_slot(s)))
            for s in range(self.n_slots)
        ]


class CostTrace(Lasso[CostLetter]):
    """Lasso of cost letters over d cost coordinates."""

    __slots__ = ("d",)
    __match_args__ = ("prefix", "loop", "d")

    error = TraceError

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if self.d < 0:
            raise TraceError("dimension must be non-negative")
        for where, seq in (("prefix", self.prefix), ("loop", self.loop)):
            for idx, lt in enumerate(seq):
                if len(lt.cost) != self.d:
                    msg = f"{where} letter {idx}: cost arity {len(lt.cost)}, expected {self.d}"
                    raise TraceError(msg)
                if any(c < 0 for c in lt.cost):
                    msg = f"{where} letter {idx}: negative step cost"
                    raise TraceError(msg)
        for problem in kappa_violations(self):
            raise TraceError(problem)

    @classmethod
    def of(
        cls,
        prefix: Sequence[CostLetter],
        loop: Sequence[CostLetter],
        d: Optional[int] = None,
    ) -> "CostTrace":
        if d is None:
            pool = list(prefix) + list(loop)
            d = len(pool[0].cost) if pool else 0
        return cls(tuple(prefix), tuple(loop), d)

    def props_at(self, position: int) -> frozenset[str]:
        return self.letter(position).props

    def step_cost(self, position: int, coord: int) -> int:
        """Coordinate `coord` (1-based) of the step leaving `position`."""
        return self.letter(position).cost[coord - 1]

    def segment_cost(self, start: int, end: int, coord: int) -> int:
        """Summed step cost over positions start..end-1; 0 when end <= start."""
        return sum(self.step_cost(n, coord) for n in range(start, end))


def kappa_violations(trace: CostTrace) -> list[str]:
    """Cost/kappa consistency faults, empty when the trace is valid."""
    problems = []
    for n, (here, succ) in enumerate(trace.steps()):
        for i in range(1, trace.d + 1):
            has_kappa = kappa_name(i) in succ.props
            if (here.cost[i - 1] > 0) != has_kappa:
                want = "positive" if has_kappa else "zero"
                problems.append(
                    f"step from position {n}: coordinate {i} cost must be {want} "
                    f"(kappa{i} {'present' if has_kappa else 'absent'} at the next position)"
                )
    return problems


# --- semantics ------------------------------------------------------------


class TraceEvaluator:
    """Reference evaluator over a lasso for a fixed valuation.

    Truth at a position depends only on the position's slot, so `holds`
    folds the formula into one truth vector over the slots per distinct
    subformula.  U, R, F[<=] and G[<=] take their value at the first slot,
    at or after each slot, where their arguments settle them; one settled
    nowhere on the loop is false for U and F[<=] and true for R and G[<=].
    Evaluation takes time linear in the closure size times the number of
    slots, whatever the bounds.
    """

    def __init__(self, trace: CostTrace, valuation: Valuation, strict: bool = False):
        self.trace = trace
        self.valuation = dict(valuation)
        self.strict = strict
        self._letters = trace.prefix + trace.loop
        self._props = [lt.props for lt in self._letters]
        n, p = len(self._letters), len(trace.prefix)
        self._succ = [*range(1, n), p]
        # U, R, F[<=] and G[<=] are computed backward over the slots:
        # twice round the loop, so that its last slots see the values at
        # its start, then once over the prefix.  Slots are first set to
        # the value they keep if nothing on the loop settles them.
        self._backward = [*range(n - 1, p - 1, -1)] * 2 + [*range(p - 1, -1, -1)]

    def _bound(self, var: str) -> int:
        if var in self.valuation:
            value = self.valuation[var]
            if value < 0:
                msg = f"negative bound for variable {var!r}"
                raise TraceError(msg)
            return value
        if self.strict:
            msg = f"unbound variable {var!r} in strict mode"
            raise TraceError(msg)
        return 0

    def holds(self, phi: Formula, position: int = 0) -> bool:
        return fold(phi, self._truth)[self.trace.slot(position)]

    def _truth(self, phi: Formula, kids: list) -> list[bool]:
        """The truth vector of `phi` over the slots, from its children's."""
        if isinstance(phi, Atom):
            return [phi.name in props for props in self._props]
        if isinstance(phi, NegAtom):
            return [phi.name not in props for props in self._props]
        if isinstance(phi, And):
            return [a and b for a, b in zip(*kids)]
        if isinstance(phi, Or):
            return [a or b for a, b in zip(*kids)]
        if isinstance(phi, Next):
            (child,) = kids
            return [child[t] for t in self._succ]
        succ, n = self._succ, len(self._letters)
        if isinstance(phi, (Until, Release)):
            # U waits for its successor's value where its left argument
            # holds and its right one fails, R where its left one fails and
            # its right one holds; elsewhere either takes the right one's.
            left, right = kids
            until = isinstance(phi, Until)
            value = [not until] * n
            for s in self._backward:
                if left[s] == until and right[s] != until:
                    value[s] = value[succ[s]]
                else:
                    value[s] = right[s]
            return value
        # The cost of reaching the first slot where the child holds
        # (F[<=]) or fails (G[<=]), infinite if it never does, compared
        # with the bound.
        if phi.coord > self.trace.d:
            msg = f"formula uses coordinate {phi.coord}, trace has dimension {self.trace.d}"
            raise TraceError(msg)
        eventually = isinstance(phi, FLe)
        (child,) = kids
        step = [lt.cost[phi.coord - 1] for lt in self._letters]
        cost = [math.inf] * n
        for s in self._backward:
            cost[s] = 0 if child[s] == eventually else step[s] + cost[succ[s]]
        bound = self._bound(phi.var)
        return [(c <= bound) == eventually for c in cost]


def evaluate(
    trace: CostTrace,
    position: int,
    valuation: Valuation,
    phi: Formula,
    strict: bool = False,
) -> bool:
    """Does the trace satisfy the formula at the position, under the valuation?"""
    return TraceEvaluator(trace, valuation, strict=strict).holds(phi, position)


# --- colorings ------------------------------------------------------------


class Changepoints(ValueRecord):
    """Color-change positions of a coloring, finitely represented.

    `initial` lists every changepoint at position <= prefix + period.
    `repeating` lists the positions q in that window, q > prefix, that
    recur at q + k*period for all k; empty means finitely many overall.
    """

    __slots__ = __match_args__ = ("initial", "repeating", "period")

    @property
    def finite(self) -> bool:
        return not self.repeating

    @property
    def tail_start(self) -> Optional[int]:
        return max(self.initial) if self.finite else None

    def blocks(self) -> tuple[list[tuple[int, int]], Optional[int]]:
        """Completed blocks as (start, next changepoint) pairs, plus the
        tail start (None with infinitely many changepoints).

        The blocks start at the changepoints up to prefix + period.  With
        infinitely many changepoints every later block is one of these
        shifted by a multiple of the period, and the last one ends where
        the first repeating changepoint recurs.
        """
        points = list(self.initial)
        if self.finite:
            return list(zip(points, points[1:])), points[-1]
        points.append(self.repeating[0] + self.period)
        return list(zip(points, points[1:])), None


def changepoints_of(lasso: Lasso, bit: Callable[[object], bool]) -> Changepoints:
    """Changepoints of the color bit that `bit` reads off each letter.

    Position 0 always counts.  Past position prefix+1 the letters repeat
    with the loop period, so changepoints do too.
    """
    p, ell = len(lasso.prefix), len(lasso.loop)
    bits = [bit(x) for x in lasso.unroll(p + ell + 1)]
    initial = [0] + [q for q in range(1, p + ell + 1) if bits[q] != bits[q - 1]]
    repeating = tuple(q for q in initial if q > p)
    return Changepoints(tuple(initial), repeating, ell)


def changepoints(trace: CostTrace, coord: int = 1) -> Changepoints:
    """Changepoints of the coordinate's coloring proposition."""
    name = color_name(coord)
    return changepoints_of(trace, lambda lt: name in lt.props)


def _block_cost(trace: CostTrace, block: tuple[int, int], coord: int) -> int:
    """A block's cost runs through the step entering the next changepoint."""
    start, end = block
    return trace.segment_cost(start, end, coord)


def _tail_cost(trace: CostTrace, tail_start: int, coord: int) -> Optional[int]:
    """Total remaining cost from the tail; None when it is infinite."""
    p, ell = len(trace.prefix), len(trace.loop)
    loop_cost = sum(lt.cost[coord - 1] for lt in trace.loop)
    if loop_cost > 0:
        return None
    return trace.segment_cost(tail_start, p + ell, coord)


def check_bounded(trace: CostTrace, k: int, coord: int = 1) -> bool:
    """Every completed block and the tail cost at most k.

    A block's cost is accumulated from its first position through the
    step entering the next changepoint; the tail, present when there are
    finitely many changepoints, must have finite cost at most k.
    """
    blocks, tail_start = changepoints(trace, coord).blocks()
    if any(_block_cost(trace, block, coord) > k for block in blocks):
        return False
    if tail_start is not None:
        tail = _tail_cost(trace, tail_start, coord)
        if tail is None or tail > k:
            return False
    return True


def check_spaced(trace: CostTrace, k: int, coord: int = 1) -> bool:
    """Every completed block costs at least k; the tail is exempt."""
    blocks, _ = changepoints(trace, coord).blocks()
    return all(_block_cost(trace, block, coord) >= k for block in blocks)


def make_spaced_coloring(trace: CostTrace, k: int) -> CostTrace:
    """Add coloring propositions so every completed block costs >= k.

    Greedy per coordinate: flip the color as soon as the running block
    has accumulated cost k.  If the remaining total cost is finite the
    color eventually freezes, leaving a single exempt tail.  The walk
    state is finite, so the result is again a lasso.
    """
    if k < 0:
        raise TraceError("spacing bound must be non-negative")
    d = trace.d
    colors = [False] * d
    acc = [0] * d
    seen: dict[tuple, int] = {}
    letters: list[CostLetter] = []
    position = 0
    while True:
        slot = trace.slot(position)
        state = (slot, tuple(acc), tuple(colors))
        if state in seen:
            start = seen[state]
            return CostTrace(tuple(letters[:start]), tuple(letters[start:]), d)
        seen[state] = position
        base = trace.letter_at_slot(slot)
        props = set(base.props)
        for i in range(d):
            if colors[i]:
                props.add(color_name(i + 1))
        letters.append(CostLetter(frozenset(props), base.cost))
        for i in range(d):
            if acc[i] >= k:
                # Completed block reached the spacing bound: change color.
                # The crossing step only adds to the finished block's cost.
                colors[i] = not colors[i]
                acc[i] = 0
            else:
                acc[i] = min(acc[i] + base.cost[i], k)
        position += 1


# --- trace files ----------------------------------------------------------


def parse_trace(text: str) -> CostTrace:
    """Load the line-oriented trace format.

    ``dim D`` first, then a ``prefix:`` section and a ``loop:`` section,
    one letter per line: ``{p q kappa1} -> 3 0``.
    """
    d: Optional[int] = None
    section: Optional[str] = None
    prefix: list[CostLetter] = []
    loop: list[CostLetter] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("dim"):
            if d is not None:
                raise TraceError(f"line {lineno}: duplicate dim line")
            parts = line.split()
            if len(parts) != 2 or not parts[1].isdecimal():
                raise TraceError(f"line {lineno}: expected 'dim D'")
            d = int(parts[1])
            continue
        if line == "prefix:":
            section = "prefix"
            continue
        if line == "loop:":
            section = "loop"
            continue
        if d is None:
            raise TraceError(f"line {lineno}: 'dim D' must come first")
        if section is None:
            raise TraceError(f"line {lineno}: letter outside prefix:/loop: section")
        (prefix if section == "prefix" else loop).append(_parse_letter(line, lineno, d))
    if d is None:
        raise TraceError("missing 'dim D' line")
    if not loop:
        raise TraceError("loop section is empty")
    return CostTrace(tuple(prefix), tuple(loop), d)


def _parse_letter(line: str, lineno: int, d: int) -> CostLetter:
    if not line.startswith("{"):
        raise TraceError(f"line {lineno}: letter must start with '{{'")
    close = line.find("}")
    if close < 0:
        raise TraceError(f"line {lineno}: unterminated proposition set")
    props = frozenset(line[1:close].split())
    rest = line[close + 1 :].strip()
    if not rest.startswith("->"):
        raise TraceError(f"line {lineno}: expected '->' after proposition set")
    fields = rest[2:].split()
    if len(fields) != d:
        raise TraceError(f"line {lineno}: expected {d} cost component(s), got {len(fields)}")
    try:
        cost = tuple(int(f) for f in fields)
    except ValueError:
        raise TraceError(f"line {lineno}: costs must be integers") from None
    return CostLetter(props, cost)


def format_trace(trace: CostTrace) -> str:
    lines = [f"dim {trace.d}", "prefix:"]
    lines.extend(_format_letter(lt) for lt in trace.prefix)
    lines.append("loop:")
    lines.extend(_format_letter(lt) for lt in trace.loop)
    return "\n".join(lines) + "\n"


def _format_letter(lt: CostLetter) -> str:
    props = " ".join(sorted(lt.props))
    cost = " ".join(str(c) for c in lt.cost)
    return f"{{{props}}} -> {cost}".rstrip()
