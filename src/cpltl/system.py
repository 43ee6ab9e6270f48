"""Weighted transition systems and their lasso paths.

States carry proposition labels; edges carry d-dimensional natural cost
vectors.  The kappa propositions mirror the costs: coordinate i of an
edge into state v is positive exactly when kappa_i labels v, so every
path's trace is automatically cost/kappa consistent.

LassoPath takes its slot layout from trace.Lasso, like every other lasso
in the package.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

from .formula import KAPPA_PREFIX, is_identifier, kappa_name
from .record import ValueRecord
from .trace import CostLetter, CostTrace, Lasso


class SystemFormatError(ValueError):
    """Malformed system description or validation failure."""


class TransitionSystem(ValueRecord):
    """A system over d cost coordinates: `states` in declaration order,
    `edges[src]` the successors of src in edge order, `labels[state]` its
    propositions and `cost[src, dst]` the cost vector of an edge."""

    __slots__ = __match_args__ = ("states", "initial", "edges", "labels", "cost", "d")

    def successors(self, state: str) -> tuple[str, ...]:
        return self.edges.get(state, ())

    @property
    def max_cost(self) -> int:
        return max((max(vec) for vec in self.cost.values() if vec), default=0)


def validate(system: TransitionSystem) -> list[str]:
    """Structural and kappa-consistency faults; empty when valid."""
    problems = []
    if system.initial not in system.states:
        problems.append(f"initial state {system.initial!r} is not declared")
    if system.d < 1:
        problems.append("dimension must be >= 1")
    for state in system.states:
        if not system.successors(state):
            problems.append(f"state {state!r} has no outgoing edge")
        for prop in sorted(system.labels.get(state, ())):
            if not is_identifier(prop):
                problems.append(f"state {state!r}: label {prop!r} is not a proposition name")
    for (src, dst), vec in system.cost.items():
        if len(vec) != system.d:
            problems.append(f"edge {src}->{dst}: cost arity {len(vec)}, expected {system.d}")
            continue
        if any(c < 0 for c in vec):
            problems.append(f"edge {src}->{dst}: negative cost")
        for i in range(1, system.d + 1):
            has_kappa = kappa_name(i) in system.labels.get(dst, frozenset())
            if has_kappa and vec[i - 1] <= 0:
                problems.append(
                    f"edge {src}->{dst}: kappa{i} labels {dst!r}, "
                    f"so coordinate {i} must be positive"
                )
            if not has_kappa and vec[i - 1] != 0:
                problems.append(
                    f"edge {src}->{dst}: kappa{i} does not label {dst!r}, "
                    f"so coordinate {i} must be zero"
                )
    return problems


def parse_system(text: str) -> TransitionSystem:
    """Load the line-oriented system format.

    ``dim D`` first, then ``state NAME [init] : props`` lines and
    ``edge SRC DST : c1 .. cD`` lines.  '#' starts a comment.
    """
    d: Optional[int] = None
    states: list[str] = []
    initial: Optional[str] = None
    labels: dict[str, frozenset[str]] = {}
    edges: dict[str, list[str]] = {}
    cost: dict[tuple[str, str], tuple[int, ...]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if fields[0] == "dim":
            if d is not None:
                raise SystemFormatError(f"line {lineno}: duplicate dim line")
            if len(fields) != 2 or not fields[1].isdecimal() or int(fields[1]) < 1:
                raise SystemFormatError(f"line {lineno}: expected 'dim D' with D >= 1")
            d = int(fields[1])
            continue
        if d is None:
            raise SystemFormatError(f"line {lineno}: 'dim D' must come first")
        if fields[0] == "state":
            head, _, props_text = line.partition(":")
            head_fields = head.split()[1:]
            if not head_fields:
                raise SystemFormatError(f"line {lineno}: state needs a name")
            name = head_fields[0]
            if name in labels:
                raise SystemFormatError(f"line {lineno}: duplicate state {name!r}")
            is_init = False
            for extra in head_fields[1:]:
                if extra == "init":
                    is_init = True
                else:
                    raise SystemFormatError(f"line {lineno}: unexpected token {extra!r}")
            if "_" == name or not all(c.isalnum() or c == "_" for c in name):
                raise SystemFormatError(f"line {lineno}: bad state name {name!r}")
            props = set(props_text.split())
            if KAPPA_PREFIX in props:
                props.discard(KAPPA_PREFIX)
                props.add(kappa_name(1))
            states.append(name)
            labels[name] = frozenset(props)
            if is_init:
                if initial is not None:
                    raise SystemFormatError(f"line {lineno}: second init state {name!r}")
                initial = name
            continue
        if fields[0] == "edge":
            head, sep, cost_text = line.partition(":")
            if not sep:
                raise SystemFormatError(f"line {lineno}: edge needs ': costs'")
            head_fields = head.split()[1:]
            if len(head_fields) != 2:
                raise SystemFormatError(f"line {lineno}: expected 'edge SRC DST : costs'")
            src, dst = head_fields
            for endpoint in (src, dst):
                if endpoint not in labels:
                    raise SystemFormatError(f"line {lineno}: undeclared state {endpoint!r}")
            if (src, dst) in cost:
                raise SystemFormatError(f"line {lineno}: duplicate edge {src}->{dst}")
            cost_fields = cost_text.split()
            if len(cost_fields) != d:
                raise SystemFormatError(
                    f"line {lineno}: expected {d} cost component(s), got {len(cost_fields)}"
                )
            try:
                vec = tuple(int(f) for f in cost_fields)
            except ValueError:
                raise SystemFormatError(f"line {lineno}: costs must be integers") from None
            edges.setdefault(src, []).append(dst)
            cost[(src, dst)] = vec
            continue
        raise SystemFormatError(f"line {lineno}: unrecognized line {line!r}")
    if d is None:
        raise SystemFormatError("missing 'dim D' line")
    if initial is None:
        raise SystemFormatError("no state marked init")
    system = TransitionSystem(
        states=tuple(states),
        initial=initial,
        edges={src: tuple(dsts) for src, dsts in edges.items()},
        labels=labels,
        cost=cost,
        d=d,
    )
    problems = validate(system)
    if problems:
        raise SystemFormatError("invalid system: " + "; ".join(problems))
    return system


def format_system(system: TransitionSystem) -> str:
    lines = [f"dim {system.d}"]
    for state in system.states:
        marker = " init" if state == system.initial else ""
        props = " ".join(sorted(system.labels[state]))
        lines.append(f"state {state}{marker} : {props}".rstrip())
    for src in system.states:
        for dst in system.successors(src):
            vec = " ".join(str(c) for c in system.cost[(src, dst)])
            lines.append(f"edge {src} {dst} : {vec}")
    return "\n".join(lines) + "\n"


class LassoPath(Lasso[str]):
    """Ultimately periodic path through a system: prefix then loop."""

    __slots__ = ()
    error = SystemFormatError


def check_path(system: TransitionSystem, path: LassoPath) -> None:
    start = path.letter(0)
    if start != system.initial:
        raise SystemFormatError(f"path starts at {start!r}, not the initial state")
    for src, dst in path.steps():
        if (src, dst) not in system.cost:
            raise SystemFormatError(f"path uses missing edge {src}->{dst}")


def trace_of(system: TransitionSystem, path: LassoPath) -> CostTrace:
    """The cost-trace a lasso path generates."""
    check_path(system, path)
    letters = [
        CostLetter(system.labels[state], system.cost[(state, nxt)])
        for state, nxt in path.steps()
    ]
    p = len(path.prefix)
    return CostTrace(tuple(letters[:p]), tuple(letters[p:]), system.d)


def canonical_lasso(prefix: Sequence[str], loop: Sequence[str]) -> LassoPath:
    """Normal form of an ultimately periodic path: primitive loop, and the
    prefix rolled back as far as the loop absorbs it."""
    loop = list(loop)
    n = len(loop)
    for period in range(1, n + 1):
        if n % period == 0 and loop[:period] * (n // period) == loop:
            loop = loop[:period]
            break
    prefix = list(prefix)
    while prefix and prefix[-1] == loop[-1]:
        prefix.pop()
        loop = [loop[-1]] + loop[:-1]
    return LassoPath(tuple(prefix), tuple(loop))


def enumerate_lassos(system: TransitionSystem, max_total_length: int) -> Iterator[LassoPath]:
    """Every initial lasso with |prefix| + |loop| <= the bound, one
    canonical representative per ultimately periodic path."""
    seen: set[LassoPath] = set()
    walk = [system.initial]

    def explore() -> Iterator[LassoPath]:
        last = walk[-1]
        for split in range(len(walk)):
            if (last, walk[split]) in system.cost:
                lasso = canonical_lasso(walk[:split], walk[split:])
                if lasso not in seen:
                    seen.add(lasso)
                    yield lasso
        if len(walk) < max_total_length:
            for nxt in system.successors(last):
                walk.append(nxt)
                yield from explore()
                walk.pop()

    if max_total_length >= 1:
        yield from explore()
