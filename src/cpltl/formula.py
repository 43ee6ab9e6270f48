"""Cost-parametric LTL formulas in negation normal form.

Syntax trees are immutable dataclasses.  Negation exists only on atoms;
`negate` pushes negation through any formula.  The parameterized operators
F[<=x] and G[<=y] bound accumulated *cost* (per coordinate), not time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

# Reserved internal atom backing tt/ff.  The "$" keeps it out of the
# identifier namespace, so user formulas can never collide with it.
TRUTH_PROP = "$true"

KAPPA_PREFIX = "kappa"
COLOR_PREFIX = "p@"


class FormulaError(ValueError):
    """Malformed formula or failed formula-level validation."""


class ParseError(FormulaError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (column {position + 1})")
        self.position = position


class FragmentError(FormulaError):
    """Formula lies outside the fragment an operation requires."""


@dataclass(frozen=True)
class Formula:
    # Children are built before their parents, so each node hashes its
    # field tuple once, with the value the dataclass hash would give, and
    # hashing stays O(1) however deep the tree is.
    def __post_init__(self):
        fields = tuple(getattr(self, name) for name in self.__match_args__)
        object.__setattr__(self, "_hash", hash(fields))

    def __hash__(self) -> int:
        return self._hash


def _node(cls):
    """Frozen dataclass node that keeps the hash stored at construction."""
    cls = dataclass(frozen=True)(cls)
    cls.__hash__ = Formula.__hash__
    return cls


@_node
class Atom(Formula):
    name: str


@_node
class NegAtom(Formula):
    name: str


@_node
class And(Formula):
    left: Formula
    right: Formula


@_node
class Or(Formula):
    left: Formula
    right: Formula


@_node
class Next(Formula):
    child: Formula


@_node
class Until(Formula):
    left: Formula
    right: Formula


@_node
class Release(Formula):
    left: Formula
    right: Formula


@_node
class FLe(Formula):
    """Eventually within cost bound: some position with accumulated
    cost (in `coord`) at most the value of `var` satisfies the child."""

    var: str
    coord: int
    child: Formula


@_node
class GLe(Formula):
    """Always within cost bound: every position with accumulated
    cost (in `coord`) at most the value of `var` satisfies the child."""

    var: str
    coord: int
    child: Formula


def tt() -> Formula:
    return Or(Atom(TRUTH_PROP), NegAtom(TRUTH_PROP))


def ff() -> Formula:
    return And(Atom(TRUTH_PROP), NegAtom(TRUTH_PROP))


def is_tt(phi: Formula) -> bool:
    return (
        isinstance(phi, Or)
        and isinstance(phi.left, Atom)
        and isinstance(phi.right, NegAtom)
        and phi.left.name == TRUTH_PROP
        and phi.right.name == TRUTH_PROP
    )


def is_ff(phi: Formula) -> bool:
    return (
        isinstance(phi, And)
        and isinstance(phi.left, Atom)
        and isinstance(phi.right, NegAtom)
        and phi.left.name == TRUTH_PROP
        and phi.right.name == TRUTH_PROP
    )


def kappa_name(coord: int) -> str:
    return f"{KAPPA_PREFIX}{coord}"


def color_name(coord: int) -> str:
    return f"{COLOR_PREFIX}{coord}"


def eventually(phi: Formula) -> Formula:
    return Until(tt(), phi)


def always(phi: Formula) -> Formula:
    return Release(ff(), phi)


def implies(left: Formula, right: Formula) -> Formula:
    return Or(negate(left), right)


def negate(phi: Formula) -> Formula:
    """Dual of a formula: swaps And/Or, Until/Release, F[<=]/G[<=] and
    flips literals.  An involution that preserves closure size."""
    if is_tt(phi):
        return ff()
    if is_ff(phi):
        return tt()
    if isinstance(phi, Atom):
        return NegAtom(phi.name)
    if isinstance(phi, NegAtom):
        return Atom(phi.name)
    if isinstance(phi, And):
        return Or(negate(phi.left), negate(phi.right))
    if isinstance(phi, Or):
        return And(negate(phi.left), negate(phi.right))
    if isinstance(phi, Next):
        return Next(negate(phi.child))
    if isinstance(phi, Until):
        return Release(negate(phi.left), negate(phi.right))
    if isinstance(phi, Release):
        return Until(negate(phi.left), negate(phi.right))
    if isinstance(phi, FLe):
        return GLe(phi.var, phi.coord, negate(phi.child))
    if isinstance(phi, GLe):
        return FLe(phi.var, phi.coord, negate(phi.child))
    msg = f"not a formula node: {phi!r}"
    raise FormulaError(msg)


def children(phi: Formula) -> tuple[Formula, ...]:
    if isinstance(phi, (Atom, NegAtom)):
        return ()
    if isinstance(phi, (Next, FLe, GLe)):
        return (phi.child,)
    return (phi.left, phi.right)


def subformulas(phi: Formula) -> Iterable[Formula]:
    """All subformula nodes, each distinct node once (pre-order)."""
    seen: set[Formula] = set()
    stack = [phi]
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        yield node
        stack.extend(children(node))


def closure(phi: Formula) -> frozenset[Formula]:
    return frozenset(subformulas(phi))


def size(phi: Formula) -> int:
    """Formula size measure: number of distinct subformulas."""
    return len(closure(phi))


@dataclass(frozen=True)
class VarProfile:
    var_f: frozenset[str]
    var_g: frozenset[str]

    @property
    def well_formed(self) -> bool:
        return not (self.var_f & self.var_g)

    @property
    def variables(self) -> frozenset[str]:
        return self.var_f | self.var_g


def var_profile(phi: Formula) -> VarProfile:
    """Variables split by the operator kind they bound."""
    var_f: set[str] = set()
    var_g: set[str] = set()
    for node in subformulas(phi):
        if isinstance(node, FLe):
            var_f.add(node.var)
        elif isinstance(node, GLe):
            var_g.add(node.var)
    return VarProfile(frozenset(var_f), frozenset(var_g))


def require_well_formed(phi: Formula) -> VarProfile:
    profile = var_profile(phi)
    if not profile.well_formed:
        shared = ", ".join(sorted(profile.var_f & profile.var_g))
        msg = f"ill-formed formula: variable(s) {shared} bound both operator kinds"
        raise FormulaError(msg)
    return profile


def atoms(phi: Formula) -> frozenset[str]:
    """Atomic propositions occurring in the formula, internal truth atom excluded."""
    names = {
        node.name
        for node in subformulas(phi)
        if isinstance(node, (Atom, NegAtom)) and node.name != TRUTH_PROP
    }
    return frozenset(names)


def max_coord(phi: Formula) -> int:
    coords = [node.coord for node in subformulas(phi) if isinstance(node, (FLe, GLe))]
    return max(coords, default=0)


def validate_coords(phi: Formula, d: int) -> None:
    for node in subformulas(phi):
        if isinstance(node, (FLe, GLe)) and not 1 <= node.coord <= d:
            msg = f"coordinate {node.coord} out of range for dimension {d}"
            raise FormulaError(msg)


def eliminate_parametric_always(
    phi: Formula, only_vars: Optional[frozenset[str]] = None
) -> Formula:
    """Rewrite G[<=y] psi into psi & X(kappa R (kappa | psi)).

    The rewrite equals the original at bound 0 (psi must hold now and on
    every later position reached without accumulating cost), so by
    monotonicity it is exact for the exists-a-valuation question, not for
    fixed valuations.  `only_vars` restricts the rewrite to a subset of
    the G-variables.
    """
    if isinstance(phi, (Atom, NegAtom)):
        return phi
    if isinstance(phi, GLe) and (only_vars is None or phi.var in only_vars):
        body = eliminate_parametric_always(phi.child, only_vars)
        costly = Atom(kappa_name(phi.coord))
        return And(body, Next(Release(costly, Or(costly, body))))
    if isinstance(phi, Next):
        return Next(eliminate_parametric_always(phi.child, only_vars))
    if isinstance(phi, FLe):
        return FLe(phi.var, phi.coord, eliminate_parametric_always(phi.child, only_vars))
    if isinstance(phi, GLe):
        return GLe(phi.var, phi.coord, eliminate_parametric_always(phi.child, only_vars))
    kind = type(phi)
    return kind(
        eliminate_parametric_always(phi.left, only_vars),
        eliminate_parametric_always(phi.right, only_vars),
    )


def drop_cost_bounds(phi: Formula) -> Formula:
    """Read every F[<=x] psi as F psi and every G[<=y] psi as G psi."""
    if isinstance(phi, (Atom, NegAtom)):
        return phi
    if isinstance(phi, FLe):
        return eventually(drop_cost_bounds(phi.child))
    if isinstance(phi, GLe):
        return always(drop_cost_bounds(phi.child))
    if isinstance(phi, Next):
        return Next(drop_cost_bounds(phi.child))
    kind = type(phi)
    return kind(drop_cost_bounds(phi.left), drop_cost_bounds(phi.right))


def relativize(phi: Formula, d: int) -> Formula:
    """Replace every F[<=x] by the variable-free coloring pattern.

    F[<=x] psi becomes, for the coloring proposition p of its coordinate,
        (p -> p U (!p U psi')) & (!p -> !p U (p U psi')),
    i.e. "psi' within at most one color change".  Input must be free of
    G[<=y] (eliminate first) and must not already use coloring atoms.
    """
    validate_coords(phi, d)
    used = atoms(phi)
    for i in range(1, d + 1):
        if color_name(i) in used:
            msg = f"formula already uses coloring proposition {color_name(i)}"
            raise FormulaError(msg)
    return _relativize(phi)


def _relativize(phi: Formula) -> Formula:
    if isinstance(phi, (Atom, NegAtom)):
        return phi
    if isinstance(phi, GLe):
        msg = "relativize expects G[<=] to be eliminated first"
        raise FormulaError(msg)
    if isinstance(phi, FLe):
        body = _relativize(phi.child)
        pos = Atom(color_name(phi.coord))
        neg = NegAtom(color_name(phi.coord))
        return And(
            Or(neg, Until(pos, Until(neg, body))),
            Or(pos, Until(neg, Until(pos, body))),
        )
    if isinstance(phi, Next):
        return Next(_relativize(phi.child))
    kind = type(phi)
    return kind(_relativize(phi.left), _relativize(phi.right))


def chi_formula(d: int) -> Formula:
    """Consistency property tying colorings to costs, per coordinate:
    infinitely many color changes iff infinitely many positive-cost steps."""
    if d < 1:
        msg = f"dimension must be >= 1, got {d}"
        raise FormulaError(msg)
    conjuncts = []
    for i in range(1, d + 1):
        color = Atom(color_name(i))
        changes = And(always(eventually(color)), always(eventually(negate(color))))
        infinite_cost = always(eventually(Atom(kappa_name(i))))
        both_ways = And(
            Or(negate(changes), infinite_cost),
            Or(negate(infinite_cost), changes),
        )
        conjuncts.append(both_ways)
    result = conjuncts[0]
    for extra in conjuncts[1:]:
        result = And(result, extra)
    return result


def expand_derived(op: str, args: tuple[Formula, ...], var: str = "", coord: int = 1) -> Formula:
    """Expand a derived operator into the core grammar.

    Supported ops: 'tt', 'ff', 'F', 'G', '->', 'U<=', 'R<=', 'F>', 'G>',
    'U>', 'R>'.  The strict variants (>) thread the coordinate's kappa
    atom so the excluded boundary position is skipped exactly.
    """
    k_pos = Atom(kappa_name(coord))
    k_neg = NegAtom(kappa_name(coord))
    if op == "tt":
        return tt()
    if op == "ff":
        return ff()
    if op == "F":
        return eventually(args[0])
    if op == "G":
        return always(args[0])
    if op == "->":
        return implies(args[0], args[1])
    if op == "U<=":
        left, right = args
        return And(Until(left, right), FLe(var, coord, right))
    if op == "R<=":
        left, right = args
        return Or(Release(left, right), GLe(var, coord, right))
    if op == "F>":
        return GLe(var, coord, eventually(Next(And(k_pos, eventually(args[0])))))
    if op == "G>":
        return FLe(var, coord, always(Next(Or(k_neg, always(args[0])))))
    if op == "U>":
        left, right = args
        return GLe(var, coord, And(left, eventually(Next(And(k_pos, Until(left, right))))))
    if op == "R>":
        left, right = args
        return FLe(var, coord, Or(left, always(Next(Or(k_neg, Release(left, right))))))
    msg = f"unknown derived operator: {op}"
    raise FormulaError(msg)


def simplify_constants(phi: Formula) -> Formula:
    """Fold tt/ff through connectives, keeping F/G encodings intact.

    The result contains tt only as the left arm of an Until and ff only
    as the left arm of a Release (the F/G encodings), or is itself tt/ff.
    Semantics-preserving; automaton constructions rely on the shape.
    """
    if is_tt(phi) or is_ff(phi) or isinstance(phi, (Atom, NegAtom)):
        return phi
    if isinstance(phi, Next):
        child = simplify_constants(phi.child)
        if is_tt(child) or is_ff(child):
            return child
        return Next(child)
    if isinstance(phi, (FLe, GLe)):
        child = simplify_constants(phi.child)
        if is_tt(child) or is_ff(child):
            return child
        return type(phi)(phi.var, phi.coord, child)
    left = simplify_constants(phi.left)
    right = simplify_constants(phi.right)
    if isinstance(phi, And):
        if is_ff(left) or is_ff(right):
            return ff()
        if is_tt(left):
            return right
        if is_tt(right):
            return left
        return And(left, right)
    if isinstance(phi, Or):
        if is_tt(left) or is_tt(right):
            return tt()
        if is_ff(left):
            return right
        if is_ff(right):
            return left
        return Or(left, right)
    if isinstance(phi, Until):
        if is_tt(right) or is_ff(right):
            return right
        if is_ff(left):
            return right
        return Until(left, right)
    if isinstance(phi, Release):
        if is_tt(right) or is_ff(right):
            return right
        if is_tt(left):
            return right
        return Release(left, right)
    msg = f"not a formula node: {phi!r}"
    raise FormulaError(msg)


# --- pretty printing ------------------------------------------------------

_PREC_ATOM = 100
_PREC_UNARY = 80
_PREC_UNTIL = 60
_PREC_AND = 40
_PREC_OR = 20


def pretty_print(phi: Formula) -> str:
    """Concrete syntax that parses back to the same tree."""
    text, _ = _pp(phi)
    return text


def _bracket(var: str, coord: int, rel: str = "<=") -> str:
    if coord == 1:
        return f"[{rel}{var}]"
    return f"[{rel}{var}@{coord}]"


def _pp(phi: Formula) -> tuple[str, int]:
    if is_tt(phi):
        return "tt", _PREC_ATOM
    if is_ff(phi):
        return "ff", _PREC_ATOM
    if isinstance(phi, Atom):
        if phi.name == TRUTH_PROP:
            msg = "reserved truth atom cannot be printed outside tt/ff"
            raise FormulaError(msg)
        return phi.name, _PREC_ATOM
    if isinstance(phi, NegAtom):
        if phi.name == TRUTH_PROP:
            msg = "reserved truth atom cannot be printed outside tt/ff"
            raise FormulaError(msg)
        return f"!{phi.name}", _PREC_UNARY
    if isinstance(phi, Until) and is_tt(phi.left):
        return f"F {_pp_child(phi.right, _PREC_UNARY)}", _PREC_UNARY
    if isinstance(phi, Release) and is_ff(phi.left):
        return f"G {_pp_child(phi.right, _PREC_UNARY)}", _PREC_UNARY
    if isinstance(phi, Next):
        return f"X {_pp_child(phi.child, _PREC_UNARY)}", _PREC_UNARY
    if isinstance(phi, FLe):
        return f"F{_bracket(phi.var, phi.coord)} {_pp_child(phi.child, _PREC_UNARY)}", _PREC_UNARY
    if isinstance(phi, GLe):
        return f"G{_bracket(phi.var, phi.coord)} {_pp_child(phi.child, _PREC_UNARY)}", _PREC_UNARY
    if isinstance(phi, Until):
        left = _pp_left_assoc_guard(phi.left, _PREC_UNTIL)
        right = _pp_child(phi.right, _PREC_UNTIL)
        return f"{left} U {right}", _PREC_UNTIL
    if isinstance(phi, Release):
        left = _pp_left_assoc_guard(phi.left, _PREC_UNTIL)
        right = _pp_child(phi.right, _PREC_UNTIL)
        return f"{left} R {right}", _PREC_UNTIL
    if isinstance(phi, And):
        left = _pp_child(phi.left, _PREC_AND)
        right = _pp_left_assoc_guard(phi.right, _PREC_AND)
        return f"{left} & {right}", _PREC_AND
    if isinstance(phi, Or):
        left = _pp_child(phi.left, _PREC_OR)
        right = _pp_left_assoc_guard(phi.right, _PREC_OR)
        return f"{left} | {right}", _PREC_OR
    msg = f"not a formula node: {phi!r}"
    raise FormulaError(msg)


def _pp_child(phi: Formula, parent_prec: int) -> str:
    text, prec = _pp(phi)
    if prec < parent_prec:
        return f"({text})"
    return text


def _pp_left_assoc_guard(phi: Formula, parent_prec: int) -> str:
    # Same-precedence operand on the non-associating side needs parens.
    text, prec = _pp(phi)
    if prec <= parent_prec:
        return f"({text})"
    return text


# --- parsing --------------------------------------------------------------

_KEYWORDS = {"tt", "ff", "X", "F", "G", "U", "R"}


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("ident", text[i:j], i))
            i = j
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(_Token("int", text[i:j], i))
            i = j
            continue
        if text.startswith("->", i):
            tokens.append(_Token("->", "->", i))
            i += 2
            continue
        if text.startswith("<=", i):
            tokens.append(_Token("<=", "<=", i))
            i += 2
            continue
        if ch in "()[]!&|>@":
            tokens.append(_Token(ch, ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("eof", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.index = 0

    def peek(self) -> _Token:
        return self.tokens[self.index]

    def advance(self) -> _Token:
        token = self.tokens[self.index]
        self.index += 1
        return token

    def expect(self, kind: str) -> _Token:
        token = self.peek()
        if token.kind != kind:
            raise ParseError(f"expected {kind!r}, found {token.text or 'end of input'!r}", token.pos)
        return self.advance()

    def parse(self) -> Formula:
        phi = self.implication()
        token = self.peek()
        if token.kind != "eof":
            raise ParseError(f"unexpected trailing input {token.text!r}", token.pos)
        return phi

    def implication(self) -> Formula:
        left = self.disjunction()
        if self.peek().kind == "->":
            self.advance()
            right = self.implication()
            return expand_derived("->", (left, right))
        return left

    def disjunction(self) -> Formula:
        phi = self.conjunction()
        while self.peek().kind == "|":
            self.advance()
            phi = Or(phi, self.conjunction())
        return phi

    def conjunction(self) -> Formula:
        phi = self.until_chain()
        while self.peek().kind == "&":
            self.advance()
            phi = And(phi, self.until_chain())
        return phi

    def until_chain(self) -> Formula:
        left = self.unary()
        token = self.peek()
        if token.kind == "ident" and token.text in ("U", "R"):
            self.advance()
            param = self.maybe_bracket()
            right = self.until_chain()
            if param is None:
                return Until(left, right) if token.text == "U" else Release(left, right)
            rel, var, coord = param
            op = f"{token.text}{rel}"
            return expand_derived(op, (left, right), var=var, coord=coord)
        return left

    def unary(self) -> Formula:
        token = self.peek()
        if token.kind == "!":
            self.advance()
            return negate(self.unary())
        if token.kind == "ident" and token.text == "X":
            self.advance()
            return Next(self.unary())
        if token.kind == "ident" and token.text in ("F", "G"):
            self.advance()
            param = self.maybe_bracket()
            child = self.unary()
            if param is None:
                return expand_derived(token.text, (child,))
            rel, var, coord = param
            if rel == "<=":
                if token.text == "F":
                    return FLe(var, coord, child)
                return GLe(var, coord, child)
            return expand_derived(f"{token.text}>", (child,), var=var, coord=coord)
        return self.atom()

    def maybe_bracket(self) -> Optional[tuple[str, str, int]]:
        if self.peek().kind != "[":
            return None
        self.advance()
        rel_token = self.peek()
        if rel_token.kind not in ("<=", ">"):
            raise ParseError("expected '<=' or '>' inside brackets", rel_token.pos)
        self.advance()
        var_token = self.peek()
        if var_token.kind != "ident" or var_token.text in _KEYWORDS:
            raise ParseError("expected a variable name inside brackets", var_token.pos)
        self.advance()
        coord = 1
        if self.peek().kind == "@":
            self.advance()
            coord_token = self.expect("int")
            coord = int(coord_token.text)
            if coord < 1:
                raise ParseError("coordinate index must be >= 1", coord_token.pos)
        self.expect("]")
        return rel_token.kind, var_token.text, coord

    def atom(self) -> Formula:
        token = self.peek()
        if token.kind == "(":
            self.advance()
            phi = self.implication()
            self.expect(")")
            return phi
        if token.kind == "ident":
            name = token.text
            if name == "tt":
                self.advance()
                return tt()
            if name == "ff":
                self.advance()
                return ff()
            if name in _KEYWORDS:
                raise ParseError(f"{name!r} is an operator, not a proposition", token.pos)
            self.advance()
            if name == KAPPA_PREFIX:
                name = kappa_name(1)
            return Atom(name)
        raise ParseError(
            f"expected a formula, found {token.text or 'end of input'!r}", token.pos
        )


def parse(text: str) -> Formula:
    """Parse concrete syntax into an NNF tree.

    Grammar, loosest to tightest: ->, |, &, U/R (right-associative),
    unary (! X F G and the bracketed cost-bounded forms), atoms.
    `kappa` abbreviates `kappa1`.
    """
    return _Parser(text).parse()
