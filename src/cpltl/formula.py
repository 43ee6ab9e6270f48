"""Cost-parametric LTL formulas in negation normal form.

Syntax trees are immutable records.  Negation exists only on atoms;
`negate` pushes negation through any formula.  The parameterized operators
F[<=x] and G[<=y] bound accumulated *cost* (per coordinate), not time.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, TypeVar

from .record import Record, ValueRecord, set_fields

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


class Formula(Record):
    """A syntax-tree node.

    Each node class names its fields in `__slots__` and `__match_args__`.
    Children are built before their parents, so the constructor hashes the
    field tuple once and stores it.  Hashing, equality and `repr` never
    recurse, so a formula may nest to any depth.
    """

    __slots__ = ("_hash",)

    def __init__(self, *args, **kwargs):
        object.__setattr__(self, "_hash", hash(set_fields(self, args, kwargs)))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if not isinstance(other, Formula):
            return NotImplemented
        # Pairs already matched are skipped, so two equal formulas that
        # share subterms are compared in time linear in their node count.
        matched: set = set()
        pairs = [(self, other)]
        while pairs:
            a, b = pairs.pop()
            if a is b or (id(a), id(b)) in matched:
                continue
            if type(a) is not type(b) or a._hash != b._hash:
                return False
            matched.add((id(a), id(b)))
            for name in a.__match_args__:
                x, y = getattr(a, name), getattr(b, name)
                if isinstance(x, Formula):
                    pairs.append((x, y))
                elif x != y:
                    return False
        return True

    def __repr__(self) -> str:
        return fold(self, repr_step)


class Atom(Formula):
    __slots__ = __match_args__ = ("name",)


class NegAtom(Formula):
    __slots__ = __match_args__ = ("name",)


class And(Formula):
    __slots__ = __match_args__ = ("left", "right")


class Or(Formula):
    __slots__ = __match_args__ = ("left", "right")


class Next(Formula):
    __slots__ = __match_args__ = ("child",)


class Until(Formula):
    __slots__ = __match_args__ = ("left", "right")


class Release(Formula):
    __slots__ = __match_args__ = ("left", "right")


class FLe(Formula):
    """Eventually within cost bound: some position with accumulated
    cost (in `coord`) at most the value of `var` satisfies the child."""

    __slots__ = __match_args__ = ("var", "coord", "child")


class GLe(Formula):
    """Always within cost bound: every position with accumulated
    cost (in `coord`) at most the value of `var` satisfies the child."""

    __slots__ = __match_args__ = ("var", "coord", "child")


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


_DUAL = {And: Or, Or: And, Next: Next, Until: Release, Release: Until, FLe: GLe, GLe: FLe}


def negate(phi: Formula) -> Formula:
    """Dual of a formula: swaps And/Or, Until/Release, F[<=]/G[<=] and
    flips literals.  An involution that preserves closure size."""
    return fold(phi, _negate_step)


def _negate_step(node: Formula, kids: list) -> Formula:
    if is_tt(node):
        return ff()
    if is_ff(node):
        return tt()
    if isinstance(node, Atom):
        return NegAtom(node.name)
    if isinstance(node, NegAtom):
        return Atom(node.name)
    if isinstance(node, (FLe, GLe)):
        return _DUAL[type(node)](node.var, node.coord, *kids)
    return _DUAL[type(node)](*kids)


def children(phi: Formula) -> tuple[Formula, ...]:
    if isinstance(phi, (Atom, NegAtom)):
        return ()
    if isinstance(phi, (Next, FLe, GLe)):
        return (phi.child,)
    if isinstance(phi, (And, Or, Until, Release)):
        return (phi.left, phi.right)
    msg = f"not a formula node: {phi!r}"
    raise FormulaError(msg)


T = TypeVar("T")


def fold(phi: Formula, step: Callable[[Formula, list], T]) -> T:
    """Bottom-up value of a formula: `step(node, kids)` for each node, where
    `kids` holds the values of the node's `children`, in order.

    The walk keeps its own stack, so no nesting depth reaches Python's
    recursion limit, and it is memoized by node identity: a subformula
    object that several parents share is stepped once, however many paths
    lead to it.  The rewrites, the printer, `repr`, the interning in
    `automata` and the trace evaluator all go through here.
    """
    done: dict[int, T] = {}
    # Entries are (node, None) before the node's children are pushed and
    # (node, children) once they are; a node's children are all done by
    # the time its second entry is popped.
    stack: list = [(phi, None)]
    while stack:
        node, kids = stack.pop()
        if kids is None:
            if id(node) in done:
                continue
            kids = children(node)
            if kids:
                stack.append((node, kids))
                for c in kids:
                    if id(c) not in done:
                        stack.append((c, None))
                continue
        done[id(node)] = step(node, [done[id(c)] for c in kids])
    return done[id(phi)]


def rebuild(node: Formula, kids: list) -> Formula:
    """`node` with its children replaced by `kids`; `node` itself when
    they are the same objects."""
    if all(k is c for k, c in zip(kids, children(node))):
        return node
    if isinstance(node, (FLe, GLe)):
        return type(node)(node.var, node.coord, *kids)
    return type(node)(*kids)


def repr_step(node: Formula, kids: list) -> str:
    """The `repr` of a node, `Name(field=value, ...)`, given its children's:
    the step that `Formula.__repr__` folds."""
    kid_text = iter(kids)
    fields = ", ".join(
        f"{name}={next(kid_text) if isinstance(value, Formula) else repr(value)}"
        for name, value in ((name, getattr(node, name)) for name in node.__match_args__)
    )
    return f"{type(node).__qualname__}({fields})"


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


class VarProfile(ValueRecord):
    __slots__ = __match_args__ = ("var_f", "var_g")

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

    def step(node: Formula, kids: list) -> Formula:
        if isinstance(node, GLe) and (only_vars is None or node.var in only_vars):
            (body,) = kids
            costly = Atom(kappa_name(node.coord))
            return And(body, Next(Release(costly, Or(costly, body))))
        return rebuild(node, kids)

    return fold(phi, step)


def drop_cost_bounds(phi: Formula) -> Formula:
    """Read every F[<=x] psi as F psi and every G[<=y] psi as G psi."""
    return fold(phi, _drop_cost_step)


def _drop_cost_step(node: Formula, kids: list) -> Formula:
    if isinstance(node, FLe):
        return eventually(*kids)
    if isinstance(node, GLe):
        return always(*kids)
    return rebuild(node, kids)


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
    return fold(phi, _relativize_step)


def _relativize_step(node: Formula, kids: list) -> Formula:
    if isinstance(node, GLe):
        msg = "relativize expects G[<=] to be eliminated first"
        raise FormulaError(msg)
    if isinstance(node, FLe):
        (body,) = kids
        pos = Atom(color_name(node.coord))
        neg = NegAtom(color_name(node.coord))
        return And(
            Or(neg, Until(pos, Until(neg, body))),
            Or(pos, Until(neg, Until(pos, body))),
        )
    return rebuild(node, kids)


def chi_formula(d: int) -> Formula:
    """Consistency property tying colorings to costs, per coordinate:
    infinitely many color changes iff infinitely many positive-cost steps.

    Coordinate i's conjunct is written in disjunctive form,
        (G F c & G F !c & G F kappa) | F (G (c & !kappa) | G (!c & !kappa))
    with c its color: the biconditional changes <-> inf is
    (changes & inf) | (!changes & !inf), and a color that eventually stops
    changing while cost eventually stops being paid is F G (c & !kappa) or
    F G (!c & !kappa).  The tableau translates this form to far fewer
    states than the biconditional: 17 against 43 at d = 1 and 123 against
    679 at d = 2, which is what a refuting check_exists pays for."""
    if d < 1:
        msg = f"dimension must be >= 1, got {d}"
        raise FormulaError(msg)
    conjuncts = []
    for i in range(1, d + 1):
        color, no_cost = Atom(color_name(i)), NegAtom(kappa_name(i))
        changes_and_costs = And(
            And(always(eventually(color)), always(eventually(negate(color)))),
            always(eventually(Atom(kappa_name(i)))),
        )
        freezes_for_free = eventually(
            Or(always(And(color, no_cost)), always(And(negate(color), no_cost)))
        )
        conjuncts.append(Or(changes_and_costs, freezes_for_free))
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
    return fold(phi, _simplify_step)


def _simplify_step(node: Formula, kids: list) -> Formula:
    if is_tt(node) or is_ff(node) or isinstance(node, (Atom, NegAtom)):
        return node
    if isinstance(node, (Next, FLe, GLe)):
        (child,) = kids
        if is_tt(child) or is_ff(child):
            return child
        return rebuild(node, kids)
    left, right = kids
    if isinstance(node, And):
        if is_ff(left) or is_ff(right):
            return ff()
        if is_tt(left):
            return right
        if is_tt(right):
            return left
    elif isinstance(node, Or):
        if is_tt(left) or is_tt(right):
            return tt()
        if is_ff(left):
            return right
        if is_ff(right):
            return left
    elif isinstance(node, Until):
        if is_tt(right) or is_ff(right) or is_ff(left):
            return right
    elif is_tt(right) or is_ff(right) or is_tt(left):  # Release
        return right
    return rebuild(node, kids)


# --- pretty printing ------------------------------------------------------

_PREC_ATOM = 100
_PREC_UNARY = 80

# The binary operators: strength (the higher binds tighter), whether a
# chain of equal strength groups to the right, and the node built (None
# for `->`, which `expand_derived` writes as `!a | b`).  `parse` and `_pp`
# both read it.
_BINARY = {
    "->": (10, True, None),
    "|": (20, False, Or),
    "&": (40, False, And),
    "U": (60, True, Until),
    "R": (60, True, Release),
}
_SYMBOL = {node: symbol for symbol, (_, _, node) in _BINARY.items() if node}


def pretty_print(phi: Formula) -> str:
    """Concrete syntax that parses back to the same tree."""
    return _operand(fold(phi, _pp), 0)


def _pp(node: Formula, kids: list) -> Optional[tuple[str, int]]:
    """(text, precedence) of a node, or None for the reserved truth atom,
    which prints only as part of tt or ff."""
    if is_tt(node):
        return "tt", _PREC_ATOM
    if is_ff(node):
        return "ff", _PREC_ATOM
    if isinstance(node, (Atom, NegAtom)):
        if node.name == TRUTH_PROP:
            return None
        if isinstance(node, Atom):
            return node.name, _PREC_ATOM
        return f"!{node.name}", _PREC_UNARY
    if isinstance(node, Until) and is_tt(node.left):
        return f"F {_operand(kids[1], _PREC_UNARY)}", _PREC_UNARY
    if isinstance(node, Release) and is_ff(node.left):
        return f"G {_operand(kids[1], _PREC_UNARY)}", _PREC_UNARY
    if isinstance(node, Next):
        return f"X {_operand(kids[0], _PREC_UNARY)}", _PREC_UNARY
    if isinstance(node, (FLe, GLe)):
        op = "F" if isinstance(node, FLe) else "G"
        at = "" if node.coord == 1 else f"@{node.coord}"
        return f"{op}[<={node.var}{at}] {_operand(kids[0], _PREC_UNARY)}", _PREC_UNARY
    symbol = _SYMBOL[type(node)]
    prec, right_assoc, _ = _BINARY[symbol]
    # An operand of the same strength needs parentheses on the side the
    # operator does not group to.
    left = _operand(kids[0], prec + right_assoc)
    right = _operand(kids[1], prec + (not right_assoc))
    return f"{left} {symbol} {right}", prec


def _operand(printed: Optional[tuple[str, int]], min_prec: int) -> str:
    """An operand's text, parenthesized below the precedence `min_prec`."""
    if printed is None:
        msg = "reserved truth atom cannot be printed outside tt/ff"
        raise FormulaError(msg)
    text, prec = printed
    if prec < min_prec:
        return f"({text})"
    return text


# --- parsing --------------------------------------------------------------

_KEYWORDS = {"tt", "ff", "X", "F", "G", "U", "R"}


class _Token(ValueRecord):
    __slots__ = __match_args__ = ("kind", "text", "pos")


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
        if ch.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
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


def is_identifier(text: str) -> bool:
    """Does a formula read `text` as one proposition name?  The keywords
    and the reserved atoms, the coloring propositions p@i and $true, are
    not read so."""
    try:
        tokens = _tokenize(text)
    except ParseError:
        return False
    return len(tokens) == 2 and tokens[0].kind == "ident" and tokens[0].text not in _KEYWORDS


def _expected(what: str, token: _Token) -> ParseError:
    return ParseError(f"expected {what}, found {token.text or 'end of input'!r}", token.pos)


def _bracket(tokens: list[_Token], i: int) -> tuple[Optional[tuple[str, str, int]], int]:
    """The bound `[<=x@2]` or `[>y]` that may start at `tokens[i]`, as
    (relation, variable, coordinate) or None, and the index after it."""
    if tokens[i].kind != "[":
        return None, i
    rel = tokens[i + 1]
    if rel.kind not in ("<=", ">"):
        raise ParseError("expected '<=' or '>' inside brackets", rel.pos)
    var = tokens[i + 2]
    if var.kind != "ident" or var.text in _KEYWORDS:
        raise ParseError("expected a variable name inside brackets", var.pos)
    i += 3
    coord = 1
    if tokens[i].kind == "@":
        if tokens[i + 1].kind != "int":
            raise _expected("'int'", tokens[i + 1])
        coord = int(tokens[i + 1].text)
        if coord < 1:
            raise ParseError("coordinate index must be >= 1", tokens[i + 1].pos)
        i += 2
    if tokens[i].kind != "]":
        raise _expected("']'", tokens[i])
    return (rel.kind, var.text, coord), i + 1


def _apply(op: str, bound: Optional[tuple[str, str, int]], operands: list[Formula]) -> None:
    """Replace the operands of a pending operator, on top of `operands`,
    by the formula it builds from them."""
    phi = operands.pop()
    if op in _BINARY:
        left = operands.pop()
        node = _BINARY[op][2]
        if bound is not None:
            phi = expand_derived(op + bound[0], (left, phi), var=bound[1], coord=bound[2])
        elif node is None:
            phi = expand_derived(op, (left, phi))
        else:
            phi = node(left, phi)
    elif op == "!":
        phi = negate(phi)
    elif op == "X":
        phi = Next(phi)
    elif bound is None:
        phi = expand_derived(op, (phi,))
    elif bound[0] == "<=":
        phi = (FLe if op == "F" else GLe)(bound[1], bound[2], phi)
    else:
        phi = expand_derived(op + ">", (phi,), var=bound[1], coord=bound[2])
    operands.append(phi)


def parse(text: str) -> Formula:
    """Parse concrete syntax into an NNF tree.

    Grammar, loosest to tightest: ->, |, &, U/R (-> and U/R group to the
    right), unary (! X F G and the bracketed cost-bounded forms), atoms.
    `kappa` abbreviates `kappa1`.  One operator-precedence loop reads the
    input, with its operands, pending operators and open parentheses on
    explicit stacks, so operator chains may be any length and parentheses
    may nest to any depth.
    """
    tokens = _tokenize(text)
    operands: list[Formula] = []
    # (strength, operator, bound), innermost last; an open parenthesis is
    # (0, "(", None), weaker than every operator, so it stops a reduction.
    pending: list[tuple[int, str, Optional[tuple[str, str, int]]]] = []
    depth = 0  # open parentheses on `pending`
    i = 0
    while True:
        # An operand: prefix operators and open parentheses, then a name.
        token = tokens[i]
        while token.text in ("(", "!", "X", "F", "G"):
            bound, i = _bracket(tokens, i + 1) if token.text in ("F", "G") else (None, i + 1)
            depth += token.text == "("
            pending.append((0 if token.text == "(" else _PREC_UNARY, token.text, bound))
            token = tokens[i]
        if token.kind != "ident":
            raise _expected("a formula", token)
        if token.text == "tt":
            operands.append(tt())
        elif token.text == "ff":
            operands.append(ff())
        elif token.text in _KEYWORDS:
            raise ParseError(f"{token.text!r} is an operator, not a proposition", token.pos)
        else:
            operands.append(Atom(kappa_name(1) if token.text == KAPPA_PREFIX else token.text))
        i += 1
        # Closing parentheses, then a binary operator or the end.
        token = tokens[i]
        while token.kind == ")" and depth:
            while pending[-1][1] != "(":
                _apply(*pending.pop()[1:], operands)
            pending.pop()
            depth -= 1
            i += 1
            token = tokens[i]
        if token.text not in _BINARY:
            break
        strength, right_assoc, _ = _BINARY[token.text]
        while pending and (
            pending[-1][0] > strength or pending[-1][0] == strength and not right_assoc
        ):
            _apply(*pending.pop()[1:], operands)
        bound, i = _bracket(tokens, i + 1) if token.text in ("U", "R") else (None, i + 1)
        pending.append((strength, token.text, bound))
    if depth:
        raise _expected("')'", token)
    if token.kind != "eof":
        raise ParseError(f"unexpected trailing input {token.text!r}", token.pos)
    while pending:
        _apply(*pending.pop()[1:], operands)
    return operands[0]
