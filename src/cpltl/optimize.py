"""Optimal parameter valuations against a weighted transition system.

Each objective pairs an aggregation over the valuation's values (min or
max) with an optimization direction.  Minimization applies to formulas
whose parameters all bound F[<=] operators: their feasible sets are upward
closed in every variable.  Maximization applies to G[<=]-only formulas,
whose feasible sets are downward closed.  Either way the objective reduces
to monotone threshold searches against check_fixed.  The permissive corner
(F-budgets at the valuation bound, G-budgets at zero) is checked first;
when it fails the objective is infeasible.  min-min and max-max then search
one line per variable, the other variables held at the corner; min-max and
max-min search one line of uniform valuations.  A maximization line is
unbounded exactly when the formula, with the variables off the line pinned
at zero, holds for every valuation, which modelcheck decides without a
budget.  Each search gallops 0, 1, 2, 4, ... and bisects the last gap, so
its probes grow with the logarithm of the optimum, not of the bound.

Monotonicity holds per variable whatever coordinate the variable's
operators read, so the same searches serve any number of cost
coordinates.  The bound translates the negated relativized formula
alone, without the consistency formula, so several coordinates cost no
more translation than one.
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from typing import Callable, Mapping, Optional

from .formula import (
    Formula,
    FragmentError,
    eliminate_parametric_always,
    require_well_formed,
)
from .modelcheck import (
    ModelCheckError,
    budget_ladder,
    check_fixed,
    forall_holds,
    valuation_upper_bound,
)
from .record import Record
from .system import TransitionSystem


class Objective(enum.Enum):
    MIN_MIN = "min-min"
    MIN_MAX = "min-max"
    MAX_MAX = "max-max"
    MAX_MIN = "max-min"


OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


class OptimizeResult(Record):
    __slots__ = __match_args__ = ("status", "value", "witness", "bound", "probes", "empty_domain")

    def __init__(self, status, value, witness, bound, probes, empty_domain=False):
        super().__init__(status, value, witness, bound, probes, empty_domain)


def binary_search_threshold(
    predicate: Callable, lo: int, hi: int, find: str = "least"
) -> Optional[int]:
    """Threshold of a monotone predicate on the integer range [lo, hi].

    find='least'  : predicate goes False->True; returns the least true
                    point, or None when predicate(hi) is false.
    find='greatest': predicate goes True->False; returns the greatest true
                    point, or None when predicate(lo) is false.
    Bisection never probes a point twice, so the predicate is called at
    most ceil(log2(hi - lo + 1)) + 1 times.
    """
    if lo > hi:
        return None
    if find == "least":
        if not predicate(hi):
            return None
        return lo + bisect_left(range(lo, hi), True, key=predicate)
    if find == "greatest":
        if not predicate(lo):
            return None
        return hi - bisect_left(range(hi, lo, -1), True, key=predicate)
    raise ValueError(f"find must be 'least' or 'greatest', got {find!r}")


def gallop_threshold(
    predicate: Callable, cap: int, find: str = "least"
) -> Optional[int]:
    """binary_search_threshold on [0, cap], found by galloping.

    Probes 0, 1, 2, 4, ... (the last one capped at cap) until the predicate
    changes, then bisects the last gap, so no probe lies above twice the
    threshold plus one.  The bisection asks the gap's ends again; pass a
    memoized predicate.
    """
    if find not in ("least", "greatest"):
        raise ValueError(f"find must be 'least' or 'greatest', got {find!r}")
    least = find == "least"
    previous = None
    for value in budget_ladder(cap):
        if predicate(value) == least:
            if least:
                start = 0 if previous is None else previous + 1
                return binary_search_threshold(predicate, start, value, find)
            if previous is None:
                return None
            return binary_search_threshold(predicate, previous, value - 1, find)
        previous = value
    return None if least else cap


def optimize_mc(
    system: TransitionSystem,
    phi: Formula,
    objective,
) -> OptimizeResult:
    """Best value of the objective over valuations making phi hold on
    every run, with a witness valuation when one exists.

    Every probe is a check_fixed, asked at most once per valuation; the
    bound is valuation_upper_bound, for any number of coordinates.
    Raises FragmentError when the formula's parameters do not match the
    objective's direction.
    """
    objective = Objective(objective)
    profile = require_well_formed(phi)
    minimizing = objective in (Objective.MIN_MIN, Objective.MIN_MAX)
    if minimizing:
        if profile.var_g:
            raise FragmentError(
                "minimization needs every parameter on an F[<=] operator"
            )
        variables = sorted(profile.var_f)
    else:
        if profile.var_f:
            raise FragmentError(
                "maximization needs every parameter on a G[<=] operator"
            )
        variables = sorted(profile.var_g)

    bound = valuation_upper_bound(system, phi)
    memo: dict = {}
    probes = 0

    def feasible(valuation: Mapping) -> bool:
        nonlocal probes
        key = tuple(sorted(valuation.items()))
        if key not in memo:
            probes += 1
            memo[key] = check_fixed(system, phi, valuation).holds
        return memo[key]

    def result(status, value, witness) -> OptimizeResult:
        return OptimizeResult(
            status=status,
            value=value,
            witness=witness,
            bound=bound,
            probes=probes,
            empty_domain=not variables,
        )

    # min-min and max-max move one variable at a time with the others left
    # at the permissive corner (F-budgets at the bound, G-budgets at zero);
    # min-max and max-min move all of them as one value.
    per_variable = objective in (Objective.MIN_MIN, Objective.MAX_MAX)
    lines = [(x,) for x in variables] if per_variable else [tuple(variables)]
    corner = dict.fromkeys(variables, bound if minimizing else 0)

    def point(line, v: int) -> dict:
        return {**corner, **dict.fromkeys(line, v)}

    if not feasible(corner):
        return result(INFEASIBLE, None, None)
    if not variables:
        return result(OPTIMAL, 0, {})

    find = "least" if minimizing else "greatest"
    best = None
    witness = None
    for line in lines:
        if not minimizing:
            # The variables off the line stay at 0, which the rewrite of
            # their G[<=] operators states exactly.
            others = frozenset(variables) - set(line)
            pinned = eliminate_parametric_always(phi, only_vars=others)
            if forall_holds(system, pinned):
                return result(UNBOUNDED, None, None)
        value = gallop_threshold(lambda v: feasible(point(line, v)), bound, find)
        if not minimizing and value == bound:
            raise ModelCheckError(
                "search line feasible at the bound but not for every value"
            )
        if best is None or (value < best if minimizing else value > best):
            best = value
            witness = point(line, value)
    return result(OPTIMAL, best, witness)

