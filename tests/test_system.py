"""Weighted transition systems: parsing, validation, lasso enumeration."""

import itertools
import random
import re

import numpy
import pytest

from conftest import SYS_A_TEXT, SYS_STREETT_TEXT, random_system
from cpltl.system import (
    LassoPath,
    SystemFormatError,
    TransitionSystem,
    canonical_lasso,
    check_path,
    enumerate_lassos,
    parse_system,
    trace_of,
    validate,
)


def test_sys_a_parse():
    sys_a = parse_system(SYS_A_TEXT)
    assert sys_a.states == ("s0", "s1")
    assert sys_a.initial == "s0"
    assert sys_a.d == 1
    assert sys_a.labels["s0"] == frozenset(["q"])
    assert sys_a.labels["s1"] == frozenset(["p", "kappa1"])
    assert sys_a.edges == {"s0": ("s1",), "s1": ("s0", "s1")}
    assert sys_a.cost == {("s0", "s1"): (3,), ("s1", "s0"): (0,), ("s1", "s1"): (1,)}
    assert sys_a.max_cost == 3
    assert sys_a.successors("s1") == ("s0", "s1")
    assert validate(sys_a) == []


def test_streett_fixture_valid():
    sys_b = parse_system(SYS_STREETT_TEXT)
    assert sys_b.d == 2
    assert validate(sys_b) == []


@pytest.mark.parametrize("label", ["p@1", "p@2", "$true", "p-q", "1p"])
def test_parse_system_rejects_labels_a_formula_cannot_name(label):
    # p@i and $true are reserved: the exists product chooses the coloring
    # propositions itself, so a system label p@1 read as a color that is
    # always chosen
    text = SYS_A_TEXT.replace("state s0 init : q", f"state s0 init : q {label}")
    assert text != SYS_A_TEXT
    with pytest.raises(SystemFormatError, match=re.escape(repr(label))):
        parse_system(text)


@pytest.mark.parametrize("label", ["X", "F", "G", "U", "R", "tt", "ff"])
def test_parse_system_rejects_keyword_labels(label):
    # no formula reads a keyword as a proposition: parse("X") is an error
    # and parse("tt") the constant
    text = SYS_A_TEXT.replace("state s0 init : q", f"state s0 init : q {label}")
    with pytest.raises(SystemFormatError, match=re.escape(repr(label))):
        parse_system(text)


def test_validate_rejects_kappa_mutations():
    sys_a = parse_system(SYS_A_TEXT)
    # positive-cost edge into a state lacking the corresponding flag
    broken = TransitionSystem(
        states=sys_a.states,
        initial=sys_a.initial,
        edges=sys_a.edges,
        labels={"s0": frozenset(["q"]), "s1": frozenset(["p"])},
        cost=sys_a.cost,
        d=1,
    )
    assert any("kappa1" in fault for fault in validate(broken))
    # zero-cost edge into a state that carries the flag
    broken = TransitionSystem(
        states=sys_a.states,
        initial=sys_a.initial,
        edges=sys_a.edges,
        labels={"s0": frozenset(["q", "kappa1"]), "s1": sys_a.labels["s1"]},
        cost=sys_a.cost,
        d=1,
    )
    assert any("kappa1" in fault for fault in validate(broken))


def test_validate_structural_faults():
    dead_end = TransitionSystem(
        states=("a", "b"),
        initial="a",
        edges={"a": ("b",)},
        labels={"a": frozenset(), "b": frozenset()},
        cost={("a", "b"): (0,)},
        d=1,
    )
    assert validate(dead_end)
    bad_initial = TransitionSystem(
        states=("a",),
        initial="z",
        edges={"a": ("a",)},
        labels={"a": frozenset()},
        cost={("a", "a"): (0,)},
        d=1,
    )
    assert validate(bad_initial)
    bad_vector = TransitionSystem(
        states=("a",),
        initial="a",
        edges={"a": ("a",)},
        labels={"a": frozenset()},
        cost={("a", "a"): (0, 0)},
        d=1,
    )
    assert validate(bad_vector)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "dim 1\n",                                   # no states
        "dim 1\nstate s0 : p\nedge s0 s0 : 0\n",     # no initial state
        "dim 1\nstate s0 init :\nstate s0 init :\nedge s0 s0 : 0\n",
        "dim 1\nstate s0 init :\nedge s0 s1 : 0\n",  # unknown endpoint
        "dim 1\nstate s0 init :\nedge s0 s0 : 0 0\n",
        "dim 1\nstate s0 init :\nedge s0 s0 : -1\n",
        "dim 1\nstate s0 init :\nedge s0 s0 0\n",
        "dim 2\nstate s0 init :\nedge s0 s0 : 0\n",
        "nonsense\n",
        "dim \u00b2\nstate s0 init :\nedge s0 s0 : 0\n",  # int() does not read it
    ],
)
def test_parse_system_errors(text):
    with pytest.raises(SystemFormatError):
        parse_system(text)


def test_trace_of_frozen():
    sys_a = parse_system(SYS_A_TEXT)
    path = LassoPath(("s0",), ("s1", "s0"))
    trace = trace_of(sys_a, path)
    assert trace.d == 1
    assert trace.letter(0).props == frozenset(["q"])
    assert trace.letter(1).props == frozenset(["p", "kappa1"])
    assert trace.letter(2).props == frozenset(["q"])
    assert trace.segment_cost(0, 1, 1) == 3
    assert trace.segment_cost(1, 2, 1) == 0
    # loop positions repeat forever with step costs 0 then 3
    assert trace.segment_cost(0, 4, 1) == 6
    assert trace.segment_cost(0, 5, 1) == 9


def test_check_path():
    sys_a = parse_system(SYS_A_TEXT)
    check_path(sys_a, LassoPath(("s0",), ("s1",)))
    with pytest.raises(SystemFormatError):
        check_path(sys_a, LassoPath(("s0", "s0"), ("s1",)))  # no edge s0 -> s0
    with pytest.raises(SystemFormatError):
        check_path(sys_a, LassoPath((), ("s1",)))  # must start at the initial state
    with pytest.raises(SystemFormatError):
        check_path(sys_a, LassoPath(("s0",), ("zz",)))


def test_canonical_lasso():
    assert canonical_lasso(("s0", "s1"), ("s0", "s1")) == LassoPath((), ("s0", "s1"))
    assert canonical_lasso((), ("s1", "s1")) == LassoPath((), ("s1",))
    assert canonical_lasso(("s0",), ("s1", "s1")) == LassoPath(("s0",), ("s1",))
    assert canonical_lasso(("s0", "s1"), ("s0", "s1", "s0", "s1")) == LassoPath(
        (), ("s0", "s1")
    )
    assert canonical_lasso(("a",), ("b", "a")) == LassoPath((), ("a", "b"))
    with pytest.raises(SystemFormatError):
        LassoPath(("a",), ())


def test_enumerate_lassos_frozen_small():
    sys_a = parse_system(SYS_A_TEXT)
    found = set(enumerate_lassos(sys_a, 3))
    assert found == {
        LassoPath((), ("s0", "s1")),
        LassoPath(("s0",), ("s1",)),
        LassoPath((), ("s0", "s1", "s1")),
    }
    assert set(enumerate_lassos(sys_a, 2)) == {
        LassoPath((), ("s0", "s1")),
        LassoPath(("s0",), ("s1",)),
    }


def test_enumerate_lassos_properties():
    rng = random.Random(409)
    for _ in range(15):
        system = random_system(rng)
        bound = 2 * len(system.states) + 2
        seen = set()
        for path in enumerate_lassos(system, bound):
            check_path(system, path)
            assert path.n_slots <= bound
            assert canonical_lasso(path.prefix, path.loop) == path
            assert path not in seen
            seen.add(path)
        # every raw prefix+loop combination normalizes into the output set
        for raw in _raw_lassos(system, bound):
            assert canonical_lasso(raw.prefix, raw.loop) in seen


def _raw_lassos(system, bound):
    """All initial lassos up to the length bound, by brute force."""
    for total in range(1, bound + 1):
        for cut in range(total):
            for walk in _walks(system, total):
                prefix, loop = walk[:cut], walk[cut:]
                if loop[0] in system.successors(loop[-1]):
                    yield LassoPath(tuple(prefix), tuple(loop))


def _walks(system, length):
    frontier = [[system.initial]]
    for _ in range(length - 1):
        frontier = [
            walk + [nxt]
            for walk in frontier
            for nxt in system.successors(walk[-1])
        ]
    return frontier


def test_walk_counts_match_adjacency_power():
    rng = random.Random(410)
    for _ in range(10):
        system = random_system(rng)
        n = len(system.states)
        index = {s: i for i, s in enumerate(system.states)}
        matrix = numpy.zeros((n, n), dtype=numpy.int64)
        for src, targets in system.edges.items():
            for dst in targets:
                matrix[index[src], index[dst]] = 1
        length = 6
        power = numpy.linalg.matrix_power(matrix, length)
        want = int(power[index[system.initial]].sum())
        assert len(_walks(system, length + 1)) == want
