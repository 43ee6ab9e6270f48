"""The package's top-level API and the README section that documents it."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import cpltl
from cpltl.formula import And, Atom, FLe, parse
from cpltl.modelcheck import ExistsResult, FixedResult, ForallResult
from cpltl.optimize import OptimizeResult
from cpltl.system import LassoPath
from cpltl.trace import Changepoints, CostLetter

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_section() -> str:
    text = README.read_text()
    start = text.index("## Library use")
    return text[start : text.index("\n## ", start + 1)]


def test_every_exported_name_resolves():
    assert len(cpltl.__all__) == len(set(cpltl.__all__))
    for name in cpltl.__all__:
        assert hasattr(cpltl, name), name


def test_readme_import_line_runs():
    section = _library_section()
    code = section[section.index("```python\n") + len("```python\n") :]
    import_line = code[: code.index("\n\n")]
    assert import_line.startswith("from cpltl import (")
    exec(compile(import_line, "README.md", "exec"), {})


def test_readme_lists_exactly_the_exports():
    section = _library_section()
    prose = section[section.index("```\n", section.index("```python")) :]
    listed = set(re.findall(r"`([A-Za-z_]\w*)`", prose))
    assert listed == set(cpltl.__all__)


def test_import_does_not_load_dataclasses():
    # Generating the record classes' methods at import was a quarter of
    # every query process's set-up time.
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = "import sys, cpltl; print('dataclasses' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        check=True,
    )
    assert proc.stdout.strip() == "False"


def test_records_refuse_assignment():
    path = LassoPath(("s0",), ("s1",))
    records = [
        (parse("G (q -> F[<=x] p)"), "left"),
        (FLe("x", 1, Atom("p")), "coord"),
        (path, "loop"),
        (ExistsResult(True, 3, None, 10, 20, 5), "holds"),
        (FixedResult(holds=False, counterexample=path, explored=4), "counterexample"),
        (ForallResult(True, 3, {"y": 3}, None), "corner"),
        (OptimizeResult("optimal", 2, {"x": 2}, 9, 4), "value"),
    ]
    for record, field in records:
        before = repr(record)
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
        assert repr(record) == before


def test_value_records_compare_and_hash_by_value():
    pairs = [
        (LassoPath(("s0",), ("s1",)), LassoPath(prefix=("s0",), loop=("s1",)), LassoPath((), ("s1",))),
        (CostLetter(frozenset("p"), (1,)), CostLetter(frozenset("p"), (1,)), CostLetter(frozenset(), (1,))),
        (Changepoints((0, 2), (2,), 2), Changepoints((0, 2), (2,), 2), Changepoints((0,), (), 2)),
    ]
    for record, twin, other in pairs:
        assert record is not twin and record == twin and hash(record) == hash(twin)
        assert record != other
        assert len({record, twin, other}) == 2
        assert hash(record) == hash(tuple(getattr(record, f) for f in record.__match_args__))
    # the class takes part in equality: a record is not the tuple of its fields
    assert LassoPath((), ("s1",)) != ((), ("s1",))


def test_record_constructors_and_repr():
    assert And(Atom("p"), Atom("q")) == And(left=Atom("p"), right=Atom("q"))
    result = OptimizeResult("optimal", 2, {"x": 2}, 9, 4)
    assert result.empty_domain is False
    assert repr(result) == (
        "OptimizeResult(status='optimal', value=2, witness={'x': 2}, bound=9, probes=4, "
        "empty_domain=False)"
    )
    assert repr(FixedResult(True, None, 0)) == (
        "FixedResult(holds=True, counterexample=None, explored=0)"
    )
    for args, kwargs in [((True, None), {}), ((True, None), {"explored": 0, "extra": 1})]:
        with pytest.raises(TypeError):
            FixedResult(*args, **kwargs)
