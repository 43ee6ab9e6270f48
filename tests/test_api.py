"""The package's top-level API and the README section that documents it."""

import re
from pathlib import Path

import cpltl

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
