"""The library example in README.md runs against the current API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example():
    """Source of the first fenced python block under '## Library example'."""
    section = README.read_text(encoding="utf-8").split("\n## Library example\n", 1)[1]
    match = re.search(r"^```python\n(.*?)^```", section, re.DOTALL | re.MULTILINE)
    assert match, "README.md has no python block under '## Library example'"
    return match.group(1)


def test_library_example_runs(capsys):
    exec(compile(library_example(), str(README), "exec"), {})
    assert "[2.+0.j]" in capsys.readouterr().out
