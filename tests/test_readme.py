"""Every python code block in README.md runs, so an API change that leaves
an example stale fails here."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text()
#: (first line number, source) of each block
BLOCKS = [(TEXT.count("\n", 0, m.start(1)) + 1, m.group(1)) for m in re.finditer(r"^```python\n(.*?)^```", TEXT, re.M | re.S)]


def test_readme_has_a_python_example():
    assert BLOCKS


@pytest.mark.parametrize("line, source", BLOCKS, ids=[f"line{line}" for line, _ in BLOCKS])
def test_readme_block_runs(line, source):
    # padded so that a traceback names the README's own line numbers
    exec(compile("\n" * (line - 1) + source, str(README), "exec"), {})
