"""Every ```python block of README.md runs as written, so the claims its
examples assert stay true of the code."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text()
# (line of the block's first code line, its code)
BLOCKS = [(TEXT.count("\n", 0, m.start(1)) + 1, m.group(1))
          for m in re.finditer(r"^```python\n(.*?)^```$", TEXT, re.DOTALL | re.MULTILINE)]


def test_readme_has_python_blocks():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("line,code", BLOCKS, ids=[f"line{n}" for n, _ in BLOCKS])
def test_readme_block_runs(line, code):
    exec(compile("\n" * (line - 1) + code, README.name, "exec"), {"__name__": "readme"})
