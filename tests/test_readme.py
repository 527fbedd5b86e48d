"""The README's Python examples run as written.

Every fenced ``python`` block of README.md is executed in a fresh
namespace, so a removed keyword or a renamed public name in the
documented library surface fails here.
"""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                    flags=re.MULTILINE | re.DOTALL)


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_block_runs(index, capsys):
    exec(compile(BLOCKS[index], f"README.md python block {index + 1}", "exec"),
         {"__name__": "readme"})
    assert capsys.readouterr().out
