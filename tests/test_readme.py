"""The README's usage examples run as written.

The package root re-exports nothing, so the README's ```python blocks,
which import each name from its module, are the documented API.  Each block
runs in a fresh namespace and must print exactly its committed output.
"""

import contextlib
import io
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"

# The stdout of each ```python block, in README order.
EXPECTED = [
    "4.430004453351147\n2 139 17\n",  # Quick start
]


def python_blocks():
    return re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.DOTALL | re.MULTILINE)


def test_every_block_has_an_expected_output():
    assert len(python_blocks()) == len(EXPECTED)


@pytest.mark.parametrize("index", range(len(EXPECTED)))
def test_block_prints_its_committed_output(index):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(python_blocks()[index], f"README.md block {index}", "exec"), {})
    assert out.getvalue() == EXPECTED[index]
