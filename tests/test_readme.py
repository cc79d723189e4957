"""The README's usage examples run as written.

The package root re-exports nothing, so the README's ```python blocks,
which import each name from its module, are the documented API.  Each block
runs in a fresh namespace and must print exactly its committed output.
Every ``noisysum`` command in a ```sh block must parse with the CLI's own
parser (parse only; nothing runs), so an example cannot keep a removed flag.
The table of ``simulate``'s experiment flags must match ``cli._SIMULATE``.
"""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from noisysum import cli
from noisysum.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"

# The stdout of each ```python block, in README order.
EXPECTED = [
    "4.430004453351147\n2 139 17\n",  # Quick start
]


def blocks(language):
    pattern = rf"^```{language}\n(.*?)^```$"
    return re.findall(pattern, README.read_text(), re.DOTALL | re.MULTILINE)


def cli_examples():
    """The argv after ``noisysum`` of each command in a ```sh block, with
    backslash continuations joined and # comments stripped."""
    examples = []
    for block in blocks("sh"):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv[:1] == ["noisysum"]:
                examples.append(argv[1:])
    return examples


def test_every_block_has_an_expected_output():
    assert len(blocks("python")) == len(EXPECTED)


@pytest.mark.parametrize("index", range(len(EXPECTED)))
def test_block_prints_its_committed_output(index):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks("python")[index], f"README.md block {index}", "exec"), {})
    assert out.getvalue() == EXPECTED[index]


def test_cli_examples_cover_every_subcommand():
    assert {argv[0] for argv in cli_examples()} == {
        "estimate", "simulate", "oracle", "identities", "lowerbound"
    }


@pytest.mark.parametrize("argv", cli_examples(), ids=lambda argv: argv[0])
def test_cli_example_parses(argv):
    # argparse exits 2 on an unknown or malformed flag
    assert build_parser().parse_args(argv).command == argv[0]


def test_simulate_flag_table_matches_the_cli():
    text = README.read_text()
    assert "| flag | " + " | ".join(cli._SIMULATE) + " |" in text
    rows = {}
    for line in text.splitlines():
        if line.startswith("| `--"):
            flag, *cells = (cell.strip() for cell in line.split("|")[1:-1])
            rows[flag.strip("`")] = cells
    said = {None: "read", cli._REQUIRED: "required", "": ""}
    flags = {flag for _, reads in cli._SIMULATE.values() for flag in reads}
    assert rows == {
        "--" + flag.replace("_", "-"): [
            said.get(default := reads.get(flag, ""), str(default))
            for _, reads in cli._SIMULATE.values()
        ]
        for flag in flags
    }
