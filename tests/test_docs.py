"""Every documented ``python -m repro.experiments`` command line still parses.

README.md and EXPERIMENTS.md show the CLI in shell blocks and in inline code.
Each such line is parsed with the CLI's own parser and every command it names
has its config built, so a command or flag that goes away fails here.
Nothing runs.
"""

import re
import shlex
from pathlib import Path

import pytest

from repro.experiments.cli import _build_parser, _configs

ROOT = Path(__file__).resolve().parents[1]
PROGRAM = r"(?:PYTHONPATH=\S+\s+)?(?:python3? -m repro\.experiments|repro-experiments)\b"
#: Where a shell line stops being the command's arguments.
SHELL_ENDS = {"|", "||", "&&", ";", ">", ">>", "2>&1"}


def command_lines(text):
    """The argument strings of every CLI invocation in ``text``: shell lines
    (continuations joined) and inline code spans (which may wrap)."""
    text = text.replace("\\\n", " ")
    shell = [m.group(1) for m in re.finditer(rf"(?m)^\s*{PROGRAM}(.*)$", text)]
    inline = re.findall(rf"`{PROGRAM}([^`]*)`", text)
    return shell + inline


def argv_of(arguments):
    """Shell arguments -> argv: comments dropped, ``$VARS`` filled in, elided
    (``...``) words dropped, cut where a pipe or redirection starts."""
    words = shlex.split(re.sub(r"\$\{?\w+\}?", "x", arguments), comments=True)
    cut = next((i for i, word in enumerate(words) if word in SHELL_ENDS), len(words))
    return [word for word in words[:cut] if word != "..."]


DOCUMENTED = [
    pytest.param(argv_of(arguments), id=f"{doc}:{' '.join(argv_of(arguments)) or '-'}")
    for doc in ("README.md", "EXPERIMENTS.md")
    for arguments in command_lines((ROOT / doc).read_text())
]


PARSER = _build_parser()


def test_the_docs_show_the_cli():
    assert len(DOCUMENTED) >= 40


@pytest.mark.parametrize("argv", DOCUMENTED)
def test_documented_command_line_parses(argv):
    args = PARSER.parse_args(argv)
    if not (args.list or args.list_scenarios):
        assert _configs(PARSER, args).keys() == set(args.experiments) or args.experiments == ["all"]
