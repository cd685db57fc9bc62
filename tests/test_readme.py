"""README examples as tests: the Library block runs and prints what its
comments say, and every Command line example exits 0."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from dlgraph.cli import EXIT_OK, main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def fenced_block(section: str, language: str) -> str:
    """The first ``language`` code block under the ``## section`` heading."""
    match = re.search(rf"^## {re.escape(section)}\n.*?^```{language}\n(.*?)^```", README, re.M | re.S)
    assert match, f"no {language} block under '## {section}'"
    return match.group(1)


def test_library_example_prints_its_commented_values():
    block = fenced_block("Library", "python")
    namespace: dict = {}
    exec(compile(block, "README.md", "exec"), namespace)
    pairs = (line.split("  # ", 1) for line in block.splitlines() if "  # " in line)
    comments = {code.strip(): comment.strip() for code, comment in pairs}
    assert comments["graph.census().degree_histogram"] == "{2: 27, 3: 8, 5: 30}"
    assert eval("graph.census().degree_histogram", namespace) == {2: 27, 3: 8, 5: 30}
    assert comments["scene.segments[0]"] == "('tree-p', (3, 0, 2), (7, 0, 0))"
    assert repr(eval("scene.segments[0]", namespace)) == "('tree-p', (3, 0, 2), (7, 0, 0))"
    assert comments["graph.neighbors((1, 0, 0))"] == "3 down-neighbours + 2 up-neighbours"
    heights = [h for h, _, _ in eval("graph.neighbors((1, 0, 0))", namespace)]
    assert heights == [0, 0, 0, 2, 2]
    assert namespace["document"].startswith(r"\documentclass") and "view={165}{10}" in namespace["document"]
    assert namespace["side"].startswith("<?xml")


COMMANDS = [line.split("#", 1)[0].strip() for line in fenced_block("Command line", "sh").splitlines()]


@pytest.mark.parametrize("command", [c for c in COMMANDS if c])
def test_command_line_example_exits_zero(tmp_path, monkeypatch, capsys, command):
    argv = shlex.split(command)
    assert argv[0] == "dlgraph"
    monkeypatch.chdir(tmp_path)
    assert main(argv[1:]) == EXIT_OK
    capsys.readouterr()
