"""The README's examples, run as written: commands, outputs and library use."""

import re
import shlex
from pathlib import Path

import pytest

from spectral_complexity import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def fenced(lang):
    """Bodies of the README's fenced blocks in one language, in order."""
    return re.findall(rf"^```{lang}\n(.*?)^```$", README, re.M | re.S)


def shell_examples():
    """(argv, expected stdout) for each `$ spectral-complexity` block."""
    examples = []
    for block in fenced("text"):
        if not block.startswith("$ spectral-complexity "):
            continue
        lines = block.splitlines(keepends=True)
        command = lines.pop(0)
        while command.rstrip().endswith("\\"):
            command = command.rstrip()[:-1] + lines.pop(0)
        argv = shlex.split(command)[2:]
        examples.append((argv, "".join(lines)))
    return examples


def test_readme_has_the_examples_checked_here():
    assert [argv[0] for argv, _ in shell_examples()] == [
        "complexity", "mds", "descriptors", "benchmark"]
    assert len(fenced("python")) == 1


def test_command_examples_print_what_the_readme_shows(tmp_path, capsys,
                                                      monkeypatch):
    (csv_block,) = fenced("csv")
    (tmp_path / "mini.csv").write_text(csv_block)
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("SPECTRAL_COMPLEXITY_THREADS", raising=False)
    # In order: mds reads the report that the complexity example writes.
    for argv, expected in shell_examples():
        assert cli.main(argv) == 0, argv
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (expected, ""), argv


def test_library_example_runs(capsys):
    (snippet,) = fenced("python")
    exec(compile(snippet, "README.md", "exec"), {})
    score = float(capsys.readouterr().out)
    assert score >= 0
