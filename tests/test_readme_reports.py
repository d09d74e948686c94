"""The reports of the README's command lines are byte-stable: each
command in its "Command line" block prints exactly its stored report
in tests/data/readme_reports.json.  So do both suites: each prints the
stdout and stderr stored in tests/data/suite_reports.json."""

import json
import shlex
from pathlib import Path

import pytest

from pncalc.cli import main

ROOT = Path(__file__).resolve().parent.parent
REPORTS = json.loads((ROOT / "tests" / "data" / "readme_reports.json").read_text(encoding="utf-8"))
SUITES = json.loads((ROOT / "tests" / "data" / "suite_reports.json").read_text(encoding="utf-8"))


def readme_commands() -> list[str]:
    """The lines of the first code block after the "Command line"
    heading, without the program name."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```\n", 2)[1]
    return [line.removeprefix("pncalc ") for line in block.splitlines()]


COMMANDS = readme_commands()


def test_readme_commands_are_the_stored_ones():
    assert sorted(COMMANDS) == sorted(REPORTS)


@pytest.mark.parametrize("command", COMMANDS, ids=[c.split()[0] for c in COMMANDS])
def test_readme_report_is_byte_stable(capsys, monkeypatch, command):
    monkeypatch.delenv("PNCALC_SEED", raising=False)  # the reports embed the default seed
    assert main(shlex.split(command)) == 0
    assert capsys.readouterr().out == REPORTS[command]


@pytest.mark.parametrize("command", sorted(SUITES))
def test_suite_report_is_byte_stable(capsys, monkeypatch, command):
    monkeypatch.delenv("PNCALC_SEED", raising=False)  # the reports embed the default seed
    assert main(command.split()) == 0
    out, err = capsys.readouterr()
    assert (out, err) == (SUITES[command]["stdout"], SUITES[command]["stderr"])
