"""The README's library quick tour and command-line examples run as written."""

import pathlib
import re
import shlex

from click.testing import CliRunner

from spdim.cli import main

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_library_quick_tour_runs():
    tour = README.read_text(encoding="utf-8").split("## Library quick tour", 1)[1]
    block = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    exec(compile(block, "README.md (library quick tour)", "exec"), {})


def test_command_line_examples_run():
    # Each line of the "Command line" block, its pipes included, in process:
    # every stage exits 0, the ``dim`` line prints 3 as its comment says, and
    # every verb appears at least once, so a line dropped with its verb is noticed.
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    lines = re.search(r"```sh\n(.*?)```", section, re.S).group(1).splitlines()
    verbs = set()
    for line in lines:
        text = None
        for stage in line.split("#", 1)[0].split("|"):
            program, *args = shlex.split(stage)
            assert program == "spdim", line
            verbs.add(args[0])
            res = CliRunner().invoke(main, args, input=text, catch_exceptions=False)
            assert res.exit_code == 0, (line, res.stderr)
            text = res.stdout
        if args == ["dim"]:
            assert text == "3\n", line
    assert verbs == set(main.commands)
