"""The README runs as written: its library quickstart prints the values
its comments give, its command-line transcript prints the lines it
shows, and its command table names each command's option groups."""

import pathlib
import re
import shlex

import layerlab  # noqa: F401  (loaded at collection, as the other modules do)
from layerlab import cli

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"

# a float as repr prints it, and a value a comment gives as its leading
# digits followed by "..."
_FLOAT = re.compile(r"\d+\.\d+(?:e[+-]?\d+)?")
_PREFIX = re.compile(r"(\d+\.\d+)\.\.\.")


def _section(title: str) -> str:
    return README.read_text().split(f"## {title}\n", 1)[1].split("\n## ", 1)[0]


def _quickstart() -> str:
    section = _section("Library quickstart")
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_quickstart_prints_its_commented_values(capsys):
    code = _quickstart()
    exec(compile(code, str(README), "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    prints = [line for line in code.splitlines() if line.startswith("print(")]
    assert len(printed) == len(prints)
    checked = 0
    for line, out in zip(prints, printed):
        want = _PREFIX.findall(line.partition("#")[2])
        if want:
            got = _FLOAT.findall(out)
            assert len(got) == len(want), (line, out)
            assert all(g.startswith(w) for g, w in zip(got, want)), (line, out)
            checked += 1
    # Psi at (1e-2, 1) and the two plate transition constants
    assert checked == 2


def _transcript() -> list:
    """The `$ layerlab ...` lines of the command-line section's text
    block that are followed by output, as (argv, shown lines); a line
    "..." ends what is shown."""
    block = _section("Command line").split("```text\n", 1)[1].split("```", 1)[0]
    runs = []
    for line in block.splitlines():
        if line.startswith("$ layerlab "):
            runs.append((shlex.split(line[2:], comments=True)[1:], []))
        elif line.strip():
            runs[-1][1].append(line)
    return [(argv, shown) for argv, shown in runs if shown]


def test_readme_command_transcript_prints_its_lines(capsys):
    runs = _transcript()
    assert [argv[0] for argv, _ in runs] == [
        "plate-modulus", "sphere-force", "regime-classify"]
    for argv, shown in runs:
        assert cli.main(argv) == 0, argv
        printed = capsys.readouterr().out.splitlines()
        if shown[-1].strip() == "...":
            shown = shown[:-1]
            printed = printed[:len(shown)]
        assert printed == shown, argv


def test_readme_command_table_matches_the_parser():
    lines = _section("Command line").splitlines()
    header = next(line for line in lines if line.startswith("| command |"))
    groups = [g.strip() for g in header.strip("|").split("|")[1:]]
    rows = [line.strip("|").split("|") for line in lines
            if line.startswith("| `")]
    table = {row[0].strip().strip("`"): {g for g, mark in zip(groups, row[1:])
                                         if mark.strip() == "x"}
             for row in rows}
    # the grid column stands for either grid group: Z across the plate
    # layer, or across the local gap of a sphere layer
    want = {name: {"grid" if g == "gap_grid" else g for g in spec.split()}
            for name, _, spec, _ in cli._COMMANDS}
    assert table == want


# a quoted command and the one line it prints: "`<argv>` prints `<line>`"
_PRINTS = re.compile(r"`([^`]+)` prints `([^`]+)`")
# the exit status each kind of failure line carries
_STATUS = {"error:": 2, "numerical failure:": 3, "i/o failure:": 3}


def _printed_lines() -> list:
    """The (argv, line) pairs the command-line section quotes, with the
    prose's line breaks read as spaces."""
    text = " ".join(_section("Command line").split())
    return [(shlex.split(argv), line) for argv, line in _PRINTS.findall(text)]


def test_readme_quoted_failures_print_their_lines(capsys):
    # each quoted failure prints its line (a trailing "..." shows only its
    # start) on stderr, and exits with its kind's status
    pairs = _printed_lines()
    assert len(pairs) >= 5, pairs
    for argv, line in pairs:
        status = next(code for prefix, code in _STATUS.items()
                      if line.startswith(prefix))
        assert cli.main(argv) == status, argv
        err = capsys.readouterr().err
        assert err.count("\n") == 1, (argv, err)
        if line.endswith("..."):
            assert err.startswith(line[:-3]), (argv, err)
        else:
            assert err == line + "\n", (argv, err)
