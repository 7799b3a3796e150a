"""The README's library quickstart runs as written and prints the values
its comments give."""

import pathlib
import re

import layerlab  # noqa: F401  (loaded at collection, as the other modules do)

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"

# a float as repr prints it, and a value a comment gives as its leading
# digits followed by "..."
_FLOAT = re.compile(r"\d+\.\d+(?:e[+-]?\d+)?")
_PREFIX = re.compile(r"(\d+\.\d+)\.\.\.")


def _quickstart() -> str:
    section = README.read_text().split("## Library quickstart", 1)[1]
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
