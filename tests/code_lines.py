"""Code lines of each ``src/layerlab`` module, and their total.

A code line is a non-blank line that is not a comment and does not lie
inside a module, class or function docstring.  A line that holds code
and a trailing comment counts; a line of a multi-line expression counts
wherever the expression has a token on it.  This is the count the
project's design notes quote.  It is a measurement, not a test, and
pytest does not collect it.

    python tests/code_lines.py          # the working tree
    python tests/code_lines.py REV      # REV's counts, the tree's, the change

Given a git revision, each module's count at that revision (read with
``git show REV:src/layerlab/<module>``) is printed beside the working
tree's, with the difference; a module absent on one side counts 0 there.
"""

import ast
import io
import pathlib
import subprocess
import sys
import tokenize

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "layerlab"
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set:
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(text: str) -> int:
    """The number of code lines in one module's source."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(text)))


def _git(*args) -> str:
    """The stdout of git run with args in the repository root."""
    return subprocess.run(["git", *args], cwd=ROOT, check=True, text=True,
                          capture_output=True).stdout


def revision_counts(rev: str) -> dict:
    """{module file name: code lines} of src/layerlab at the git revision
    rev."""
    names = _git("ls-tree", "--name-only", rev, "src/layerlab/").split()
    return {name.rsplit("/", 1)[1]: code_lines(_git("show", f"{rev}:{name}"))
            for name in names if name.endswith(".py")}


def main(argv) -> int:
    tree = {path.name: code_lines(path.read_text())
            for path in sorted(SRC.glob("*.py"))}
    if not argv:
        for name, n in tree.items():
            print(f"{name:16s} {n:5d}")
        print(f"{'total':16s} {sum(tree.values()):5d}")
        return 0
    rev = revision_counts(argv[0])
    print(f"{'':16s} {argv[0][:10]:>10s} {'tree':>6s} {'change':>6s}")
    rows = [(name, rev.get(name, 0), tree.get(name, 0))
            for name in sorted(rev.keys() | tree.keys())]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    for name, old, new in rows:
        print(f"{name:16s} {old:10d} {new:6d} {new - old:+6d}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
