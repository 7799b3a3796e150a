"""Statements of ``src/layerlab`` that a Tier-1 run never executes.

Runs the Tier-1 suite (``pytest -q --continue-on-collection-errors`` on
``tests/``) in this process under a line tracer (``sys.settrace``, and
``threading.settrace`` for threads the run starts), then prints, module
by module, every statement of ``src/layerlab/*.py`` that never ran, with
its first line, and names every module the run never imported.

A statement is read from the module's ``ast``, from its first line (its
first decorator's, for a decorated definition) to its last, and counts
as run when any of those lines ran: a compound statement whose body ran
has run, and a statement of its body that never ran is still named.
Docstrings run no code and are skipped (``code_lines.docstring_lines``).
Code run in a child process (the fresh-process CLI test, say) is not
seen.  It is a measurement, not a test: it exits 0 whatever it finds,
and pytest does not collect it.

    python tests/line_reach.py              # the whole Tier-1 run
    python tests/line_reach.py -k cli       # extra arguments go to pytest
"""

import ast
import os
import sys
import threading

from code_lines import ROOT, SRC, docstring_lines


def statements(path) -> list:
    """(first line, last line) of every statement of the module at path
    that is not a docstring, in source order."""
    tree = ast.parse(path.read_text())
    skip = docstring_lines(tree)
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, ast.stmt) and node.lineno not in skip:
            first = min([node.lineno] + [d.lineno for d in getattr(
                node, "decorator_list", ())])
            spans.append((first, node.end_lineno))
    return sorted(spans)


def trace_run(pytest_args) -> tuple:
    """Run pytest with pytest_args under the tracer: its exit status and
    {module file name: set of the lines that ran}."""
    paths = {os.path.realpath(p): p.name for p in SRC.glob("*.py")}
    ran = {name: set() for name in paths.values()}
    module_of = {}  # co_filename -> module file name, or None

    def local(frame, event, arg):
        if event == "line":
            ran[module_of[frame.f_code.co_filename]].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in module_of:
            module_of[filename] = paths.get(os.path.realpath(filename))
        return local if module_of[filename] else None

    import pytest

    threading.settrace(call)
    sys.settrace(call)
    try:
        status = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return status, ran


def main(argv) -> int:
    sys.path.insert(0, str(SRC.parent))
    os.chdir(ROOT)
    status, ran = trace_run(["-q", "--continue-on-collection-errors",
                             "-p", "no:cacheprovider", *argv])
    imported = {m.__file__ and os.path.basename(m.__file__)
                for name, m in list(sys.modules.items())
                if name == "layerlab" or name.startswith("layerlab.")}
    print(f"\nstatements of src/layerlab never executed (pytest exit "
          f"status {int(status)}):")
    total = 0
    for path in sorted(SRC.glob("*.py")):
        if path.name not in imported:
            print(f"{path.name}: never imported")
            continue
        lines = path.read_text().splitlines()
        for first, last in statements(path):
            if ran[path.name].isdisjoint(range(first, last + 1)):
                print(f"{path.name}:{first}: {lines[first - 1].strip()}")
                total += 1
    print(f"{total} statements never executed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
