"""The solvers' answers and counters, and the command line's output, bit
for bit, against the committed fingerprint and argv corpus (see
solver_fingerprint.py, which writes both).  A failure names every entry
that differs and prints the versions, git commit and tree state each
file was written with beside those of the run."""

import json

import solver_fingerprint as fp


def _diffs(path, got) -> list:
    """One line per key of an entry that differs from the file's."""
    want = json.loads(path.read_text())
    diffs = []
    for name in sorted(want["entries"].keys() | got.keys()):
        old, new = want["entries"].get(name, {}), got.get(name, {})
        diffs += [f"{name} {key}: {old.get(key)} -> {new.get(key)}"
                  for key in sorted(old.keys() | new.keys())
                  if old.get(key) != new.get(key)]
    return [f"{len(diffs)} entries differ (written with {want['versions']}, "
            f"run with {fp.versions()}):"] + diffs if diffs else []


def test_solver_fingerprint_unchanged():
    diffs = _diffs(fp.PATH, fp.compute())
    assert not diffs, "\n".join(diffs)


def test_argv_corpus_unchanged():
    diffs = _diffs(fp.ARGV_PATH, fp.compute_argv())
    assert not diffs, "\n".join(diffs)
