"""The solvers' answers and counters, and the command line's output, bit
for bit, against the committed fingerprint and argv corpus (see
solver_fingerprint.py, which writes both).  A failure names every entry
that differs and prints the versions, git commit and tree state each
file was written with beside those of the run."""

import solver_fingerprint as fp
from solver_fingerprint import _diffs


def test_solver_fingerprint_unchanged():
    diffs = _diffs(fp.PATH, fp.compute())
    assert not diffs, "\n".join(diffs)


def test_argv_corpus_unchanged():
    diffs = _diffs(fp.ARGV_PATH, fp.compute_argv())
    assert not diffs, "\n".join(diffs)
