"""The sphere solver's answers and counters, bit for bit, against the
committed fingerprint (see solver_fingerprint.py, which writes it)."""

import json

import solver_fingerprint as fp


def test_solver_fingerprint_unchanged():
    want = json.loads(fp.PATH.read_text())
    got = fp.compute()
    diffs = []
    for name in sorted(want["entries"].keys() | got.keys()):
        old, new = want["entries"].get(name, {}), got.get(name, {})
        diffs += [f"{name} {key}: {old.get(key)} -> {new.get(key)}"
                  for key in sorted(old.keys() | new.keys())
                  if old.get(key) != new.get(key)]
    assert not diffs, (
        f"{len(diffs)} fingerprint entries differ (written with "
        f"{want['versions']}, run with {fp.versions()}):\n" + "\n".join(diffs))
