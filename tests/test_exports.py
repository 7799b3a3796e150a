"""Module surface: every public name a layerlab module declares in
__all__ exists, and no module reaches into another's private names
outside a short allow-list."""

import ast
import importlib
import pathlib

import pytest

import layerlab

MODULES = ("layerlab", "layerlab.kernels", "layerlab.materials",
           "layerlab.plate", "layerlab.sphere", "layerlab.series",
           "layerlab.regimes", "layerlab.cli", "layerlab.verify",
           "layerlab.csv17")

# (importing module, defining module) -> the underscore names it may use:
# sphere fields share plate's field blocks and its one check for results
# past double range (_in_range, _range_error), the Theta profile is the
# sphere profile at chi**2 = 3 xi, built in closed form beside the
# sphere's own equation and rim row, and verify-suite checks the alt
# discretization against the exact profile on the cells whose solves
# check against it
PRIVATE_IMPORTS = {
    ("sphere", "plate"): {"_field_block", "_field_sample", "_in_range",
                          "_range_error"},
    ("series", "sphere"): {"_theta_profile"},
    ("verify", "sphere"): {"_cell"},
}


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(name)
    assert mod.__all__, name
    assert len(set(mod.__all__)) == len(mod.__all__), name
    missing = [attr for attr in mod.__all__ if not hasattr(mod, attr)]
    assert missing == [], f"{name}.__all__ names {missing}"


def _private_uses(path: pathlib.Path) -> dict:
    """{sibling module: underscore names} one layerlab module takes from
    its siblings: imported by ``from .mod import _x`` (or
    ``from layerlab.mod import _x``), or read as ``mod._x`` off a sibling
    imported whole by ``from . import mod``."""
    tree = ast.parse(path.read_text())
    uses, siblings = {}, {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom) or (
                node.level == 0 and not node.module.startswith("layerlab")):
            continue
        source = (node.module or "").removeprefix("layerlab").lstrip(".")
        for alias in node.names:
            if not source:
                siblings[alias.asname or alias.name] = alias.name
            elif alias.name.startswith("_"):
                uses.setdefault(source, set()).add(alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in siblings and node.attr.startswith("_")
                and not node.attr.startswith("__")):
            uses.setdefault(siblings[node.value.id], set()).add(node.attr)
    return uses


def test_private_imports_stay_on_the_allow_list():
    # exact, so an entry that is no longer needed is dropped from the list
    src = pathlib.Path(layerlab.__file__).parent
    found = {(path.stem, source): names
             for path in sorted(src.glob("*.py"))
             for source, names in _private_uses(path).items()}
    assert found == PRIVATE_IMPORTS
