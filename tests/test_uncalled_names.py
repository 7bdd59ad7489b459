"""Every function, class and method of ``src/tumax`` has a caller.

A name counts as used when some module of ``src/`` or ``perfbench/``
mentions it as a name or an attribute, outside its own definition. An
import alone, a string or a test is no use: a library name that only its
tests call is a candidate for deletion.
"""

import ast
import importlib
from pathlib import Path

from test_traced_names import _spans_module

ROOT = Path(__file__).resolve().parents[1]

# kept with no caller, each for the reason given
ALLOWED = {
    # the paper's pendant-arc construction, listed in the README under
    # *Construct*
    ("graphs", "transpose_extension"),
    # recognizes R10 in either of its 5x5 representations: the leaf of
    # Seymour's decomposition of TU matrices that is neither a network
    # matrix nor the transpose of one
    ("families", "is_sporadic"),
}


def _trees(directory):
    return {p.stem: ast.parse(p.read_text(encoding="utf-8"))
            for p in sorted(directory.glob("*.py"))}


def _used_names(trees):
    used = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def _definitions(module, tree):
    """The name of every def and class in ``tree``, less dunders and
    the methods of a module-level class that override a base's method."""
    overrides = set()
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            # imported only here: ``tumax.__main__`` runs the CLI
            runtime = importlib.import_module("tumax." + module)
            bases = getattr(runtime, node.name).__mro__[1:]
            overrides.update(id(item) for item in node.body
                             if isinstance(item, ast.FunctionDef)
                             and any(item.name in vars(base)
                                     for base in bases))
    for node in ast.walk(tree):
        if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not (node.name.startswith("__")
                         and node.name.endswith("__"))
                and id(node) not in overrides):
            yield node.name


def uncalled(allowed):
    src = _trees(ROOT / "src" / "tumax")
    used = _used_names([*src.values(),
                        *_trees(ROOT / "perfbench").values()])
    traced = {name for _, name in _spans_module().TRACED}
    return sorted((module, name)
                  for module, tree in src.items()
                  for name in _definitions(module, tree)
                  if name not in used and name not in traced
                  and (module, name) not in allowed)


def test_every_library_name_has_a_caller():
    assert uncalled(ALLOWED) == []


def test_the_allowlist_is_needed():
    # each allowed name has no caller yet, and the guard sees it
    assert uncalled(set()) == sorted(ALLOWED)
