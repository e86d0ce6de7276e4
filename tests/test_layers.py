"""The package's layering: which modules each module may import.

Each library module is read with ``ast`` and its ``mubforge`` imports, at
any depth (inside functions too), are compared with the table below. The
layers are ordered pauli < search < classes < {named_sets, unextendible,
bases} < analysis < certificates < cli, and no module imports one above it
or beside it, so a new upward edge fails here. ``__init__`` is exempt: it
re-exports the layers and registers the lazily loaded numeric ones.

Every top-level function, class and module-level assignment of the
library must also have a reader in the library: a route or a constant that
only the tests use belongs in ``tests/oracles.py``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mubforge"

LAYER_ORDER = (
    ("pauli",),
    ("search",),
    ("classes",),
    ("named_sets", "unextendible", "bases"),
    ("analysis",),
    ("certificates",),
    ("cli",),
)

IMPORTS = {
    "pauli": set(),
    "search": {"pauli"},
    "classes": {"pauli", "search"},
    "named_sets": {"classes"},
    "unextendible": {"pauli", "search", "classes"},
    "bases": {"pauli", "classes"},
    "analysis": {"bases", "classes"},
    "certificates": {"analysis", "classes", "named_sets", "search", "unextendible"},
    "cli": {"certificates", "classes", "named_sets", "unextendible"},
}


def package_imports(module: str) -> set[str]:
    """The ``mubforge`` modules that ``module`` imports anywhere in its source."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, f"{module} uses a relative import"
            if node.module == "mubforge":
                names = [f"mubforge.{alias.name}" for alias in node.names]
            else:
                names = [node.module]
        else:
            continue
        found.update(n.split(".")[1] for n in names if n.startswith("mubforge."))
    return found


def test_the_table_names_every_module_once_in_the_order():
    layered = [m for layer in LAYER_ORDER for m in layer]
    on_disk = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}
    assert sorted(layered) == sorted(IMPORTS) == sorted(on_disk)


@pytest.mark.parametrize("module", sorted(IMPORTS))
def test_a_module_imports_what_its_row_names(module):
    assert package_imports(module) == IMPORTS[module]


def test_every_import_points_down_the_order():
    rank = {m: i for i, layer in enumerate(LAYER_ORDER) for m in layer}
    upward = [
        (module, imported)
        for module, imports in IMPORTS.items()
        for imported in imports
        if rank[imported] >= rank[module]
    ]
    assert upward == []


def _defines(top: ast.stmt) -> set[str]:
    """The names a top-level function, class or assignment binds, dunders excepted."""
    if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
        names = {top.name}
    elif isinstance(top, (ast.Assign, ast.AnnAssign)):
        targets = top.targets if isinstance(top, ast.Assign) else [top.target]
        names = {
            node.id for target in targets for node in ast.walk(target)
            if isinstance(node, ast.Name)
        }
    else:
        return set()
    return {name for name in names if not (name.startswith("__") and name.endswith("__"))}


def test_every_top_level_name_is_used_by_the_library():
    # a use is a Name or an Attribute read anywhere in src/ outside the
    # name's own definition and __init__'s re-export imports; the match is
    # by bare name, so a same-named attribute elsewhere counts as a use
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in PACKAGE.glob("*.py")}
    defined = {
        (module, name)
        for module, tree in trees.items()
        for top in tree.body
        for name in _defines(top)
    }
    used = set()
    for module, tree in trees.items():
        for top in tree.body:
            if module == "__init__" and isinstance(top, ast.ImportFrom):
                continue
            reads = {
                node.id if isinstance(node, ast.Name) else node.attr
                for node in ast.walk(top)
                if isinstance(node, (ast.Name, ast.Attribute))
                and isinstance(node.ctx, ast.Load)
            }
            used |= reads - _defines(top)
    assert sorted(d for d in defined if d[1] not in used) == []
