"""Dead-code guards over the package source, read with `ast` only.

Every module-level import of a module must be used in that module, and every
module-level private function or class (`_name`) must be referenced somewhere
in the package besides its own definition. A deletion that leaves a helper
or an import behind fails here. No module calls `Random.choice`: every pick
goes through `verify._draw`, which keeps its rule in the package.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "carpetdim"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TREES = {p: ast.parse(p.read_text(), filename=str(p)) for p in PACKAGE.glob("*.py")}


def _names_used(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Every name read in the tree, as a bare name or an attribute, outside `skip`."""
    used = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
        stack.extend(ast.iter_child_nodes(node))
    return used


def _bound_name(alias: ast.alias) -> str:
    return alias.asname or alias.name.split(".")[0]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = TREES[path]
    imports = [
        node for node in tree.body
        if isinstance(node, ast.Import)
        or isinstance(node, ast.ImportFrom) and node.module != "__future__"
    ]
    used = set()
    for node in tree.body:
        if node not in imports:
            used |= _names_used(node)
    unused = [_bound_name(a) for node in imports for a in node.names if _bound_name(a) not in used]
    assert not unused, f"{path.name}: unused imports {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_private_helper_is_referenced(path):
    defs = [
        node for node in TREES[path].body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_")
    ]
    unused = [
        node.name for node in defs
        if not any(node.name in _names_used(tree, skip=node) for tree in TREES.values())
    ]
    assert not unused, f"{path.name}: unreferenced private definitions {unused}"


@pytest.mark.parametrize("path", sorted(TREES), ids=lambda p: p.name)
def test_no_random_choice(path):
    # Python documents only random()'s sequence as stable across versions
    uses = [node.lineno for node in ast.walk(TREES[path])
            if isinstance(node, ast.Attribute) and node.attr == "choice"]
    assert not uses, f"{path.name}: `.choice` on lines {uses}; draw through verify._draw"
