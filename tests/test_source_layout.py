"""Checks on the shape of the source tree itself."""

import ast
from pathlib import Path

import landmarklab

SRC = Path(landmarklab.__file__).parent


def referenced_names(tree):
    """Every name a module reads: bare names, attributes and import aliases.
    A name that is only assigned or deleted is not read."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def defined_names(node):
    """The names a module-level statement defines: a function or class, or
    the targets of an assignment."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [name.id for target in targets for name in ast.walk(target)
            if isinstance(name, ast.Name)]


def test_every_module_level_definition_is_referenced_in_src():
    """A module-level function, class or constant, public or private, must
    be named by code in ``src/`` outside ``__init__.py``.

    This is a proxy for "reached by a command": the package exports and
    the tests do not count, and neither do mentions in docstrings.  A
    definition that nothing names, such as a helper left behind by a
    refactor, should be deleted, not maintained.
    """
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"}
    used = {name for tree in trees.values() for name in referenced_names(tree)}
    unused = [f"{module}:{name}"
              for module, tree in trees.items() for node in tree.body
              for name in defined_names(node) if name not in used]
    assert not unused, f"defined in src/ but named by no code there: {unused}"


def test_every_module_level_import_is_used():
    """A module-level import in ``src/``, outside ``__init__.py`` and
    ``from __future__``, must be named by code in its own module.

    A refactor that moves a call to another module can leave its import
    behind; an import that nothing names should be deleted.
    """
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in names:
                        unused.append(f"{path.name}:{bound}")
    assert not unused, f"imported in src/ but named by no code in its module: {unused}"
