"""Two lint rules over ``src/supergraph``, checked with the standard library's ``ast``.

* Every import is used, listed in ``__all__`` or marked ``# noqa: F401``.
* Every module-level private name (``_x``, not a dunder) is used somewhere
  in the package outside its own definition.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "supergraph"
MODULES = sorted(PACKAGE.glob("*.py"))


def _parse(path):
    source = path.read_text()
    return source.splitlines(), ast.parse(source, str(path))


def _read_names(node):
    """Bare names a node reads."""
    return {sub.id for sub in ast.walk(node)
            if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store)}


def _used_names(node):
    """Names a node reads: bare names, attribute names and names imported from a module."""
    names = _read_names(node)
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names.update(alias.name for alias in sub.names)
    return names


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def _defined(node):
    """Module-level names a top-level statement binds, other than by import."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {node.name}
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return {sub.id for t in targets if t is not None
            for sub in ast.walk(t) if isinstance(sub, ast.Name)}


def test_package_has_modules():
    assert PACKAGE / "kernels.py" in MODULES


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    lines, tree = _parse(path)
    used = _read_names(tree) | _exported(tree)
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", "") == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used:
                unused.append(f"{path.name}:{node.lineno} {name}")
    assert not unused, f"unused imports: {unused}"


def test_every_private_name_is_used():
    statements = []  # (module, statement) for every top-level statement of the package
    for path in MODULES:
        statements += [(path.name, node) for node in _parse(path)[1].body]
    uses = [(node, _used_names(node)) for _, node in statements]
    unused = []
    for module, node in statements:
        for name in _defined(node):
            if not name.startswith("_") or (name.startswith("__") and name.endswith("__")):
                continue
            if not any(name in names for other, names in uses if other is not node):
                unused.append(f"{module}:{node.lineno} {name}")
    assert not unused, f"private names used nowhere but their own definition: {unused}"
