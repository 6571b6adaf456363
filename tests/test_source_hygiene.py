"""Three lint rules over ``src/supergraph``, checked with the standard library's ``ast``.

* Every import is used, listed in ``__all__`` or marked ``# noqa: F401``.
* Every module-level private name (``_x``, not a dunder) is used somewhere
  in the package outside its own definition.
* A module imports or reads another package module's private name only
  where the pair is listed in ``SHARED_PRIVATE``.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "supergraph"
MODULES = sorted(PACKAGE.glob("*.py"))

# (reader, owner, name): the private helpers one package module shares with
# another on purpose. Any other such read reaches into a module's internals.
SHARED_PRIVATE = {
    ("montecarlo", "graph", "_component_sizes"),
    ("montecarlo", "sampler", "_check_num_super"),
    ("montecarlo", "sampler", "_check_seed"),
    ("theory", "config", "_check_float_range"),
}


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


def _is_private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _foreign_private_reads(path, tree):
    """(reader, owner, name) for each private name of another package module that path reads."""
    reader = path.stem
    modules = {p.stem for p in MODULES}
    aliases = {}  # local name -> the package module it binds
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0:  # absolute: only supergraph[.owner] counts
                if parts[0] != "supergraph":
                    continue
                parts = parts[1:]
            owner = parts[0] if parts and parts[0] else None
            for alias in node.names:
                if owner is None and alias.name in modules:
                    aliases[alias.asname or alias.name] = alias.name
                elif owner is not None and _is_private(alias.name):
                    reads.add((reader, owner, alias.name))
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in aliases and _is_private(node.attr)):
            reads.add((reader, aliases[node.value.id], node.attr))
    return {read for read in reads if read[1] != reader}


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
            if not _is_private(name):
                continue
            if not any(name in names for other, names in uses if other is not node):
                unused.append(f"{module}:{node.lineno} {name}")
    assert not unused, f"private names used nowhere but their own definition: {unused}"


def test_private_names_cross_modules_only_where_listed():
    reads = set()
    for path in MODULES:
        reads |= _foreign_private_reads(path, _parse(path)[1])
    assert not reads - SHARED_PRIVATE, f"unlisted private reads: {sorted(reads - SHARED_PRIVATE)}"
    assert not SHARED_PRIVATE - reads, f"listed reads that no longer happen: {sorted(SHARED_PRIVATE - reads)}"
