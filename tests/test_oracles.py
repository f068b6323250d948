"""The oracles stay independent of the package they check, the package runs
on its own fixed rules, not on adaptive quadrature, and it keeps only what
it calls itself."""

import ast
import pathlib

import bcs
import oracles


def test_oracles_import_no_bcs_code():
    tree = ast.parse(pathlib.Path(oracles.__file__).read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
    assert imported, "no imports found; the parse missed the module"
    offending = [m for m in imported
                 if m.startswith(".") or m.split(".")[0] == "bcs"]
    assert not offending, f"tests/oracles.py imports {offending}"


def test_library_imports_no_scipy_integrate():
    modules = sorted(pathlib.Path(bcs.__file__).parent.glob("*.py"))
    assert modules, "no modules found under the bcs package"
    offending = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            offending += [f"{path.name}: {n}" for n in names
                          if n == "scipy.integrate" or n.startswith("scipy.integrate.")]
    assert not offending, f"src/bcs imports scipy.integrate: {offending}"


def _top_level_bindings(tree):
    """Names a module binds at its top level: functions, classes, constants
    and imports (``from __future__`` aside)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                yield from (n.id for n in ast.walk(target) if isinstance(n, ast.Name))
        elif isinstance(node, ast.Import):
            yield from (a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (a.asname or a.name for a in node.names)


def test_library_keeps_only_what_it_calls():
    # Every top-level function, class, constant and import under src/bcs,
    # private ones included, is loaded in its own module or imported from it
    # by another one.  The exceptions are the entry points: the quick
    # start's ground_state and position_profile, and the CLI's cmd_*, which
    # reach the parser through their registration.
    bound, loaded = {}, {}
    for path in sorted(pathlib.Path(bcs.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound[path.stem] = set(_top_level_bindings(tree))
        names = loaded.setdefault(path.stem, set())
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and node.level == 1:
                source = loaded.setdefault(node.module or "__init__", set())
                source.update(a.name for a in node.names)
    assert "tc0" in bound["bs_solver"], "the walk missed the bcs modules"
    entry = {"ground_state", "position_profile"}
    unused = sorted(f"{module}: {name}" for module, names in bound.items()
                    for name in names - loaded[module] - entry
                    if not name.startswith("cmd_"))
    assert not unused, f"src/bcs binds names that nothing in src/bcs loads: {unused}"
