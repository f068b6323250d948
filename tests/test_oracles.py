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


def test_library_keeps_only_what_it_calls():
    # Every public top-level function or class under src/bcs is loaded by
    # name somewhere in src/bcs.  The exceptions are the entry points: the
    # quick start's ground_state and position_profile, and the CLI's cmd_*,
    # which reach the parser through their registration.
    defined, used = {}, set()
    for path in sorted(pathlib.Path(bcs.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    and not node.name.startswith("_"):
                defined[node.name] = path.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert "tc0" in defined, "the walk missed the bcs modules"
    entry = {"ground_state", "position_profile"}
    unused = sorted(f"{module}: {name}" for name, module in defined.items()
                    if name not in used | entry and not name.startswith("cmd_"))
    assert not unused, f"src/bcs defines names that nothing in src/bcs calls: {unused}"
