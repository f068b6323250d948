"""The oracles stay independent of the package they check."""

import ast
import pathlib

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
