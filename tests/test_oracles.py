"""The oracles stay independent of the package they check, the package runs
on its own fixed rules and numpy, with scipy only behind the tabulated
potential's interpolant, and it keeps only what it calls itself."""

import ast
import json
import pathlib
import subprocess
import sys

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


def _scipy_imports(tree, scope=()):
    """(scope, module) for every scipy import in the tree, where scope is
    the path of enclosing class and function names."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.Import):
            yield from ((scope, a.name) for a in node.names if a.name.split(".")[0] == "scipy")
        elif isinstance(node, ast.ImportFrom) and node.module == "scipy":
            yield from ((scope, f"scipy.{a.name}") for a in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("scipy."):
            yield scope, node.module
        elif isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            yield from _scipy_imports(node, scope + (node.name,))
        else:
            yield from _scipy_imports(node, scope)


def test_library_imports_scipy_only_for_the_tabulated_interpolant():
    # src/bcs runs on numpy alone: no scipy.special, no adaptive quadrature
    # (scipy.integrate), no scipy.optimize, scipy.sparse or scipy.linalg.
    # The one scipy import is the monotone interpolant a tabulated
    # potential builds when it is made.
    allowed = {("potentials.py", ("TabulatedPotential", "__post_init__"), "scipy.interpolate")}
    modules = sorted(pathlib.Path(bcs.__file__).parent.glob("*.py"))
    assert modules, "no modules found under the bcs package"
    found = {(path.name, scope, module) for path in modules
             for scope, module in _scipy_imports(ast.parse(path.read_text(encoding="utf-8")))}
    assert allowed <= found, "the walk missed the tabulated potential's interpolant import"
    assert found == allowed, f"src/bcs imports more of scipy: {sorted(found - allowed, key=str)}"


def _fresh_interpreter(code: str, *args: str) -> list:
    """Lines a fresh interpreter prints when it runs code with this
    checkout's src first on its path and args in sys.argv[1:]."""
    src = str(pathlib.Path(bcs.__file__).parent.parent)
    prelude = f"import sys; sys.path.insert(0, {src!r}); "
    out = subprocess.run([sys.executable, "-c", prelude + code, *args], capture_output=True,
                         text=True, check=True).stdout.splitlines()
    assert out[0].startswith(src), out[0]
    return out[1:]


# Modules no bcs command loads: scipy, the numpy subpackages scipy.special
# brought with it (numpy.ma also comes with np.unique), and a thread pool.
_BANNED = ("scipy", "numpy.f2py", "numpy.testing", "numpy.ma", "numpy.random",
           "concurrent.futures")


def _banned(module: str) -> bool:
    return any(module == b or module.startswith(b + ".") for b in _BANNED)


def test_cli_start_up_loads_no_scipy():
    # A fresh interpreter that imports the CLI, as every bcs command does,
    # loads no scipy, and none of the numpy subpackages scipy.special
    # brought with it; a plain `import numpy` loads none of those either.
    # Nor does it load a thread pool: every command runs on one thread.
    (line,) = _fresh_interpreter("import bcs.cli; print(bcs.cli.__file__); "
                                 "print(' '.join(sys.modules))")
    offending = [m for m in line.split() if _banned(m)]
    assert not offending, f"import bcs.cli loads {offending}"


_RUN_COMMANDS = """
import contextlib, io, json, os, tempfile
import bcs.cli
print(bcs.cli.__file__)
codes, loaded = [], []
with tempfile.TemporaryDirectory() as tmp:
    for i, (command, cfg) in enumerate(json.loads(sys.argv[1])):
        path = os.path.join(tmp, f"config{i}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        with contextlib.redirect_stdout(io.StringIO()):
            codes.append(bcs.cli.main([command, "--config", path]))
        loaded.append(sorted(sys.modules))
print(json.dumps(codes))
print(json.dumps(loaded))
"""

# A tiny config of each command kind the benchmark runs.
_COMMAND_KINDS = [
    ("table1", {}),
    ("m3-profile", {"bc": "neumann", "x_max": 4.0, "step": 2.0}),
    ("criterion", {"potential": {"kind": "gaussian", "d": 3}, "bc": "neumann", "mu": 1.0}),
    ("criterion", {"potential": {"kind": "exponential", "d": 3}, "bc": "dirichlet",
                   "mu_sweep": [0.5, 4.0]}),
    ("vmu-spectrum", {"potential": {"kind": "exponential", "d": 2}, "mu": 1.0, "ell_max": 2}),
    ("vmu-spectrum", {"potential": {"kind": "gaussian", "d": 3}, "mu": 1.0, "ell_max": 2}),
    ("tc0", {"potential": {"kind": "gaussian", "d": 3}, "mu": 1.0, "lambdas": [0.6]}),
    ("dt-growth", {"potential": {"kind": "step", "d": 1}, "mu": 1.0,
                   "t_factors": [1e-2, 1e-3, 1e-4]}),
    ("dt-growth", {"potential": {"kind": "gaussian", "d": 2}, "mu": 1.0,
                   "t_factors": [0.2, 0.1, 0.05]}),
]


def test_cli_commands_run_without_loading_scipy():
    # One fresh interpreter runs every command kind of the benchmark, and
    # after each none of the start-up test's banned modules is loaded: a
    # command that imported one lazily would pay that import inside its
    # own time on every run.
    codes, loaded = _fresh_interpreter(_RUN_COMMANDS, json.dumps(_COMMAND_KINDS))
    assert json.loads(codes) == [0] * len(_COMMAND_KINDS)
    for (command, cfg), modules in zip(_COMMAND_KINDS, json.loads(loaded), strict=True):
        offending = [m for m in modules if _banned(m)]
        assert not offending, f"{command} {cfg} loads {offending}"


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
    # start's tc0, ground_state and position_profile, the one-temperature
    # dt_form_d1, and the CLI's cmd_*, which reach the parser through their
    # registration.
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
    entry = {"tc0", "ground_state", "position_profile", "dt_form_d1"}
    unused = sorted(f"{module}: {name}" for module, names in bound.items()
                    for name in names - loaded[module] - entry
                    if not name.startswith("cmd_"))
    assert not unused, f"src/bcs binds names that nothing in src/bcs loads: {unused}"
