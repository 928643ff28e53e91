"""The package, its command line and its bench load without scipy,
jsonschema or concurrent.futures, the oracle checks run without scipy, the
bench loads without the oracles, no module of the package or of the tests
imports a name it never uses, the package's modules take its error classes
from `cfeas.errors` alone, and the package raises every one of them but the
base class.

No code of the package or of its tests uses scipy; the `test` extra keeps it
for the benchmark harness, which records its version.  jsonschema only
checks, in the tests, that the printed bench config schema agrees with the
loader.  concurrent.futures serves `bench --jobs` above 1 only, and loads
logging, queue and traceback with it.
"""
import ast
import os
import subprocess
import sys

TESTS = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(TESTS), "src")


def _loaded_by(modules, names, run=""):
    """Those of `names` that a fresh interpreter has loaded after importing
    `modules` and running the statement `run`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    code = f"import sys, {modules}\n{run}\nprint([name for name in {names!r} if name in sys.modules])"
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return done.stdout.strip()


def test_import_path_leaves_scipy_out():
    names = ("scipy", "jsonschema", "concurrent.futures")
    assert _loaded_by("cfeas, cfeas.cli, cfeas.bench", names) == "[]"


def test_oracle_checks_leave_scipy_out():
    run = 'assert cfeas.oracles.oracle_check("projections", range(3))["ok"]'
    assert _loaded_by("cfeas.oracles", ("scipy",), run) == "[]"


def test_bench_leaves_the_oracles_out():
    assert _loaded_by("cfeas.bench", ("cfeas.oracles",)) == "[]"


def _unused_imports(path):
    """Names a module imports and never reads, except on `# noqa: F401` lines."""
    with open(path) as fh:
        text = fh.read()
    lines = text.splitlines()
    tree = ast.parse(text)
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if getattr(node, "module", None) != "__future__":
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def _unused_in(directory):
    unused = {
        name: _unused_imports(os.path.join(directory, name))
        for name in sorted(os.listdir(directory))
        if name.endswith(".py")
    }
    return {name: found for name, found in unused.items() if found}


def test_no_unused_imports_in_the_package():
    assert _unused_in(os.path.join(SRC, "cfeas")) == {}


def test_no_unused_imports_in_the_tests():
    assert _unused_in(TESTS) == {}


def _error_classes():
    with open(os.path.join(SRC, "cfeas", "errors.py")) as fh:
        tree = ast.parse(fh.read())
    return {node.name for node in tree.body if isinstance(node, ast.ClassDef)}


def _package_trees():
    """(file name, syntax tree) of each module of the package."""
    for name in sorted(os.listdir(os.path.join(SRC, "cfeas"))):
        if name.endswith(".py"):
            with open(os.path.join(SRC, "cfeas", name)) as fh:
                yield name, ast.parse(fh.read())


def test_the_package_imports_error_classes_from_errors_only():
    errors = _error_classes()
    elsewhere = []
    for name, tree in _package_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module not in ("errors", "cfeas.errors"):
                elsewhere += [
                    f"{name}: {alias.name} from {node.module}"
                    for alias in node.names
                    if alias.name in errors
                ]
    assert errors and elsewhere == []


def test_the_package_raises_every_error_class():
    # a class nothing raises is dead; `CfeasError` is only the base
    raised = set()
    for _, tree in _package_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    assert sorted(_error_classes() - raised) == ["CfeasError"]
