"""The package, its command line and its bench load without scipy,
jsonschema or concurrent.futures, and no module of the package or of the
tests imports a name it never uses.

scipy serves one test oracle only; importing it with the package would cost
more than the rest of the import together.  jsonschema only checks, in the
tests, that the printed bench config schema agrees with the loader.
concurrent.futures serves `bench --jobs` above 1 only, and loads logging,
queue and traceback with it.
"""
import ast
import os
import subprocess
import sys

TESTS = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(TESTS), "src")


def test_import_path_leaves_scipy_out():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    code = (
        "import sys, cfeas, cfeas.cli, cfeas.bench; "
        "print([name for name in ('scipy', 'jsonschema', 'concurrent.futures') "
        "if name in sys.modules])"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "[]"


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


def _unused_in(directory, skip=()):
    unused = {
        name: _unused_imports(os.path.join(directory, name))
        for name in sorted(os.listdir(directory))
        if name.endswith(".py") and name not in skip
    }
    return {name: found for name, found in unused.items() if found}


def test_no_unused_imports_in_the_package():
    assert _unused_in(os.path.join(SRC, "cfeas"), skip=("__init__.py",)) == {}


def test_no_unused_imports_in_the_tests():
    assert _unused_in(TESTS) == {}
