"""Import structure: every import in the package sits at module level, and
importing the package loads numpy but no scipy."""

import ast
import os
import pathlib
import subprocess
import sys

import dfoq


def test_no_function_local_imports():
    # a local import hides an import cycle between modules
    local = set()
    for path in sorted(pathlib.Path(dfoq.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                local |= {f"{path.name}:{node.lineno}" for node in ast.walk(func)
                          if isinstance(node, (ast.Import, ast.ImportFrom))}
    assert not local, f"function-local imports at {', '.join(sorted(local))}"


def test_import_loads_no_scipy():
    # scipy.stats alone took most of a cold `dfoq sweep`; scipy is a test
    # dependency only
    src = str(pathlib.Path(dfoq.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    code = ("import sys, dfoq, dfoq.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=120)
    assert done.stdout.strip() == "[]"
