"""Import structure: every import in the package sits at module level."""

import ast
import pathlib

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
