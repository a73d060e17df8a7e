import ast
from pathlib import Path

import mhbound


def test_no_module_imports_a_private_name():
    # a private name stays in its module: a policy shared between modules is public there
    found = []
    for path in sorted(Path(mhbound.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level and node.module:
                found += [f"{path.name}: from .{node.module} import {a.name}" for a in node.names if a.name.startswith("_")]
    assert found == []


def test_no_import_inside_a_function():
    # imports sit at the top of a module, where the order between modules shows
    found = []
    for path in sorted(Path(mhbound.__file__).parent.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                imports = [n for n in ast.walk(fn) if isinstance(n, (ast.Import, ast.ImportFrom))]
                found += [f"{path.name}:{n.lineno} in {fn.name}" for n in imports]
    assert found == []
