import ast
import importlib
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


def test_no_function_assigns_to_an_attribute_of_a_parameter():
    # a result travels as a return value: a call leaves no state on an object
    # its caller passed in (self excepted); item assignment is not checked
    found = set()
    for path in sorted(Path(mhbound.__file__).parent.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = fn.args
                params = {a.arg for a in [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg] if a}
                for node in ast.walk(fn):
                    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                        root = node.value
                        while isinstance(root, ast.Attribute):
                            root = root.value
                        if isinstance(root, ast.Name) and root.id in params - {"self"}:
                            found.add(f"{path.name}:{node.lineno}")
    assert sorted(found) == []


def test_every_exported_name_resolves():
    # a deleted name must leave __all__ too
    found = []
    for path in sorted(Path(mhbound.__file__).parent.glob("*.py")):
        name = "mhbound" if path.stem == "__init__" else f"mhbound.{path.stem}"
        module = importlib.import_module(name)
        found += [f"{name}.{n}" for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert found == []
