"""The package holds no code that only tests reach: every function, method
and class that `src/kinflock/*.py` defines is named again somewhere in
those files, by a call, an attribute or a reference.  A helper whose only
callers are tests lives under `tests/`."""

import ast
from pathlib import Path

import kinflock

SOURCES = sorted(Path(kinflock.__file__).parent.glob("*.py"))


def test_every_definition_is_named_elsewhere_in_the_package():
    defined, named = {}, set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defined.setdefault(node.name, f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    unreached = sorted(f"{where} {name}" for name, where in defined.items()
                       if name not in named)
    assert not unreached, "defined but never named in src/kinflock: " + ", ".join(unreached)
