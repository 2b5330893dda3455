"""The package's import structure, read from its source with ast.

numpy belongs to the checks in verify; the constructions build without it.
Every relative import sits at module level, but for general_counter's
imports of the two families built on compose, which import compose.
"""

import ast
import pathlib

import quasigray

SRC = pathlib.Path(quasigray.__file__).parent


def _imports(path):
    """(enclosing function or None, module, level) of every import in the
    file at path; module is None for a bare relative import."""
    out = []

    def walk(node, fn):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                walk(child, child.name)
            elif isinstance(child, ast.Import):
                out.extend((fn, alias.name, 0) for alias in child.names)
            elif isinstance(child, ast.ImportFrom):
                out.append((fn, child.module, child.level))
            else:
                walk(child, fn)

    walk(ast.parse(path.read_text()), None)
    return out


def test_import_structure():
    numpy_users = set()
    local = set()
    for path in sorted(SRC.glob("*.py")):
        for fn, module, level in _imports(path):
            if level == 0 and module.split(".")[0] == "numpy":
                numpy_users.add(path.stem)
            if level and fn is not None:
                local.add((path.stem, fn, module))
    assert numpy_users == {"verify"}
    assert local == {("compose", "general_counter", "linear"),
                     ("compose", "general_counter", "permdecomp")}
