"""Every function, class and method of the package is named somewhere.

A definition in ``src/selbergkit`` must be named by the package itself (an
``ast.Name`` or ``ast.Attribute``) or by the benchmark (a name, an imported
name or a string in ``perfbench/*.py``; the tracer wraps functions by
name).  Tests do not count: code that only tests reach belongs in
``tests/`` or nowhere.  Dunder methods are left out, since Python calls
them by protocol.

Names are compared as bare identifiers, with no resolution of what they
refer to, so a definition shares its name with anything else of that name
(``Partition.size`` with numpy's ``.size``, say).  This test is therefore a
floor, not a proof: it catches a definition whose name appears nowhere,
not one whose name is only borrowed.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _trees(directory):
    return [(path, ast.parse(path.read_text(), str(path)))
            for path in sorted((ROOT / directory).glob("*.py"))]


def _definitions(tree):
    """Module-level functions and classes, and the non-dunder methods of
    the classes, as (qualified name, bare name)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if (isinstance(sub, ast.FunctionDef)
                        and not (sub.name.startswith("__")
                                 and sub.name.endswith("__"))):
                    yield f"{node.name}.{sub.name}", sub.name


def _named(trees, strings):
    out = set()
    for _, tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
            elif strings and isinstance(node, ast.alias):
                out.add(node.name.rpartition(".")[2])
            elif (strings and isinstance(node, ast.Constant)
                    and isinstance(node.value, str)):
                out.add(node.value)
    return out


def test_every_definition_is_named_by_the_package_or_the_benchmark():
    package = _trees("src/selbergkit")
    named = _named(package, strings=False) | _named(_trees("perfbench"),
                                                     strings=True)
    unnamed = [f"{path.name}: {qualified}"
               for path, tree in package
               for qualified, bare in _definitions(tree)
               if bare not in named]
    assert not unnamed, "named nowhere:\n" + "\n".join(unnamed)
