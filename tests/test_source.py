"""Source hygiene: every module-level name and method in the package is used.

A name defined at module level in ``src/planechow`` counts as used when
some module of the package reads it, either as a bare name or as an
attribute (``moduli.groebner_basis``), other than where it is defined, or
when ``planechow/__init__.py`` re-exports it.  A method or property counts
as used when some module of the package reads an attribute of that name;
dunder methods are exempt, since Python calls them.  Names read only by
the tests belong in the tests.
"""

import ast
from collections import Counter
from pathlib import Path

import planechow

PACKAGE = Path(planechow.__file__).parent


def _defined_names(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names.extend(
                n.id
                for target in node.targets
                for n in ast.walk(target)
                if isinstance(n, ast.Name)
            )
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return names


def _defined_methods(tree: ast.Module) -> list[tuple[str, str]]:
    """(class name, method name) of every function in a class body."""
    return [
        (node.name, item.name)
        for node in tree.body
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]


def unused_names(package: Path) -> list[str]:
    """Module-level names and methods of the package that nothing in it reads.

    Methods are reported as ``Class.method``.
    """
    defined: list[str] = []
    methods: list[tuple[str, str]] = []
    reads: Counter = Counter()
    attributes: Counter = Counter()
    exported: set[str] = set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined.extend(_defined_names(tree))
        methods.extend(_defined_methods(tree))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads[node.id] += 1
            elif isinstance(node, ast.Attribute):
                reads[node.attr] += 1
                attributes[node.attr] += 1
            elif path.name == "__init__.py" and isinstance(node, ast.ImportFrom):
                exported.update(a.asname or a.name for a in node.names)
    unused = [
        name
        for name in set(defined)
        if not reads[name] and name not in exported and not name.startswith("__")
    ]
    unused.extend(
        f"{cls}.{name}"
        for cls, name in set(methods)
        if not attributes[name] and not name.startswith("__")
    )
    return sorted(unused)


def test_scanner_flags_an_unused_constant(tmp_path):
    (tmp_path / "__init__.py").write_text("from .a import kept\n")
    (tmp_path / "a.py").write_text(
        "USED = 1\nUNUSED = 2\n\ndef kept():\n    return USED\n\n"
        "def helper():\n    pass\n"
    )
    (tmp_path / "b.py").write_text("from . import a\n\nVALUE = a.helper()\n")
    assert unused_names(tmp_path) == ["UNUSED", "VALUE"]


def test_scanner_flags_an_unused_method_or_property(tmp_path):
    (tmp_path / "__init__.py").write_text("from .a import Box\n")
    (tmp_path / "a.py").write_text(
        "class Box:\n"
        "    def __init__(self, v):\n        self.v = v\n\n"
        "    def __eq__(self, other):\n        return self.read() == other\n\n"
        "    def read(self):\n        return self.v\n\n"
        "    def unread(self):\n        return self.v\n\n"
        "    @property\n    def size(self):\n        return 1\n\n"
        "    @property\n    def shown(self):\n        return 2\n"
    )
    (tmp_path / "b.py").write_text(
        "from .a import Box\n\nSHOWN = Box(1).shown\nprint(SHOWN)\n"
    )
    assert unused_names(tmp_path) == ["Box.size", "Box.unread"]


def test_no_unused_module_names():
    assert unused_names(PACKAGE) == []
