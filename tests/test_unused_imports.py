"""No module of the package keeps a top-level import that it never reads, and
no top-level function, class or assigned name that nothing in the package or
its tests reads.

The checks parse each source file with the standard library's ast, so they
need no linter.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "arithgroups"
# only perfbench's provenance reads them (ROADMAP item 1)
READ_OUTSIDE = {("closure.py", "backend_name"), ("closure.py", "_native")}


def unused_imports(source):
    """The names bound by top-level imports of source that no expression reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                            and node.module != "__future__"):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name != "*" and name not in read]


def defined_names(node):
    """The names a top-level statement defines: a function, a class, or the
    plain names an assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [name.id for target in targets for name in ast.walk(target)
                if isinstance(name, ast.Name)]
    return []


def unread_definitions(sources, readers):
    """(file, name) of each top-level function, class and assigned name in
    sources, a dict from file name to source, that no Name or Attribute in
    readers reads."""
    read = set()
    for source in readers:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return [(file, name) for file, source in sources.items()
            for node in ast.parse(source).body
            for name in defined_names(node) if name not in read]


def test_the_check_finds_an_unused_import():
    source = "import os\nimport os.path as osp\nfrom math import gcd, prod\nprint(gcd, osp)\n"
    assert unused_imports(source) == ["os", "prod"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_no_unused_top_level_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_finds_an_unread_definition():
    sources = {"a.py": "def f(): pass\ndef g(): pass\nclass C: pass\nclass D: pass\n"}
    readers = list(sources.values()) + ["import a\nf = 1\nprint(a.C, [g])\n"]
    # a definition is no read, and neither is an assignment
    assert unread_definitions(sources, readers) == [("a.py", "f"), ("a.py", "D")]


def test_the_check_finds_an_unread_assignment():
    sources = {"a.py": "N = 1\nM: int = 2\nA, B = 3, 4\nT = N + A\n"}
    readers = list(sources.values()) + ["import a\nprint(a.M)\n"]
    assert unread_definitions(sources, readers) == [("a.py", "B"), ("a.py", "T")]


def test_every_top_level_definition_is_read():
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    readers = list(sources.values()) + [path.read_text(encoding="utf-8")
                                        for path in sorted(TESTS.glob("*.py"))]
    assert set(unread_definitions(sources, readers)) == READ_OUTSIDE
