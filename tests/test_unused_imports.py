"""No module of the package keeps a top-level import that it never reads.

The check parses each source file with the standard library's ast, so it
needs no linter.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "arithgroups"


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


def test_the_check_finds_an_unused_import():
    source = "import os\nimport os.path as osp\nfrom math import gcd, prod\nprint(gcd, osp)\n"
    assert unused_imports(source) == ["os", "prod"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_no_unused_top_level_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
