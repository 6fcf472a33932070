"""No module imports a name it never uses.

No linter runs over the repository, so this scans the modules of ``src/``
and ``tests/`` with the AST: every name an ``import`` statement binds must
be read somewhere in its module.  A statement marked ``# noqa: F401`` on
any of its lines (a re-export, or a name other code reaches through this
module) is exempt, as it is for pyflakes.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _unused_imports(path):
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = {}  # bound name -> line of its import
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line
               for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.relative_to(ROOT)}:{line}: {name}"
            for name, line in sorted(imported.items()) if name not in read]


def test_no_unused_imports():
    paths = sorted([*ROOT.glob("src/**/*.py"), *ROOT.glob("tests/**/*.py")])
    assert paths
    hits = [hit for path in paths for hit in _unused_imports(path)]
    assert not hits, "\n".join(hits)
