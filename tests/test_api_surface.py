"""No public function exists that only tests call.

Every name a ``copulamix`` module lists in ``__all__`` must be referenced
by the package's own code; a re-export by ``__init__`` is not a caller.  A
reference counts only from code that is itself in use: a top-level
definition that is not public, or a public one that passes this test.  So
public helpers that call only each other fail together.
"""

import ast
import pathlib

import copulamix

PACKAGE = pathlib.Path(copulamix.__file__).parent

# public names whose callers live outside the package
ALLOWED = {
    ("sampler", "load_chain"),  # reads back the draws of a fit bundle
}


def _public_names(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__"
                        for t in node.targets)):
            return {elt.value for elt in node.value.elts}
    return set()


def _references(module, tree):
    """{(module, definition or None): {(module, name) it refers to}}."""
    modules = {}  # local alias -> module, for ``from . import x as y``
    names = {}  # local name -> (module, name), for ``from .x import y``
    defined = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                local = alias.asname or alias.name
                if node.module is None:
                    modules[local] = alias.name
                else:
                    names[local] = (node.module, alias.name)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Assign):
            defined.update(t.id for t in node.targets
                           if isinstance(t, ast.Name))

    def targets(node):
        found = set()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                if sub.id in names:
                    found.add(names[sub.id])
                elif sub.id in defined:
                    found.add((module, sub.id))
            elif (isinstance(sub, ast.Attribute)
                  and isinstance(sub.value, ast.Name)
                  and sub.value.id in modules):
                found.add((modules[sub.value.id], sub.attr))
        return found

    refs = {(module, None): set()}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            refs[(module, node.name)] = targets(node)
        else:
            refs[(module, None)] |= targets(node)
    return refs


def _unused_public_names():
    public = set()
    refs = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        public |= {(path.stem, name) for name in _public_names(tree)}
        refs.update(_references(path.stem, tree))
    dead = set()
    while True:
        used = {target for owner, found in refs.items() if owner not in dead
                for target in found if target != owner}
        now = public - used - ALLOWED
        if now == dead:
            return sorted(dead)
        dead = now


def test_every_public_name_has_a_caller_in_the_package():
    assert _unused_public_names() == []


def test_allowed_names_still_exist():
    for module, name in ALLOWED:
        tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
        assert name in _public_names(tree), (module, name)
