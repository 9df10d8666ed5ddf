"""No private helper is left behind: each private module-level function,
class or table (a name bound by assignment) of the package is read again in
its own module, or imported from that module by another module of the
package.  Only reads count, so a table that is only assigned is an orphan.
The check is per module, because a private name is often reused in another
module for another helper."""

import ast
from pathlib import Path

import pregerst

PACKAGE = Path(pregerst.__file__).parent


def private_definitions(tree):
    """The private names tree binds at its top level by def, class or assignment."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.extend(n.id for target in targets for n in ast.walk(target)
                         if isinstance(n, ast.Name))
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def names_read_in(tree):
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def relative_imports(trees):
    """(module, name) for each name a package module imports from another."""
    out = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                out.update((node.module, alias.name) for alias in node.names)
    return out


def test_every_private_helper_is_used():
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))}
    imported = relative_imports(trees)
    defined, orphans = 0, []
    for module, tree in trees.items():
        named = names_read_in(tree)
        for name in private_definitions(tree):
            defined += 1
            if name not in named and (module, name) not in imported:
                orphans.append("%s.%s" % (module, name))
    assert defined > 50
    assert orphans == []


def scopes_reading(tree, name):
    """The dotted scopes (nested functions and classes, '' for the module)
    in which tree reads name, bare or as an attribute."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = scope + (child.name,)
            elif (isinstance(child, ast.Name) and child.id == name
                  and isinstance(child.ctx, ast.Load)) or (
                    isinstance(child, ast.Attribute) and child.attr == name):
                found.add(".".join(scope))
            visit(child, inner)
    visit(tree, ())
    return found


def test_only_the_signed_sum_rule_reads_the_term_cap():
    """The term cap is read by the one signed-sum rule, words._add_term and
    words._add_signed, and by get_term_cap; every other sum adds through
    them, so a budget passed down has exactly two readers to replace."""
    readers = {"%s.%s" % (path.stem, scope)
               for path in sorted(PACKAGE.glob("*.py"))
               for scope in scopes_reading(ast.parse(path.read_text()), "_TERM_CAP")}
    assert readers == {"words._add_term", "words._add_signed", "words.get_term_cap"}
