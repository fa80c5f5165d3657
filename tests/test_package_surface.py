"""Every public function, class and method of the package has a caller in the
package: a name that nothing in `src/` reads is dead library code."""

import ast
from collections import Counter
from pathlib import Path

import k3lat

PACKAGE = Path(k3lat.__file__).parent

# The two sides of the nikulin-roundtrip workload's "roundtrip" op
# (bench/run.py:run_op), which no command runs.
ENTRY_POINTS = {"nikulin.brute_force_embeddings", "nikulin.enumerate_valid_glues"}


def _definitions(tree, module):
    """(qualified name, name, node) of each public top-level function or class
    and of each public method of a public class."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        yield f"{module}.{node.name}", node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{module}.{node.name}.{item.name}", item.name, item


def _references(node):
    """Every name read in node, as a bare name or an attribute; imports do not count."""
    return Counter(
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Name, ast.Attribute))
    )


def test_every_public_name_has_a_caller_in_the_package():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    total = sum((_references(tree) for tree in trees.values()), Counter())
    unreached = [
        qualname
        for module, tree in trees.items()
        for qualname, name, node in _definitions(tree, module)
        if total[name] == _references(node)[name] and qualname not in ENTRY_POINTS
    ]
    assert not unreached, f"no caller in src/: {unreached}"
