"""Source-level guards on genmat's error handling."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "genmat"

# Catching any of these turns a library bug into an answer.
BLANKET = {"TypeError", "AttributeError", "IndexError", "Exception", "BaseException"}


def _names(node, aliases) -> set:
    """Exception names an except clause's type expression catches."""
    if node is None:
        return {"BaseException"}
    if isinstance(node, ast.Tuple):
        return set().union(*(_names(e, aliases) for e in node.elts))
    if isinstance(node, ast.Name) and node.id in aliases:
        return _names(aliases[node.id], aliases)
    return {ast.unparse(node)}


def test_no_except_clause_catches_bug_errors():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        # A module-level tuple of exceptions can hide behind one name.
        aliases = {
            node.targets[0].id: node.value
            for node in tree.body
            if isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Tuple)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.ExceptHandler):
                caught = _names(node.type, aliases) & BLANKET
                if caught:
                    offenders.append(f"{path.name}:{node.lineno} catches {sorted(caught)}")
    assert not offenders, offenders
