"""Guard: every top-level function and class in ``src/arl`` has a caller there.

Code that only tests or demos call does not belong in the package.  A
definition counts as called when ``src/arl`` names it, as a bare name or
as an attribute, anywhere outside its own body.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "arl"

# kept without a caller in src/arl, each for its reason
ALLOWED = {
    "load_checkpoint": "the only reader of the checkpoint.bin that `arl train` writes",
    "loss_on_logits": "the checked single-row entry point; acceptance test_1 checks its value derivatives",
}


def _names(node):
    """How often each identifier is named in ``node``, as a bare name or an attribute."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute)))


def test_every_definition_has_a_caller_in_src():
    trees = [ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))]
    defs = [node for tree in trees for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
    named = sum(map(_names, trees), Counter())
    uncalled = [node.name for node in defs
                if named[node.name] <= _names(node)[node.name] and node.name not in ALLOWED]
    assert not uncalled, f"named nowhere in src/arl outside their own bodies: {uncalled}"
    assert set(ALLOWED) <= {node.name for node in defs}, "the allowlist names a deleted definition"
