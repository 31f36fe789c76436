"""Guard: every arl function that ``benchmark/run.py`` names is defined in ``src/arl``.

The benchmark counts and times arl functions by name: the targets of its
``ALIASES`` groups, ``SOLVE_PASS`` (one tempered-solve pass) and
``meta.arl_train``, which it wraps for ``US_PER_ITER``.  Its tracer wraps the
module-level functions of the modules in ``spans.MODULES``, and a name it
does not find reads as absent (0).  So a rename in ``src/arl`` would silently
zero a per-layer group such as ``passes_per_solve``.  The benchmark's files
are read with ``ast``, never imported or run.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "benchmark"
SRC = ROOT / "src" / "arl"


def _constants(path):
    """The module-level ``NAME = <literal>`` assignments of ``path``."""
    tree = ast.parse(path.read_text(), str(path))
    return {node.targets[0].id: ast.literal_eval(node.value) for node in tree.body
            if isinstance(node, ast.Assign) and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name) and _is_literal(node.value)}


def _is_literal(node):
    try:
        ast.literal_eval(node)
    except ValueError:
        return False
    return True


def _arl_attributes(path):
    """The ``module.function`` of every ``arl.module.function`` attribute chain in ``path``."""
    tree = ast.parse(path.read_text(), str(path))
    return {f"{node.value.attr}.{node.attr}" for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute)
            and isinstance(node.value.value, ast.Name) and node.value.value.id == "arl"}


def _named():
    """Each name the benchmark counts or times, with the places that name it."""
    run = _constants(BENCH / "run.py")
    places = [(fn, f"ALIASES[{group!r}]") for group, fn in run["ALIASES"].items()]
    places += [(run["SOLVE_PASS"], "SOLVE_PASS"), (run["US_PER_ITER"].rsplit(".", 2)[0], "US_PER_ITER")]
    places += [(fn, "an arl attribute") for fn in _arl_attributes(BENCH / "run.py")]
    named = {}
    for fn, where in places:
        named.setdefault(fn, []).append(where)
    return named


NAMED = _named()


def test_every_kind_of_name_is_read():
    # the parse finds names in each place, so the guard cannot pass on nothing
    wheres = {where.split("[")[0] for places in NAMED.values() for where in places}
    assert wheres == {"ALIASES", "SOLVE_PASS", "US_PER_ITER", "an arl attribute"}


@pytest.mark.parametrize("name", sorted(NAMED))
def test_named_function_is_defined_and_traced(name):
    module, function = name.split(".")
    assert module in _constants(BENCH / "spans.py")["MODULES"], f"{NAMED[name]}: the tracer wraps no {module!r}"
    tree = ast.parse((SRC / f"{module}.py").read_text())
    defined = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert function in defined, f"{NAMED[name]} names {name}, which src/arl/{module}.py does not define"
