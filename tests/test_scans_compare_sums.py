"""The axiom scans of ``_kernel`` compare the two sides of an axiom
as canonical sums: no ``*_first_defect*`` function, nor any kernel function
one calls, forms their difference with ``s_sub`` or ``s_neg`` or tests it
with ``s_is_zero``."""

import ast
import inspect
from pathlib import Path

import hopfkit._kernel

KERNEL = Path(inspect.getsourcefile(hopfkit._kernel))
FORBIDDEN = {"s_sub", "s_neg", "s_is_zero"}


def _called(func):
    return {node.func.id for node in ast.walk(func)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}


def _subtracting_scans(tree):
    """(function, name) for each forbidden name called by a ``*_first_defect*``
    function of tree or by a function of tree that one reaches."""
    defs = {f.name: f for f in tree.body if isinstance(f, ast.FunctionDef)}
    todo = [name for name in defs if "_first_defect" in name]
    reached = set()
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo.extend(c for c in _called(defs[name]) if c in defs)
    return sorted((name, c) for name in reached for c in _called(defs[name]) & FORBIDDEN)


def test_the_detector_finds_a_subtracting_scan():
    src = (
        "def assoc_first_defect(n, mult, ctx):\n"
        "    return s_is_zero(_diff(ctx, a, b))\n"
        "def _diff(ctx, a, b):\n"
        "    return s_add(ctx, a, s_neg(b))\n"
        "def antipode_first_defects(n, ctx):\n"
        "    return s_add(ctx, a, b)\n"
        "def s_sub(ctx, a, b):\n"
        "    return s_add(ctx, a, s_neg(b))\n"
    )
    assert _subtracting_scans(ast.parse(src)) == [("_diff", "s_neg"),
                                                  ("assoc_first_defect", "s_is_zero")]


def test_no_scan_subtracts_or_zero_tests():
    tree = ast.parse(KERNEL.read_text(), filename=str(KERNEL))
    scans = [f.name for f in tree.body if isinstance(f, ast.FunctionDef) and "_first_defect" in f.name]
    assert sorted(scans) == ["antimult_first_defect", "antipode_first_defects", "assoc_first_defect",
                             "bialg_first_defect", "coassoc_first_defect"]
    assert _subtracting_scans(tree) == []
