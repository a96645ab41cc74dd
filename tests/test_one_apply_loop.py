"""A linear map applied to a sparse vector goes through ``exact_math._apply``:
no other module writes the loop

    for k, c in vec.items():
        _axpy(ctx, acc, cols[k], c)

itself, whether the column is read as ``cols[k]`` or as ``col_of(k)``."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "hopfkit"


def _apply_loops(tree):
    """Line numbers of the loops ``for k, c in v.items():`` whose whole body
    is ``_axpy(ctx, acc, T[k], c)`` or ``_axpy(ctx, acc, f(k), c)``."""
    out = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.For) and len(node.body) == 1
                and isinstance(node.target, ast.Tuple) and len(node.target.elts) == 2
                and all(isinstance(e, ast.Name) for e in node.target.elts)):
            continue
        it, stmt = node.iter, node.body[0]
        if not (isinstance(it, ast.Call) and isinstance(it.func, ast.Attribute)
                and it.func.attr == "items" and not it.args):
            continue
        if not (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call)
                and isinstance(stmt.value.func, ast.Name) and stmt.value.func.id == "_axpy"
                and len(stmt.value.args) == 4):
            continue
        k, c = (e.id for e in node.target.elts)
        col, coeff = stmt.value.args[2:]
        if isinstance(col, ast.Subscript):
            index = [col.slice]
        elif isinstance(col, ast.Call):
            index = col.args
        else:
            continue
        if ([ast.dump(a) for a in index] == [ast.dump(ast.Name(k, ast.Load()))]
                and isinstance(coeff, ast.Name) and coeff.id == c):
            out.append(node.lineno)
    return out


def test_the_detector_finds_both_forms_of_the_loop():
    src = (
        "def f(ctx, cols, v):\n"
        "    out = {}\n"
        "    for k, c in v.items():\n"
        "        _axpy(ctx, out, cols[k], c)\n"
        "    for b, c in v.items():\n"
        "        _axpy(ctx, out, self.embed_col(b), c)\n"
        "    for k, c in v.items():\n"
        "        _axpy(ctx, out, cols[c], k)\n"
        "    return out\n"
    )
    assert _apply_loops(ast.parse(src)) == [3, 5]


def test_only_exact_math_applies_a_column_table_by_hand():
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        lines = _apply_loops(ast.parse(path.read_text(), filename=str(path)))
        if lines:
            found[path.relative_to(SRC).as_posix()] = lines
    assert list(found) == ["exact_math.py"] and len(found["exact_math.py"]) == 1, found
