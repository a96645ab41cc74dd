"""The bundle writers format each distinct raw scalar once per call, as the
parsers read each distinct scalar text once: no function in ``bundles``
boxes a scalar in a ``Cyclotomic`` or formats one inside a loop or
comprehension, where it would run once per entry line."""

import ast
from pathlib import Path

BUNDLES = Path(__file__).resolve().parents[1] / "src" / "hopfkit" / "bundles.py"

# Cyclotomic(...) and its class methods, and the two formatters
PER_SCALAR = {"Cyclotomic", "format_scalar", "format_raw"}
LOOPS = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _per_entry_calls(tree):
    """Line numbers of the calls of a ``PER_SCALAR`` name, or of an
    attribute of one, made inside a loop or comprehension."""
    out = []

    def visit(node, in_loop):
        if in_loop and isinstance(node, ast.Call):
            f = node.func
            if isinstance(f, ast.Attribute):
                f = f.value
            if isinstance(f, ast.Name) and f.id in PER_SCALAR:
                out.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, in_loop or isinstance(node, LOOPS))

    visit(tree, False)
    return sorted(set(out))


def test_the_detector_flags_a_per_entry_serializer():
    # the MULT, UNIT and ANTIPODE loops of serialize_hopf before scalars
    # were formatted once each
    src = (
        "def serialize_hopf(H):\n"
        "    lines = []\n"
        "    for i in range(n):\n"
        "        for j in range(n):\n"
        "            for k, s in H.mult[i * n + j]:\n"
        "                lines.append('%d %d %d %s' % (i, j, k, format_scalar(Cyclotomic(H.N, s))))\n"
        "    lines.extend('%d %s' % (i, format_scalar(Cyclotomic.promote(s)))\n"
        "                 for i, s in enumerate(vec))\n"
        "    text = dict(zip(distinct, map(format_raw, distinct)))\n"
        "    one = format_raw(H.unit[0])\n"
        "    while todo:\n"
        "        lines.append(format_raw(todo.pop()))\n"
        "    return lines\n"
    )
    assert _per_entry_calls(ast.parse(src)) == [6, 7, 12]


def test_no_bundle_writer_formats_a_scalar_per_entry():
    tree = ast.parse(BUNDLES.read_text(), filename=str(BUNDLES))
    assert _per_entry_calls(tree) == []
