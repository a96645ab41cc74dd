"""Only ``_kernel`` builds or reads the form of a raw scalar.

A raw scalar is an interned id, or its canonical tuple once the table of ids
is full, and equality of raw scalars is equality of values only while every
one of them comes out of the kernel.  So the table, its index and the
interning helper are named only in ``_kernel.py``, and every raw scalar in
the tables of the catalogue algebras and of the parsed benchmark bundles is
its own re-canonicalization: a tuple built elsewhere, or one left without
the id its value has, would differ from it."""

import ast
from pathlib import Path

import pytest

from hopfkit import _kernel as K
from hopfkit.bundles import parse_hopf, serialize_hopf
from hopfkit.cli import resolve_hopf
from test_builders import TABLE_DIGESTS
from test_bundle_reading import AXIOM_SPECS

ROOT = Path(__file__).resolve().parents[1]
KERNEL_ONLY = ("_values", "_ids", "_intern")


def _references(tree, names):
    """Line numbers of every name, attribute, import or string constant in
    tree that spells one of names."""
    out = []
    for node in ast.walk(tree):
        spelled = (node.id if isinstance(node, ast.Name) else
                   node.attr if isinstance(node, ast.Attribute) else
                   node.name if isinstance(node, ast.alias) else
                   node.value if isinstance(node, ast.Constant) else None)
        if spelled in names:
            out.append(node.lineno)
    return sorted(out)


def test_the_detector_finds_names_attributes_imports_and_strings():
    src = (
        "from hopfkit._kernel import _intern\n"
        "import hopfkit._kernel as K\n"
        "def f(t):\n"
        "    return K._ids.get(t), _values, getattr(K, '_intern')\n"
        "def g(values, ids):\n"
        "    return values, ids, '_interned'\n"
    )
    assert _references(ast.parse(src), KERNEL_ONLY) == [1, 4, 4, 4]


def test_only_the_kernel_names_the_table_of_raw_scalars():
    found = {}
    paths = sorted((ROOT / "src" / "hopfkit").rglob("*.py")) + sorted((ROOT / "hopfbench").rglob("*.py"))
    for path in paths:
        if path.name == "_kernel.py":
            continue
        lines = _references(ast.parse(path.read_text(), filename=str(path)), KERNEL_ONLY)
        if lines:
            found[path.relative_to(ROOT).as_posix()] = lines
    assert found == {}, found


def _raw_scalars(H):
    """Every raw scalar of the structure tables of the FinHopf H."""
    yield from H.unit
    yield from H.counit
    for table in (H.mult, H.comult, H.antipode_cols):
        for row in table:
            for _, s in row:
                yield s


def _not_canonical(H):
    """The raw scalars of H that differ from their re-canonicalization."""
    out = []
    for s in set(_raw_scalars(H)):
        parts = K.s_parts(s)
        if K.s_from_ints(parts[0], parts[1:]) != s:
            out.append(s)
    return out


@pytest.mark.parametrize("spec", sorted(TABLE_DIGESTS))
def test_catalogue_tables_hold_only_kernel_scalars(spec):
    assert _not_canonical(resolve_hopf(spec)) == []


@pytest.mark.parametrize("spec", AXIOM_SPECS)
def test_parsed_bundles_hold_only_kernel_scalars(spec):
    assert _not_canonical(parse_hopf(serialize_hopf(resolve_hopf(spec)))) == []
