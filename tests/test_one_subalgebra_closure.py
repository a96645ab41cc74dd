"""One way to name a Hopf subalgebra: by its generators.  Every call of
``subhopf_from_basis`` in the package takes the basis indices from
``basis_closure``, so no index list is picked by hand; u_q(sl2) is a
FinHopf, with its subalgebras named by the table ``UQSL2_SUBALGEBRAS``; and
the Cartan row-sum scan returns its witness, with no record classes."""

import ast
from pathlib import Path

from hopfkit import builders
from hopfkit.hopf_core import FinHopf

SRC = Path(__file__).resolve().parents[1] / "src" / "hopfkit"


def _calls(tree, name):
    """The calls of ``name``, by bare name or as an attribute."""
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)
            and (getattr(node.func, "id", None) == name or getattr(node.func, "attr", None) == name)]


def _index_args(tree):
    """The basis-index argument of each ``subhopf_from_basis`` call, as source."""
    out = []
    for call in _calls(tree, "subhopf_from_basis"):
        args = call.args[1:2] + [k.value for k in call.keywords if k.arg == "indices"]
        out.append(ast.unparse(args[0]) if args else None)
    return out


def test_the_detector_reads_every_call():
    tree = ast.parse(
        "subhopf_from_basis(H, [0, 1, 2, 4], name='kK')\n"
        "hopf_core.subhopf_from_basis(H, indices=basis_closure(H, g))\n"
        "def f():\n"
        "    return subhopf_from_basis(H, basis_closure(H, gens))\n")
    assert _index_args(tree) == ["[0, 1, 2, 4]", "basis_closure(H, g)", "basis_closure(H, gens)"]


def test_every_subalgebra_of_the_package_is_a_basis_closure():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for arg in _index_args(ast.parse(path.read_text(), filename=str(path))):
            found.append(arg)
            assert arg is not None and arg.startswith("basis_closure("), (path.name, arg)
    assert found


def test_the_selector_and_record_classes_are_gone():
    for name in ("SmallQuantumSL2", "CartanDatum", "CartanRowSumReport", "cartan_row_sum_check"):
        assert not hasattr(builders, name), name


def test_small_quantum_sl2_is_a_finhopf():
    assert type(builders.small_quantum_sl2(3)) is FinHopf
