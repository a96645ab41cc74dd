"""One way to build a Hopf algebra: every FinHopf enters through
``FinHopf.__init__`` with raw tables, so the class defines no classmethod
constructor.  In ``builders`` the coproducts, counits and antipodes of
monomial bases come from one helper, so only ``_pbw`` calls
``_tensor_square_mul``, and no entry is boxed as a ``Fraction``: the module
imports nothing from ``fractions``."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "hopfkit"


def _tree(name):
    path = SRC / name
    return ast.parse(path.read_text(), filename=str(path))


def _classmethods(tree, cls):
    """Names of the methods of class ``cls`` decorated with ``classmethod``."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == cls:
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and any(
                        isinstance(d, ast.Name) and d.id == "classmethod"
                        for d in item.decorator_list):
                    out.add(item.name)
    return out


def _callers(tree, name):
    """Names of the functions whose bodies call ``name`` by bare name,
    "<module>" for a call outside every function."""
    out = set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                    and child.func.id == name):
                out.add(owner)
            visit(child, owner)

    visit(tree, "<module>")
    return out


def _imports_from(tree, module):
    """Line numbers of ``import module`` and ``from module import ...``."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == module and not node.level:
            out.append(node.lineno)
        elif isinstance(node, ast.Import) and any(a.name == module for a in node.names):
            out.append(node.lineno)
    return sorted(out)


def test_the_detectors_find_constructors_callers_and_imports():
    src = (
        "import fractions\n"
        "from fractions import Fraction\n"
        "from .fractions import x\n"
        "class FinHopf:\n"
        "    @classmethod\n"
        "    def from_tensors(cls):\n"
        "        return cls()\n"
        "    @staticmethod\n"
        "    def helper():\n"
        "        return _tensor_square_mul\n"
        "class Other:\n"
        "    @classmethod\n"
        "    def build(cls):\n"
        "        return cls()\n"
        "def _pbw():\n"
        "    return _tensor_square_mul(1)\n"
        "def taft():\n"
        "    def step():\n"
        "        return _tensor_square_mul(2)\n"
        "    return step, K._tensor_square_mul(3)\n"
    )
    tree = ast.parse(src)
    assert _classmethods(tree, "FinHopf") == {"from_tensors"}
    assert _callers(tree, "_tensor_square_mul") == {"_pbw", "step"}
    assert _imports_from(tree, "fractions") == [1, 2]


def test_finhopf_has_no_classmethod_constructor():
    assert _classmethods(_tree("hopf_core.py"), "FinHopf") == set()


def test_only_the_monomial_helper_multiplies_in_the_tensor_square():
    assert _callers(_tree("builders.py"), "_tensor_square_mul") == {"_pbw"}


def test_builders_box_no_fractions():
    assert _imports_from(_tree("builders.py"), "fractions") == []
