"""A functional is the tuple of its raw values, and module actions sum
through one primitive.

A functional on H, Hbar or K is stored as the dense tuple of its raw values
and applied by ``exact_math._dot``: no module of the package defines a
functional class, a ``counit_functional`` view or a ``lincomb`` of matrices.
Every action of an algebra vector on a module, as a module is verified,
restricted or induced, is summed by ``exact_math._act_blocks``."""

import ast
import sys
from pathlib import Path

import pytest

from conftest import h8_v2, kchar
from hopfkit import exact_math
from hopfkit.extension import rescale_frobenius_data
from hopfkit.induction import induce
from hopfkit.module_theory import restrict, verify_module

SRC = Path(__file__).resolve().parents[1] / "src" / "hopfkit"

GONE = {"LinearFunctional", "lincomb", "_lincomb_coefficient", "counit_functional"}


def _defined(tree):
    """The names of every class and function, at any depth, that tree defines."""
    return {node.name for node in ast.walk(tree)
            if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))}


def test_the_detector_finds_nested_definitions():
    src = (
        "class Matrix:\n"
        "    @classmethod\n"
        "    def lincomb(cls, terms):\n"
        "        return terms\n"
        "def f():\n"
        "    class LinearFunctional:\n"
        "        pass\n"
    )
    assert _defined(ast.parse(src)) & GONE == {"lincomb", "LinearFunctional"}


def test_no_functional_type_and_no_second_action_sum():
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        names = _defined(ast.parse(path.read_text(), filename=str(path))) & GONE
        if names:
            found[path.relative_to(SRC).as_posix()] = sorted(names)
    assert found == {}


@pytest.fixture
def act_calls(monkeypatch):
    """The calls of ``exact_math._act_blocks``, spied on in every hopfkit
    namespace that binds it."""
    calls = []
    real = exact_math._act_blocks

    def spy(*args):
        calls.append(args)
        return real(*args)

    for name, mod in list(sys.modules.items()):
        if (name == "hopfkit" or name.startswith("hopfkit.")) and \
                getattr(mod, "_act_blocks", None) is real:
            monkeypatch.setattr(mod, "_act_blocks", spy)
    return calls


def test_verify_module_sums_actions_through_act_blocks(h8, act_calls):
    assert verify_module(h8_v2(h8)).ok
    assert act_calls


def test_restrict_sums_actions_through_act_blocks(h8, h8_incl, act_calls):
    res = restrict(h8_incl, h8_v2(h8))
    assert res.dim == 2 and len(act_calls) == h8_incl.K.dim


def test_induce_sums_actions_through_act_blocks(h8_incl, h8_frob, act_calls):
    # rescaled data starts with an empty cache, so Ind V is built here
    frob = rescale_frobenius_data(h8_frob, 1)
    ind = induce(frob, kchar(h8_incl.K, 1, -1))
    assert ind.H is h8_incl.H and len(act_calls) == h8_incl.H.dim
