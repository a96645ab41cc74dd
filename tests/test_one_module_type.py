"""One module type: a Yetter-Drinfeld module is an ``HModule`` that adds
only its coaction.  It is named, keyed and compared by its module, so no
function reaches through a ``.module`` attribute to the module inside, and
``serialize_module`` writes a coaction because the module holds one, not
because a caller passes it."""

import ast
import inspect
from pathlib import Path

from conftest import kline
from hopfkit.bundles import parse_module, serialize_module
from hopfkit.cli import resolve_hopf
from hopfkit.module_theory import HModule
from hopfkit.yetter_drinfeld import YDModule

SRC = Path(__file__).resolve().parents[1] / "src" / "hopfkit"
KLEIN = "builtin:group?table=klein"


def _module_reads(tree):
    """Line numbers of the attribute reads ``x.module`` in tree; the
    ``module`` of ``from x import y`` is not an attribute and is skipped."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "module")


def test_the_detector_flags_a_wrapped_module_read():
    # yd_tensor as it read while YDModule wrapped its module
    src = (
        "from .module_theory import HModule, tensor_modules\n"
        "def yd_tensor(M, N_mod):\n"
        "    if M.H.name != N_mod.H.name:\n"
        "        raise ShapeError('tensor of YD modules over different algebras')\n"
        "    mod = tensor_modules(M.module, N_mod.module)\n"
        "    return mod\n"
    )
    assert _module_reads(ast.parse(src)) == [5, 5]


def test_no_function_reads_a_wrapped_module():
    reads = {}
    for path in sorted(SRC.rglob("*.py")):
        lines = _module_reads(ast.parse(path.read_text(), filename=str(path)))
        if lines:
            reads[str(path.relative_to(SRC))] = lines
    assert reads == {}


def test_a_yd_module_is_a_module_that_adds_only_its_coaction():
    assert issubclass(YDModule, HModule)
    assert not {"H", "dim", "N", "module"} & set(vars(YDModule))


def test_the_writer_takes_no_coaction_and_the_constructor_no_name():
    assert list(inspect.signature(serialize_module).parameters) == ["mod", "over_ref"]
    assert list(inspect.signature(YDModule.__init__).parameters) == ["self", "module", "coaction"]


def test_a_yd_bundle_reads_back_as_the_yd_module_it_was_written_from():
    K = resolve_hopf(KLEIN)
    L = kline(K, "x", 1, -1)
    text = serialize_module(L, KLEIN)
    back = parse_module(text, resolve_hopf)
    assert isinstance(back, YDModule)
    assert (back.name, back.action, back.coaction) == (L.name, L.action, L.coaction)
    plain = serialize_module(HModule(L.H, L.action, name=L.name), KLEIN)
    assert "COACTION" not in plain
    assert text.startswith(plain[:-1]) and "BEGIN COACTION" in text
    assert type(parse_module(plain, resolve_hopf)) is HModule
