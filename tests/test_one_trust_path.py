"""One trust path: a bundle is verified where it is read.

Only ``cli.resolve_hopf``, which runs ``verify_hopf`` on what it parses, and
``cli.cmd_verify``, which reports those checks, turn bundle text into a
FinHopf.  Only ``cli.resolve_module``, whose modules ``check-functor`` runs
``verify_module`` on, and ``cli.cmd_verify`` turn it into a module.  Only
``cli.cmd_verify`` and ``cli.cmd_check_functor`` verify a module: a derived
module (a tensor product, Ind, CoInd, Res or ZInd) is one by construction or
by theorem and is never re-verified.  Nor is a derived coalgebra: only
``verify_hopf`` scans coassociativity and counitality, and the quotient
coalgebra H/HK+ is one by theorem.  No
provenance bit selects a second path through the checks: no module of the
package mentions one.  Nor does a caller hand in what an inclusion decides
itself: no function takes a centrality bit or a tr matrix beside the
inclusion.  The induction functor is its Frobenius data: no wrapper class
stands between the two.  Nor is the Frobenius system proved twice: in
``extension`` only the inclusion check and chi look a defect up again, and
no function of the package reads the distinguished grouplike.  Nor is the
rule that no product with the canonical one is computed kept twice: the
kernel keeps it for every caller, and only the kernel and ``exact_math`` spell
a skip of a factor one, for speed."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "hopfkit"


def _callers(tree, name, calls=True):
    """Names of the functions whose bodies call ``name`` (by bare name or as
    an attribute), "<module>" for a call outside every function; with
    ``calls=False``, those that read it at all, such as to pass it on."""
    out = set()

    def named(f):
        return (isinstance(f, ast.Name) and f.id == name) or \
            (isinstance(f, ast.Attribute) and f.attr == name)

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            target = child.func if isinstance(child, ast.Call) else None
            if named(target if calls else child):
                out.add(owner)
            visit(child, owner)

    visit(tree, "<module>")
    return out


def test_the_detector_finds_calls_by_name_and_by_attribute():
    src = (
        "from . import bundles\n"
        "def a(t):\n"
        "    return parse_hopf(t)\n"
        "def b(t):\n"
        "    def inner():\n"
        "        return bundles.parse_hopf(t)\n"
        "    return inner\n"
        "def c(t):\n"
        "    return parse_hopf\n"
        "parse_hopf('x')\n"
    )
    assert _callers(ast.parse(src), "parse_hopf") == {"a", "inner", "<module>"}
    assert _callers(ast.parse(src), "parse_hopf", calls=False) == {"a", "inner", "c", "<module>"}


def _package_callers(name, calls=True):
    """{file: callers of ``name``} over every file of the package."""
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        callers = _callers(ast.parse(path.read_text(), filename=str(path)), name, calls)
        if callers:
            found[path.relative_to(SRC).as_posix()] = callers
    return found


def test_only_resolve_hopf_and_cmd_verify_parse_a_hopf_bundle():
    assert _package_callers("parse_hopf") == {"cli.py": {"resolve_hopf", "cmd_verify"}}


def test_only_resolve_module_and_cmd_verify_parse_a_module_bundle():
    assert _package_callers("parse_module") == {"cli.py": {"resolve_module", "cmd_verify"}}


@pytest.mark.parametrize("name", ["verify_module", "verify_yd"])
def test_only_the_input_commands_verify_a_module(name):
    assert _package_callers(name) == {"cli.py": {"cmd_verify", "cmd_check_functor"}}


@pytest.mark.parametrize("name", ["coassoc_first_defect", "counital_defect"])
def test_only_verify_hopf_checks_a_coalgebra(name):
    # the kernel scan is handed to _first_defect, not called
    assert _package_callers(name, calls=False) == {"hopf_core.py": {"verify_hopf"}}


def test_no_provenance_bit_in_the_algebra_modules():
    for path in sorted(SRC.rglob("*.py")):
        assert "proven" not in path.read_text(), path.relative_to(SRC).as_posix()


def _signatures(tree):
    """{qualified name: parameter names} of every function of tree: a method
    is named Class.method, a nested function outer.inner."""
    out = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = prefix + child.name
                if not isinstance(child, ast.ClassDef):
                    a = child.args
                    params = (*a.posonlyargs, *a.args, a.vararg, *a.kwonlyargs, a.kwarg)
                    out[name] = [p.arg for p in params if p is not None]
                visit(child, name + ".")
            else:
                visit(child, prefix)

    visit(tree, "")
    return out


def test_the_signature_detector_names_methods_and_nested_functions():
    src = (
        "class C:\n"
        "    def __init__(self, frob, *, central=None):\n"
        "        def inner(tr_K, *rest, **kw):\n"
        "            pass\n"
        "def f(a, /, b):\n"
        "    pass\n"
        "if True:\n"
        "    def g():\n"
        "        pass\n"
    )
    assert _signatures(ast.parse(src)) == {
        "C.__init__": ["self", "frob", "central"],
        "C.__init__.inner": ["tr_K", "rest", "kw"],
        "f": ["a", "b"],
        "g": [],
    }


def _package_signatures():
    """{file: signatures} over every file of the package."""
    return {
        path.relative_to(SRC).as_posix(): _signatures(ast.parse(path.read_text(), filename=str(path)))
        for path in sorted(SRC.rglob("*.py"))
    }


def test_no_function_takes_a_centrality_bit_or_a_tr_matrix():
    found = [
        (path, name, p)
        for path, sigs in _package_signatures().items()
        for name, params in sigs.items()
        for p in params
        if p in ("central", "tr_K")
    ]
    assert found == []


def test_no_module_defines_or_mentions_an_induction_context_class():
    found = [path.relative_to(SRC).as_posix() for path in sorted(SRC.rglob("*.py"))
             if "InductionContext" in path.read_text()]
    assert found == []


def test_the_induction_context_is_the_frobenius_data_of_the_inclusion(h8_incl):
    from hopfkit.extension import make_frobenius_data
    from hopfkit.induction import induction_context

    assert induction_context(h8_incl) is make_frobenius_data(h8_incl)


def test_only_the_inclusion_check_and_chi_rescan_a_defect_in_extension():
    # the Frobenius system holds by chi and by rank: no scan of tr or of the
    # dual bases looks a defect up again
    assert _package_callers("_first_defect")["extension.py"] == {
        "verify_inclusion", "relative_modular_function"}


def test_no_function_of_the_package_reads_the_distinguished_grouplike():
    # alpha_H|_K = alpha_K is a theorem of chi = eps; only tests compute alpha
    assert _package_callers("distinguished_grouplike", calls=False) == {}


def _is_one(node):
    """Whether node names the canonical one: ``one``, ``ctx[4]`` or a call
    of ``s_one``."""
    if isinstance(node, ast.Name):
        return node.id == "one"
    if isinstance(node, ast.Subscript):
        return isinstance(node.slice, ast.Constant) and node.slice.value == 4
    if isinstance(node, ast.Call):
        f = node.func
        return (f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)) == "s_one"
    return False


def _unit_skips(tree):
    """Names of the functions holding a conditional expression that compares
    a value with the canonical one and falls back to ``s_mul`` or ``_mul``,
    "<module>" for one outside every function."""
    out = set()

    def multiplies(node):
        return any(isinstance(c, ast.Call) and (
            getattr(c.func, "id", None) in ("s_mul", "_mul")
            or getattr(c.func, "attr", None) in ("s_mul", "_mul")) for c in ast.walk(node))

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.IfExp) and isinstance(child.test, ast.Compare) \
                    and any(map(_is_one, [child.test.left, *child.test.comparators])) \
                    and multiplies(child):
                out.add(owner)
            visit(child, owner)

    visit(tree, "<module>")
    return out


def test_the_unit_skip_detector_finds_each_spelling():
    src = (
        "def a(ctx, x, y):\n"
        "    one = ctx[4]\n"
        "    return y if x == one else x if y == one else K.s_mul(ctx, x, y)\n"
        "def b(ctx, x, y):\n"
        "    return x if y == ctx[4] else s_mul(ctx, x, y)\n"
        "def c(ctx, x, y):\n"
        "    return (x if K.s_one(ctx) == y else _mul(ctx, x, y)) if x else y\n"
        "def d(ctx, x, y, zero):\n"
        "    return zero if x == zero else K.s_mul(ctx, x, y)\n"
        "def e(ctx, x, y, one):\n"
        "    return x if y == one else K.s_add(ctx, x, y)\n"
    )
    assert _unit_skips(ast.parse(src)) == {"a", "b", "c"}


def test_only_the_kernel_and_exact_math_skip_a_factor_one():
    # the kernel never multiplies by 1 (s_mul returns the other factor), so
    # code above exact_math multiplies plainly; the kernel's scans and
    # exact_math's sparse helpers keep their skips, for speed
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        owners = _unit_skips(ast.parse(path.read_text(), filename=str(path)))
        if owners:
            found[path.relative_to(SRC).as_posix()] = owners
    assert set(found) == {"_kernel.py", "exact_math.py"}, found
