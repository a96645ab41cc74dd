"""One trust path: a bundle is verified where it is read.

Only ``cli.resolve_hopf``, which runs ``verify_hopf`` on what it parses, and
``cli.cmd_verify``, which reports those checks, turn bundle text into a
FinHopf.  Only ``cli.resolve_module``, whose modules ``check-functor`` runs
``verify_module`` on, and ``cli.cmd_verify`` turn it into a module.  No
provenance bit selects a second path through the checks: no module of the
package mentions one."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "hopfkit"


def _callers(tree, name):
    """Names of the functions whose bodies call ``name`` (by bare name or as
    an attribute), "<module>" for a call outside every function."""
    out = set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                f = child.func
                if (isinstance(f, ast.Name) and f.id == name) or \
                        (isinstance(f, ast.Attribute) and f.attr == name):
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


def _package_callers(name):
    """{file: callers of ``name``} over every file of the package."""
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        callers = _callers(ast.parse(path.read_text(), filename=str(path)), name)
        if callers:
            found[path.relative_to(SRC).as_posix()] = callers
    return found


def test_only_resolve_hopf_and_cmd_verify_parse_a_hopf_bundle():
    assert _package_callers("parse_hopf") == {"cli.py": {"resolve_hopf", "cmd_verify"}}


def test_only_resolve_module_and_cmd_verify_parse_a_module_bundle():
    assert _package_callers("parse_module") == {"cli.py": {"resolve_module", "cmd_verify"}}


def test_no_provenance_bit_in_the_algebra_modules():
    for path in sorted(SRC.rglob("*.py")):
        assert "proven" not in path.read_text(), path.relative_to(SRC).as_posix()
