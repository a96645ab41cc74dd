"""One trust path: a bundle algebra is verified where it is read.

Only ``cli.resolve_hopf``, which runs ``verify_hopf`` on what it parses, and
``cli.cmd_verify``, which reports those checks, turn bundle text into a
FinHopf.  No provenance bit selects a second path through the checks: the
modules that build, verify and analyze algebras and inclusions never mention
one."""

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


def test_only_resolve_hopf_and_cmd_verify_parse_a_hopf_bundle():
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        callers = _callers(ast.parse(path.read_text(), filename=str(path)), "parse_hopf")
        if callers:
            found[path.relative_to(SRC).as_posix()] = callers
    assert found == {"cli.py": {"resolve_hopf", "cmd_verify"}}


def test_no_provenance_bit_in_the_algebra_modules():
    for name in ("hopf_core", "extension", "builders", "cli"):
        assert "proven" not in (SRC / ("%s.py" % name)).read_text(), name
