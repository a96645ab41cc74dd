"""One reader for builtin specs: only ``cli._parse_spec`` splits a spec into
its kind and keys, so no function of the package calls ``urlparse`` or a
``parse_qs*`` but that one, and none tells a builtin from a bundle path with
``startswith("builtin:")``.  Each builtin algebra or inclusion is built in one
place: each of its kind literals appears in one function of ``cli.py``.
(``trivial`` and ``unit`` also name a module and a Frobenius object, so each
has one place per family.)"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "hopfkit"
KINDS = ("h8", "group", "taft", "uqsl2", "double")


def _owners(tree, match):
    """Names of the innermost functions holding a node for which ``match``
    holds, "<module>" for a node outside every function."""
    out = set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if match(child):
                out.add(owner)
            visit(child, owner)

    visit(tree, "<module>")
    return out


def _calls_url_parser(node):
    if not isinstance(node, ast.Call):
        return False
    f = node.func
    name = f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else ""
    return name == "urlparse" or name.startswith("parse_qs")


def _tests_builtin_prefix(node):
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "startswith"
            and any(isinstance(a, ast.Constant) and isinstance(a.value, str)
                    and a.value.startswith("builtin") for a in node.args))


def _literal(text):
    return lambda node: isinstance(node, ast.Constant) and node.value == text


def _trees():
    return {path.relative_to(SRC).as_posix(): ast.parse(path.read_text(), filename=str(path))
            for path in sorted(SRC.rglob("*.py"))}


def test_the_detectors_find_parsers_prefix_tests_and_literals():
    src = (
        "from urllib.parse import parse_qs, urlparse\n"
        "import urllib.parse\n"
        "def a(s):\n"
        "    return urlparse(s), s.startswith('builtin:')\n"
        "def b(s):\n"
        "    def inner():\n"
        "        return urllib.parse.parse_qsl(s), 'h8'\n"
        "    return inner, s.startswith('x')\n"
        "def c(s):\n"
        "    return 'h8 algebra', urlparse\n"
        "KIND = 'h8'\n"
    )
    tree = ast.parse(src)
    assert _owners(tree, _calls_url_parser) == {"a", "inner"}
    assert _owners(tree, _tests_builtin_prefix) == {"a"}
    assert _owners(tree, _literal("h8")) == {"inner", "<module>"}


def test_only_parse_spec_may_call_a_url_parser():
    found = {(name, owner) for name, tree in _trees().items()
             for owner in _owners(tree, _calls_url_parser)}
    assert found <= {("cli.py", "_parse_spec")}


def test_no_function_tests_the_builtin_prefix():
    assert {name: owners for name, tree in _trees().items()
            if (owners := _owners(tree, _tests_builtin_prefix))} == {}


def test_each_builtin_kind_is_built_in_one_function():
    tree = _trees()["cli.py"]
    for kind in KINDS:
        owners = _owners(tree, _literal(kind))
        assert len(owners) == 1 and "<module>" not in owners, (kind, owners)
