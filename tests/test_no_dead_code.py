"""No dead code in ``src/hopfkit``: every module-level import is used in its
module, every private module-level def or class is referenced somewhere in
the package, every public function, class and method is referenced in the
package, ``tests`` or ``hopfbench``, every import, def or class inside a
function is used by that function, and every parameter of a function is
read in its body.  Package
``__init__`` files re-export what they import, so their module-level imports
count as used.  The test files of ``tests`` use every name they import at
module level too."""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "hopfkit"
BENCH = TESTS.parent / "hopfbench"

# (module, name) of private defs that nothing in the package references, with
# the reason each stays
ALLOWED_UNREFERENCED = {
    ("cli", "_jobs"): "hopfbench/run.py imports it and test_benchmark_names.py pins it",
}

# (module, function, parameter) that the function's body does not read, with
# the reason each stays
ALLOWED_UNREAD = {
    (m, f, "ctx"): "every scalar operation takes the context first, so that "
                   "callers need not know which ones read it"
    for m, f in (("_kernel", "s_add"), ("_kernel", "s_from_fractions"))
}


def _modules():
    """{dotted name below hopfkit: parsed module} for every source file."""
    out = {}
    for path in sorted(SRC.rglob("*.py")):
        name = ".".join(path.relative_to(SRC).with_suffix("").parts)
        out[name] = ast.parse(path.read_text(), filename=str(path))
    return out


def _test_modules():
    """{tests/<file>: parsed module} for every test file."""
    return {"tests/" + path.name: ast.parse(path.read_text(), filename=str(path))
            for path in sorted(TESTS.glob("*.py"))}


def _bound_names(node):
    """The names a module-level import statement binds."""
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    return [a.asname or a.name.split(".")[0] for a in node.names]


def _loaded_names(tree, skip=None):
    """Every Name, Attribute attribute and from-imported name in tree, outside
    the subtree skip."""
    names = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(a.name for a in node.names)
        stack.extend(ast.iter_child_nodes(node))
    return names


def _local_bindings(func):
    """(node, bound names) for each import, def and class in the scope of the
    function func itself, outside the bodies of its nested defs and classes."""
    out = []
    stack = list(func.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            out.append((node, _bound_names(node)))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append((node, [node.name]))
        else:
            stack.extend(ast.iter_child_nodes(node))
    return out


def _dunder_all(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {e.value for e in node.value.elts}
    return set()


def _unused_imports(tree):
    """The names that module-level imports of tree bind and nothing reads.
    An import binds a bare name, so an attribute of the same name (``m.f``)
    does not use it."""
    imports = [n for n in tree.body if isinstance(n, (ast.Import, ast.ImportFrom))]
    used = {n.id for node in tree.body if node not in imports
            for n in ast.walk(node) if isinstance(n, ast.Name)}
    used |= _dunder_all(tree)
    return [b for n in imports for b in _bound_names(n) if b not in used]


def test_every_module_level_import_is_used():
    unused = [(name, b) for name, tree in {**_modules(), **_test_modules()}.items()
              if not (name == "__init__" or name.endswith(".__init__"))
              for b in _unused_imports(tree)]
    assert unused == []


def test_unused_import_detector():
    tree = ast.parse(
        "import a.b\n"
        "from m import f, g, h as k\n"
        "x = mod.f\n"
        "y = g(a.b)\n"
        "def u():\n"
        "    from m import k\n"
    )
    assert _unused_imports(tree) == ["f", "k"]


def test_every_function_local_import_and_def_is_used():
    unused = []
    for name, tree in _modules().items():
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node, bound in _local_bindings(func):
                # a nested def that only calls itself is still unused
                used = _loaded_names(func, skip=node)
                unused += [(name, func.name, b) for b in bound if b not in used]
    assert unused == []


def test_every_private_module_level_def_is_referenced():
    modules = _modules()
    unreferenced = []
    for name, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            private = node.name.startswith("_") and not node.name.startswith("__")
            if not private or (name, node.name) in ALLOWED_UNREFERENCED:
                continue
            if not any(node.name in _loaded_names(t, skip=node) for t in modules.values()):
                unreferenced.append((name, node.name))
    assert unreferenced == []


def _public_defs(tree):
    """(qualified name, node) for each public def or class at module level
    and each public method of a module-level class, dunders left out."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append((node.name, node))
            if isinstance(node, ast.ClassDef):
                out += [("%s.%s" % (node.name, f.name), f) for f in node.body
                        if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))]
    return [(q, n) for q, n in out if not n.name.startswith("_")]


def _unreferenced_public_defs(modules, others):
    """(module, qualified name) for each public def of the trees in modules
    that no tree of modules or others loads, outside the def itself.  The
    ``cmd_*`` handlers of ``cli`` count as used: ``cli.main`` looks them up
    by name."""
    names = {key: _loaded_names(t) for key, t in {**modules, **others}.items()}
    out = []
    for name, tree in modules.items():
        for qual, node in _public_defs(tree):
            if name == "cli" and node.name.startswith("cmd_"):
                continue
            if not any(node.name in loaded for key, loaded in names.items() if key != name) \
                    and node.name not in _loaded_names(tree, skip=node):
                out.append((name, qual))
    return out


def test_every_public_def_is_referenced():
    others = {**_test_modules(), **{
        str(p): ast.parse(p.read_text(), filename=str(p))
        for p in sorted(BENCH.glob("*.py")) + sorted(BENCH.glob("tests/*.py"))}}
    assert _unreferenced_public_defs(_modules(), others) == []


def test_public_def_detector():
    tree = ast.parse(
        "def f():\n"
        "    return C().m\n"
        "class C:\n"
        "    def m(self):\n"
        "        return 1\n"
        "    def unread(self):\n"
        "        return self.unread()\n"
        "    def __len__(self):\n"
        "        return 0\n"
        "def _private():\n"
        "    return 0\n"
        "def cmd_run(args):\n"
        "    return 0\n"
    )
    assert [q for q, _ in _public_defs(tree)] == ["f", "C", "C.m", "C.unread", "cmd_run"]
    assert _unreferenced_public_defs({"m": tree}, {}) == [
        ("m", "f"), ("m", "C.unread"), ("m", "cmd_run")]
    others = {"t": ast.parse("f()")}
    assert _unreferenced_public_defs({"cli": tree}, others) == [("cli", "C.unread")]


def test_allow_list_names_only_private_defs_that_exist():
    modules = _modules()
    for name, attr in ALLOWED_UNREFERENCED:
        assert any(
            isinstance(n, (ast.FunctionDef, ast.ClassDef)) and n.name == attr
            for n in modules[name].body
        ), (name, attr)


def _unread_parameters(tree):
    """(function, parameter) for each parameter of a def in tree that its body
    never reads, leaving out the self or cls of a method."""
    methods = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body}
    out = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = func.args
        params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
        params += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
        static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                     for d in func.decorator_list)
        if id(func) in methods and not static:
            params = params[1:]
        read = {n.id for stmt in func.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        out += [(func.name, p) for p in params if p not in read]
    return out


def test_every_parameter_is_read():
    unread = [(name,) + fp for name, tree in _modules().items() for fp in _unread_parameters(tree)]
    assert [u for u in unread if u not in ALLOWED_UNREAD] == []
    assert sorted(set(ALLOWED_UNREAD) - set(unread)) == []


def test_unread_parameter_detector():
    tree = ast.parse(
        "def f(a, b, *c, d=1, **e):\n"
        "    return a + sum(c) + (lambda: d)()\n"
        "class C:\n"
        "    def m(self, x):\n"
        "        return 1\n"
        "    @staticmethod\n"
        "    def s(y):\n"
        "        return 1\n"
    )
    assert _unread_parameters(tree) == [("f", "b"), ("f", "e"), ("m", "x"), ("s", "y")]
