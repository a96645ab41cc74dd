"""Derived values are memoized through ``hopf_core.cached``: no other code in
``src/hopfkit`` reads or writes an object's ``_cache`` by subscript or by
``.get``, so the memo decision (key, store, and what a raising call leaves)
is written once."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "hopfkit"


def _is_cache(node):
    return isinstance(node, ast.Attribute) and node.attr == "_cache"


def _cache_accesses(tree):
    """Line numbers of ``x._cache[...]`` and ``x._cache.get(...)`` outside
    the body of a function named ``cached``."""
    out = []
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.FunctionDef) and node.name == "cached":
            continue
        if isinstance(node, ast.Subscript) and _is_cache(node.value):
            out.append(node.lineno)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "get" and _is_cache(node.func.value)):
            out.append(node.lineno)
        stack.extend(ast.iter_child_nodes(node))
    return sorted(out)


def test_the_detector_finds_reads_and_writes_outside_cached():
    src = (
        "def cached(key=None):\n"
        "    def memo(obj, *args):\n"
        "        got = obj._cache.get(args)\n"
        "        if got is None:\n"
        "            got = obj._cache[args] = 1\n"
        "        return got\n"
        "    return memo\n"
        "def f(self):\n"
        "    got = self._cache.get('k')\n"
        "    if got is None:\n"
        "        got = self._cache['k'] = 2\n"
        "    self._cache = {}\n"
        "    return got, self.cache.get('k'), self._cache.items()\n"
    )
    assert _cache_accesses(ast.parse(src)) == [9, 11]


def test_only_cached_reads_or_writes_a_cache():
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        lines = _cache_accesses(ast.parse(path.read_text(), filename=str(path)))
        if lines:
            found[path.relative_to(SRC).as_posix()] = lines
    assert found == {}, found


def test_cached_keys_by_name_and_arguments_and_stores_nothing_on_raise():
    from hopfkit.hopf_core import cached

    class Subject:
        def __init__(self):
            self._cache = {}
            self.calls = 0

        @cached()
        def square(self, x):
            self.calls += 1
            if x < 0:
                raise ValueError(x)
            return x * x

        @cached(key=lambda s: (len(s),))
        def by_length(self, s):
            return s

    obj = Subject()
    assert obj.square(3) == obj.square(3) == 9 and obj.calls == 1
    for _ in range(2):
        with pytest.raises(ValueError):
            obj.square(-1)
    assert obj.calls == 3
    assert obj.by_length("ab") == obj.by_length("cd") == "ab"
    assert set(obj._cache) == {("square", 3), ("by_length", 2)}
    assert Subject.square.__name__ == "square" and Subject.square.__module__ == __name__
