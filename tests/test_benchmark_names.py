"""Every per-layer metric the benchmark declares names a function that a
traced run can span: ``<module>.<function|Class.method>.<stat>`` must resolve
to a public attribute defined in ``hopfkit.<module>``, or a traced run exits 1.
The other names ``hopfbench`` imports from ``hopfkit`` must resolve too, so
that removing one fails here and not only in the benchmark."""

import importlib
import json
from pathlib import Path

import pytest

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def _spanned_names():
    names = [m["name"] for m in json.loads(BENCHMARK.read_text())["per_layer"]]
    out = []
    for name in names:
        parts = name.split(".")
        # <layer>.self_s, kernel.scan_defect_ratio, trace.* and the kernel
        # microbenchmark's kernel.pure.* are aggregates, not spans
        if len(parts) == 2 or parts[:2] == ["kernel", "pure"]:
            continue
        out.append(name)
    return out


@pytest.mark.parametrize("name", _spanned_names())
def test_benchmark_metric_resolves(name):
    layer, *path, _stat = name.split(".")
    mod = importlib.import_module("hopfkit." + ("_kernel" if layer == "kernel" else layer))
    owner = mod
    for attr in path:
        assert not attr.startswith("_") or attr.startswith("__"), name
        owner = getattr(owner, attr)
    assert callable(owner), name
    if layer != "kernel":
        # the tracer spans only what the module defines, not what it imports
        defined_in = getattr(getattr(mod, path[0]), "__module__", None)
        assert defined_in == mod.__name__, name


# imported by hopfbench/run.py, tracing.py and workloads.py
IMPORTED = [
    ("hopfkit", "KERNEL_NAME"),
    ("hopfkit._kernel", "IMPLEMENTATIONS"),
    ("hopfkit._kernel", "make_ctx"),
    ("hopfkit.cli", "_jobs"),
    ("hopfkit.cli", "main"),
    ("hopfkit.cli", "resolve_hopf"),
    ("hopfkit.bundles", "serialize_hopf"),
    ("hopfkit.exact_math", "format_scalar"),
    ("hopfkit.exact_math", "parse_scalar"),
]


@pytest.mark.parametrize("module,name", IMPORTED)
def test_benchmark_import_resolves(module, name):
    assert hasattr(importlib.import_module(module), name)


def test_kernel_implementations_are_the_one_kernel():
    import hopfkit
    from hopfkit import _kernel

    impls = _kernel.IMPLEMENTATIONS
    assert list(impls) == ["pure"] == [hopfkit.KERNEL_NAME]
    # the microbenchmark times the functions a run calls
    for op in ("s_mul", "s_add"):
        assert callable(getattr(impls["pure"], op))
        assert getattr(impls["pure"], op) is getattr(_kernel, op)
