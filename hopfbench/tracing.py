"""Layer tracing for the hopfkit benchmark, applied from outside the package.

``Tracer.install()`` wraps the public functions of every ``hopfkit`` module
(and the public methods of the classes they define) so that each call
records a span: name, start, end, parent span and op id.  A wrapped name is
patched in every ``hopfkit`` module namespace that binds the same object,
because modules hold local ``from .x import f`` bindings; methods are
patched on their class.  Scalar-level code (the ``_kernel`` ring operations
and ``Cyclotomic``) is not spanned: ``OpCounter`` counts the calls that go
through ``hopfkit._kernel`` in a separate pass and samples their operands for
the kernel microbenchmark.
"""

import importlib
import inspect
import random
import statistics
import sys
import time

MODULES = ("_kernel", "bundles", "builders", "cli", "exact_math", "extension", "frob_objects",
           "hopf_core", "induction", "module_theory", "reports", "yetter_drinfeld")
# Of the kernel only the axiom scans get spans; its scalar functions are counted.
KERNEL_SPANNED = ("assoc_first_defect", "bialg_first_defect", "coassoc_first_defect")
COUNTED = ("s_mul", "s_add", "s_is_zero")
SKIP_CLASSES = {"Cyclotomic"}
DUNDERS = {"__add__", "__sub__", "__mul__", "__rmul__", "__neg__", "__call__"}


def hopfkit_modules():
    return {name: importlib.import_module("hopfkit." + name) for name in MODULES}


def layer_name(module):
    """Metric names start with a letter, so ``_kernel`` is the ``kernel`` layer."""
    return module.lstrip("_")


def _targets(layer, mod):
    """(owner, attribute, span name) for every callable of a layer that gets a span."""
    if layer == "kernel":
        return [(mod, name, "kernel." + name) for name in KERNEL_SPANNED]
    out = []
    for name, obj in sorted(vars(mod).items()):
        if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
            continue
        if inspect.isfunction(obj):
            out.append((mod, name, "%s.%s" % (layer, name)))
        elif inspect.isclass(obj) and name not in SKIP_CLASSES:
            for attr, val in sorted(vars(obj).items()):
                if attr.startswith("_") and attr not in DUNDERS:
                    continue
                if inspect.isfunction(val) or isinstance(val, (staticmethod, classmethod)):
                    out.append((obj, attr, "%s.%s.%s" % (layer, name, attr)))
    return out


class _Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._undo = []

    def set(self, owner, name, value):
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def patch_everywhere(self, modules, original, wrapper):
        for mod in modules:
            for name, val in list(vars(mod).items()):
                if val is original:
                    self.set(mod, name, wrapper)

    def undo(self):
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)


class Tracer:
    """Span recorder.  Spans are kept in memory as tuples
    ``(name, start, end, parent_index, op_id)`` until the run writes them out."""

    def __init__(self):
        self.spans = []
        self.op_id = None
        self._stack = []
        self._patches = _Patches()
        # argument-derived work counts, keyed by metric name
        self.counts = {}
        self.scans = self.scan_defects = 0
        self._lax_keys = {"lax_pair": set(), "oplax_pair": set()}
        self._keepalive = []
        self._names = []

    def install(self):
        modules = hopfkit_modules()
        namespaces = [sys.modules["hopfkit"]] + list(modules.values())
        notes = self._notes()
        for name, mod in modules.items():
            for owner, attr, span in _targets(layer_name(name), mod):
                self._names.append(span)
                raw = owner.__dict__[attr]
                note = notes.get(span)
                if isinstance(raw, (staticmethod, classmethod)):
                    self._patches.set(owner, attr, type(raw)(self._wrap(span, raw.__func__, note)))
                elif inspect.isclass(owner):
                    self._patches.set(owner, attr, self._wrap(span, raw, note))
                else:
                    self._patches.patch_everywhere(namespaces, raw, self._wrap(span, raw, note))

    def uninstall(self):
        self._patches.undo()

    def start_op(self, op_id):
        self.op_id = op_id
        self._keepalive.clear()

    def _wrap(self, span, fn, note):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (span, start, end, parent, self.op_id)
            if note is not None:
                note(args, result)
            return result

        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    def _add(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value

    def _notes(self):
        """Per-span hooks that derive work counts from arguments and results."""
        for key in ("kernel.assoc_first_defect.triples", "kernel.bialg_first_defect.pairs",
                    "bundles.parse_hopf.bytes"):
            self.counts[key] = 0

        def scan(args, result):
            self.scans += 1
            self.scan_defects += result is not None

        def assoc(args, result):
            scan(args, result)
            self._add("kernel.assoc_first_defect.triples", args[0] ** 3)

        def bialg(args, result):
            scan(args, result)
            self._add("kernel.bialg_first_defect.pairs", args[0] ** 2)

        def parse(args, result):
            self._add("bundles.parse_hopf.bytes", len(args[0].encode()))

        def pair(name):
            def note(args, result):
                ictx, v, u = args[:3]
                # hold the context until the op ends so its id stays unique
                self._keepalive.append(ictx)
                self._lax_keys[name].add((self.op_id, id(ictx), module_key(v), module_key(u)))
            return note

        return {
            "kernel.assoc_first_defect": assoc,
            "kernel.bialg_first_defect": bialg,
            "kernel.coassoc_first_defect": scan,
            "bundles.parse_hopf": parse,
            "induction.lax_pair": pair("lax_pair"),
            "induction.oplax_pair": pair("oplax_pair"),
        }

    def summary(self):
        """Per-function calls and self time, per-layer self time, work counts.
        Every wrapped function and every layer has an entry, 0 if never called."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = dict.fromkeys(self._names, 0)
        self_s = dict.fromkeys(self._names, 0.0)
        layers = dict.fromkeys(map(layer_name, MODULES), 0.0)
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            own = end - start - child[i]
            calls[name] += 1
            self_s[name] += own
            layers[name.split(".", 1)[0]] += own
        metrics = {}
        for name in calls:
            metrics[name + ".calls"] = calls[name]
            metrics[name + ".self_s"] = self_s[name]
        for layer, total in layers.items():
            metrics[layer + ".self_s"] = total
        metrics.update(self.counts)
        metrics["kernel.scan_defect_ratio"] = self.scan_defects / self.scans if self.scans else 0.0
        for name, keys in self._lax_keys.items():
            n = calls.get("induction." + name, 0)
            metrics["induction.%s.distinct_ratio" % name] = len(keys) / n if n else 0.0
        return metrics

    def span_records(self):
        for name, start, end, parent, op in self.spans:
            yield {"name": name, "start": start, "end": end, "parent": parent, "op": op}


def module_key(module):
    """A hashable value of a module: equal modules built separately (as
    ``tensor_modules`` does on every call) get the same key."""
    return (module.H.name, module.N, module.dim,
            tuple(tuple(map(tuple, a.raw())) for a in module.action))


class OpCounter:
    """Counts scalar calls made through ``hopfkit._kernel`` and keeps a
    seeded reservoir of their operands, per conductor, for the microbenchmark."""

    RESERVOIR = 256

    def __init__(self, seed):
        self.calls = {name: 0 for name in COUNTED}
        # calls of s_mul and s_add per (name, conductor)
        self.calls_at = {}
        self.operands = {}
        self._rng = random.Random("operands/%d" % seed)
        self._patches = _Patches()

    def install(self):
        mods = [sys.modules["hopfkit"]] + list(hopfkit_modules().values())
        kernel = sys.modules["hopfkit._kernel"]
        for name in COUNTED:
            original = getattr(kernel, name)
            self._patches.patch_everywhere(mods, original, self._wrap(name, original))

    def uninstall(self):
        self._patches.undo()

    def _wrap(self, name, fn):
        calls = self.calls
        if name == "s_is_zero":
            def counted(a):
                calls["s_is_zero"] += 1
                return fn(a)
            return counted
        seen = self.calls_at
        pools = self.operands
        rng = self._rng
        size = self.RESERVOIR

        def counted(ctx, a, b):
            calls[name] += 1
            key = (name, ctx[0])
            n = seen.get(key, 0) + 1
            seen[key] = n
            pool = pools.setdefault(key, [])
            if len(pool) < size:
                pool.append((a, b))
            else:
                j = rng.randrange(n)
                if j < size:
                    pool[j] = (a, b)
            return fn(ctx, a, b)

        return counted


def microbench(operands, calls_at):
    """ns per call of s_mul and s_add for every kernel implementation and every
    conductor the workload used, timed on its sampled operand pairs: the median
    of five batches, each long enough to take at least 20 ms.  Also, per
    implementation and op, the mean over conductors weighted by ``calls_at``."""
    from hopfkit._kernel import IMPLEMENTATIONS, make_ctx

    out = {}
    for impl_name, impl in sorted(IMPLEMENTATIONS.items()):
        weighted = {}
        for (op, conductor), pairs in sorted(operands.items()):
            fn = getattr(impl, op)
            ctx = make_ctx(conductor)

            def batch(loops):
                t0 = time.perf_counter()
                for _ in range(loops):
                    for a, b in pairs:
                        fn(ctx, a, b)
                return time.perf_counter() - t0

            loops = 1
            while batch(loops) < 0.02:
                loops *= 2
            per_call = [batch(loops) / (loops * len(pairs)) * 1e9 for _ in range(5)]
            ns = statistics.median(per_call)
            out["kernel.%s.%s_ns.N%d" % (impl_name, op, conductor)] = ns
            n = calls_at[(op, conductor)]
            total, count = weighted.get(op, (0.0, 0))
            weighted[op] = (total + ns * n, count + n)
        for op, (total, count) in weighted.items():
            out["kernel.%s.%s_ns" % (impl_name, op)] = total / count
    return out
