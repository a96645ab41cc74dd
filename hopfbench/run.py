#!/usr/bin/env python3
"""The hopfkit benchmark.

Run from the repository root:

    python3 hopfbench/run.py --workload axioms --seed 1 --seconds 20 --trace 0

Every op is one ``hopfkit.cli.main(argv)`` call made in this process, with
stdout captured, on a single thread, with the default kernel selection.  An
untraced run (``--trace 0``) repeats passes over the workload's op list for
about ``--seconds`` seconds, times set-ups in fresh interpreters between the
passes, and prints the end-to-end metrics, every time scaled to the speed of
a reference loop (see "machine speed" below).  A traced run
(``--trace 1``) makes one untraced pass, one pass with a span around every
public ``hopfkit`` function, and one pass counting scalar kernel calls, then
prints the per-layer metrics.  Every report is checked against the verdict
theory predicts and, for the seeds stored under ``expected/``, against the
exit code and report digest recorded for that seed.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A result file with the run
environment, the per-op outcomes and (traced) the gzipped spans is written under
``hopfbench/_results/``.
"""

import argparse
import contextlib
import gc
import gzip
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from math import gcd

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 4
# the tail is the highest percentile with at least this many samples beyond it
TAIL_BEYOND = 10
# Seconds per pass measured on the reference machine (2-vCPU x86-64 VM,
# CPython 3.11, pure kernel); they fix the number of passes a run makes.
NOMINAL_PASS_S = {"axioms": 2.0, "axioms-defect": 4.0, "extension": 2.5, "functor": 4.0}
# Set-ups timed per untraced run, spread over its passes.  A set-up takes
# about 0.2 s and its repeats spread more than an op's do.
SETUP_SAMPLES = 12

# End-to-end metrics gated by BENCHMARK.json.
END_TO_END = {"wall_s": "s", "checks_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
# Printed and recorded beside them, not gated.  The latency percentiles are rank
# statistics over a handful of very different ops, so the op at a given rank
# changes between seeds; fail_ratio is 0 on three of the four workloads.
REPORTED = {"op_p50_s": "s", "op_tail_s": "s", "fail_ratio": "ratio"}

PER_LAYER = [
    ("kernel.assoc_first_defect.calls", "count"), ("kernel.assoc_first_defect.self_s", "s"),
    ("kernel.assoc_first_defect.triples", "count"),
    ("kernel.bialg_first_defect.calls", "count"), ("kernel.bialg_first_defect.self_s", "s"),
    ("kernel.bialg_first_defect.pairs", "count"),
    ("kernel.coassoc_first_defect.calls", "count"), ("kernel.coassoc_first_defect.self_s", "s"),
    ("kernel.scan_defect_ratio", "ratio"),
    ("kernel.s_mul.calls", "count"), ("kernel.s_add.calls", "count"),
    ("kernel.s_is_zero.calls", "count"),
    ("bundles.parse_hopf.self_s", "s"), ("bundles.parse_hopf.bytes", "B"),
    ("hopf_core.verify_hopf.self_s", "s"), ("hopf_core.integral_space.self_s", "s"),
    ("hopf_core.distinguished_grouplike.self_s", "s"),
    ("hopf_core.right_integral_of_dual.self_s", "s"),
]
for _fn in ("RowSpace.add", "rref_raw", "nullspace_raw", "Matrix.solve", "Matrix.inverse",
            "mat_mul_raw", "Matrix.__add__", "Matrix.scale"):
    PER_LAYER += [("exact_math.%s.calls" % _fn, "count"), ("exact_math.%s.self_s" % _fn, "s")]
for _fn in ("verify_inclusion", "bar_quotient", "right_integral_bar_dual", "is_frobenius_extension",
            "make_frobenius_data", "free_basis", "dual_bases", "is_central_extension",
            "is_normal_subalgebra"):
    PER_LAYER.append(("extension.%s.self_s" % _fn, "s"))
for _fn in ("small_quantum_sl2", "taft", "drinfeld_double"):
    PER_LAYER.append(("builders.%s.self_s" % _fn, "s"))
for _fn in ("tensor_modules", "verify_module", "hom_space", "is_isomorphic"):
    PER_LAYER += [("module_theory.%s.calls" % _fn, "count"), ("module_theory.%s.self_s" % _fn, "s")]
for _fn in ("lax_pair", "oplax_pair"):
    PER_LAYER += [("induction.%s.calls" % _fn, "count"), ("induction.%s.self_s" % _fn, "s"),
                  ("induction.%s.distinct_ratio" % _fn, "ratio")]
for _fn in ("induce", "verify_frobenius_monoidal", "is_separable_functor"):
    PER_LAYER.append(("induction.%s.self_s" % _fn, "s"))
for _fn in ("z_induce", "verify_yd", "yd_braiding", "verify_braided_frobenius"):
    PER_LAYER += [("yetter_drinfeld.%s.calls" % _fn, "count"), ("yetter_drinfeld.%s.self_s" % _fn, "s")]
for _fn in ("push_frobenius", "verify_frobenius_object", "is_rigid_frobenius"):
    PER_LAYER.append(("frob_objects.%s.self_s" % _fn, "s"))
PER_LAYER.append(("cli.main.self_s", "s"))
for _module in tracing.MODULES:
    PER_LAYER.append(("%s.self_s" % tracing.layer_name(_module), "s"))
PER_LAYER.append(("trace.overhead_ratio", "ratio"))
# Kernel microbenchmark: ns per call over the workload's own operands, averaged
# over the conductors it used, weighted by its calls at each.  The rows per
# conductor (kernel.<impl>.<op>_ns.N<c>) differ between workloads, so they are
# printed and kept in the result file only.
PER_LAYER += [("kernel.pure.s_mul_ns", "ns"), ("kernel.pure.s_add_ns", "ns")]


# ---------------------------------------------------------------------------
# machine speed
# ---------------------------------------------------------------------------

# The machines the benchmark runs on may be shared.  On the reference machine
# (2-vCPU x86-64 VM, CPython 3.11) the same pure-Python work ran up to 1.8x
# slower in phases of one second to several minutes, with CPU time equal to
# wall time, so the slowdown cannot be told apart from work by the clock alone.
# Every timed interval is therefore bracketed by a fixed reference loop and
# reported at the loop's nominal speed: seconds * REFERENCE_S / (loop time).
# The loop runs no hopfkit code, so a change to hopfkit moves the reported
# time in full.
REFERENCE_S = 0.0022


def reference_loop():
    """Integer products, gcd and floor division, like the scalar kernel, on
    ints only: it allocates no container, so the collector never runs in it."""
    a, b, c = 1, 0, 1
    for i in range(1, 4000):
        n = a * (i + 3) + b * 7
        d = c * (i + 1)
        g = gcd(n, d)
        a, b, c = n // g % 1000003 + 1, (b + i) % 97, d // g % 1000033 + 1


def reference_s():
    """The fastest of three runs of the reference loop, with the collector off."""
    gc.disable()
    try:
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            reference_loop()
            best = min(best, time.perf_counter() - t0)
    finally:
        gc.enable()
    return best


def at_reference_speed(seconds, loop_before, loop_after):
    return seconds * REFERENCE_S * 2 / (loop_before + loop_after)


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def set_up(name, seed):
    """Imports, kernel selection, building and writing the inputs, loading the
    expected results.  Returns (workload, expected-by-argv, kernel name)."""
    import hopfkit

    tracing.hopfkit_modules()
    kernel = hopfkit.KERNEL_NAME
    workdir = os.path.join("hopfbench", "_work", "%s-%d" % (name, seed))
    wl = workloads.build(name, seed, workdir)
    os.makedirs(workdir, exist_ok=True)
    for path, text in wl.files.items():
        with open(path, "w") as fh:
            fh.write(text)
    return wl, load_expected(name, seed), kernel


def load_expected(name, seed):
    path = os.path.join(HERE, "expected", "%s.json" % name)
    if not os.path.exists(path):
        return {}
    with open(path) as fh:
        return {tuple(r["argv"]): r for r in json.load(fh).get(str(seed), [])}


def timed_setup(args):
    """Seconds from starting a fresh interpreter on this script with
    ``--setup-only`` to the end of its set-up, which the child reports as a
    CLOCK_MONOTONIC reading (shared by all processes)."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    loop_before = reference_s()
    t0 = time.monotonic()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError("set-up process failed:\n" + proc.stderr)
    return at_reference_speed(float(proc.stdout.split()[-1]) - t0, loop_before, reference_s())


# ---------------------------------------------------------------------------
# ops
# ---------------------------------------------------------------------------


class Outcome:
    """``seconds`` is the op's time at reference speed, ``raw_seconds`` the clock's."""

    __slots__ = ("op", "rc", "seconds", "raw_seconds", "digest", "nchecks", "errors")

    def to_dict(self):
        return {"argv": self.op.argv, "rc": self.rc, "seconds": self.seconds,
                "raw_seconds": self.raw_seconds, "sha256": self.digest,
                "checks": self.nchecks, "errors": self.errors,
                "known_wrong": self.op.known_wrong is not None}


def run_op(op):
    """One cli.main call, timed; the report is judged after the clock stops."""
    from hopfkit import cli

    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    raised = None
    loop_before = reference_s()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = cli.main(op.argv)
        except SystemExit as exc:  # argparse rejects argv the way the console script would
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # an escaping exception is a failed op, not a crashed run
            rc, raised = None, exc
        seconds = time.perf_counter() - t0
    o = Outcome()
    o.op, o.rc, o.raw_seconds = op, rc, seconds
    o.seconds = at_reference_speed(seconds, loop_before, reference_s())
    report = out.getvalue()
    o.digest = hashlib.sha256(report.encode()).hexdigest()
    o.nchecks = len(workloads.parse_checks(report))
    o.errors = [] if raised is None else ["raised %r" % (raised,)]
    return o, report


def judge(o, report, expected):
    """Fill o.errors: the verdict check, then the recorded digest if there is
    one.  A known-wrong probe that now gets the verdict right is not held to
    the report recorded while it was wrong."""
    if o.rc is not None:
        o.errors += workloads.verdict_errors(o.op, o.rc, report)
    fixed = o.op.known_wrong is not None and not o.errors
    rec = expected.get(tuple(o.op.argv))
    if rec is not None and not fixed and (rec["rc"] != o.rc or rec["sha256"] != o.digest):
        o.errors.append("report differs from the one recorded for this seed")
    return o


def known_wrong_ok(o, expected):
    """A known-wrong probe is acceptable if it is now right, or still wrong in the
    recorded way (same exit code; same digest where one is recorded)."""
    if not o.errors:
        return True
    rec = expected.get(tuple(o.op.argv))
    if rec is not None:
        return rec["rc"] == o.rc and rec["sha256"] == o.digest
    return o.rc == o.op.known_wrong


def run_pass(ops, expected):
    return [judge(*run_op(op), expected) for op in ops]


def pass_count(workload, seconds):
    """Passes that fill about ``seconds`` on the reference machine.  The count
    depends only on the workload and ``seconds``, so every run pools the same
    number of latency samples and the percentiles keep their ranks."""
    return max(MIN_PASSES, round(seconds / NOMINAL_PASS_S[workload]))


def timed_passes(wl, expected, args):
    """Run the passes, with SETUP_SAMPLES timed set-ups in fresh processes
    shared out before them, so that the set-up samples are spread over the run
    like the passes are."""
    setup_times, passes = [], []
    count = pass_count(wl.name, args.seconds)
    for k in range(count):
        for _ in range(SETUP_SAMPLES * (k + 1) // count - SETUP_SAMPLES * k // count):
            setup_times.append(timed_setup(args))
        gc.collect()
        passes.append(run_pass(wl.ops, expected))
    return passes, setup_times


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def fail_ratio(outcomes):
    """Ops that raised, exited wrongly or reported other than expected, per op attempted."""
    return sum(1 for o in outcomes if o.errors) / len(outcomes)


def tail(latencies):
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples beyond it."""
    xs = sorted(latencies)
    rank = len(xs) - TAIL_BEYOND - 1
    if rank < 0:
        raise ValueError("%d samples are too few for a tail" % len(xs))
    return xs[rank], 100.0 * (rank + 1) / len(xs)


def end_to_end(passes, setup_times):
    """wall_s sums each op's median time over the passes; checks_per_s is the
    checks of one pass per wall_s; the latency percentiles pool every sample.
    All are at reference speed."""
    wall = sum(statistics.median(times) for times in zip(*[[o.seconds for o in p] for p in passes]))
    lat = [o.seconds for p in passes for o in p]
    tail_s, tail_pct = tail(lat)
    metrics = {
        "wall_s": wall,
        "checks_per_s": sum(o.nchecks for o in passes[0]) / wall,
        "op_p50_s": statistics.median(lat),
        "op_tail_s": tail_s,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {"passes": len(passes), "samples": len(lat), "tail_percentile": tail_pct,
             # how much slower than nominal the reference loop ran around the ops
             "slowdown": statistics.median(o.raw_seconds / o.seconds for p in passes for o in p)}
    return metrics, notes


def per_layer(wl, expected, seed):
    """One untraced, one spanned and one counted pass, and the microbenchmark."""
    untraced = run_pass(wl.ops, expected)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = run_pass_traced(wl.ops, expected, tracer)
    finally:
        tracer.uninstall()
    counter = tracing.OpCounter(seed)
    counter.install()
    try:
        counted = run_pass(wl.ops, expected)
    finally:
        counter.uninstall()
    metrics = tracer.summary()
    for name, n in counter.calls.items():
        metrics["kernel.%s.calls" % name] = n
    metrics.update(tracing.microbench(counter.operands, counter.calls_at))
    untraced_wall = sum(o.seconds for o in untraced)
    traced_wall = sum(o.seconds for o in traced)
    metrics["trace.overhead_ratio"] = traced_wall / untraced_wall
    notes = {"untraced_wall_s": untraced_wall, "traced_wall_s": traced_wall,
             "traced_raw_wall_s": sum(o.raw_seconds for o in traced),
             "counted_wall_s": sum(o.seconds for o in counted),
             "conductors": sorted({c for _, c in counter.operands})}
    return [untraced, traced, counted], metrics, notes, tracer


def run_pass_traced(ops, expected, tracer):
    outcomes = []
    for i, op in enumerate(ops):
        tracer.start_op(i)
        outcomes.append(judge(*run_op(op), expected))
    tracer.start_op(None)
    return outcomes


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def environment(seed, kernel):
    return {
        "kernel": kernel,
        "HOPFKIT_PURE": os.environ.get("HOPFKIT_PURE"),
        "HOPFKIT_JOBS": os.environ.get("HOPFKIT_JOBS"),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print the CLOCK_MONOTONIC time and exit (used to time set-up)")
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    os.chdir(ROOT)
    if not os.path.isdir(os.path.join("src", "hopfkit")):
        sys.stderr.write("hopfbench: no src/hopfkit under %s; run from a hopfkit checkout\n" % ROOT)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))

    wl, expected, kernel = set_up(args.workload, args.seed)
    if args.setup_only:
        print(repr(time.monotonic()))
        return 0
    from hopfkit.cli import _jobs

    if not args.trace and _jobs() > 1:
        sys.stderr.write("hopfbench: HOPFKIT_JOBS > 1; end-to-end numbers are single-threaded only\n")
        return 2
    gc.collect()

    if args.trace:
        passes, metrics, notes, tracer = per_layer(wl, expected, args.seed)
        names = PER_LAYER
    else:
        passes, setup_times = timed_passes(wl, expected, args)
        metrics, notes = end_to_end(passes, setup_times)
        notes["setup_s_each"] = setup_times
        names = list(END_TO_END.items())
        tracer = None
    missing = [name for name, _ in names if name not in metrics]
    if missing:
        # a renamed or removed function: BENCHMARK.json must follow it
        sys.stderr.write("hopfbench: no measurement for %s\n" % ", ".join(missing))
        return 1
    probes = [judge(*run_op(op), expected) for op in wl.probes]

    timed = [o for p in passes for o in p]
    failed = sum(1 for o in timed if o.errors)
    correct = failed == 0 and all(known_wrong_ok(o, expected) for o in probes)
    metrics["fail_ratio"] = fail_ratio(timed + probes)

    out = {name: {"value": metrics[name], "unit": unit} for name, unit in names}
    write_result(args, wl, kernel, out, metrics, notes, passes, probes, tracer)
    for name, m in out.items():
        print("%-48s %14.6g %s" % (name, m["value"], m["unit"]))
    for name, unit in REPORTED.items():
        if name in metrics:
            print("%-48s %14.6g %s (not gated)" % (name, metrics[name], unit))
    for name in sorted(metrics):
        if ".N" in name and name.startswith("kernel."):
            print("%-48s %14.6g ns (per conductor)" % (name, metrics[name]))
    for key in ("passes", "samples", "tail_percentile", "slowdown"):
        if key in notes:
            print("%-48s %14.6g" % (key, notes[key]))
    for o in timed + probes:
        if o.errors:
            print("%s %s: %s" % ("known-wrong" if o.op.known_wrong is not None else "FAILED",
                                 o.op.key(), "; ".join(o.errors)))
    print(json.dumps({"correct": correct, "attempted": len(timed), "failed": failed, "metrics": out}))
    return 0


def write_result(args, wl, kernel, out, metrics, notes, passes, probes, tracer):
    outdir = os.path.join("hopfbench", "_results")
    os.makedirs(outdir, exist_ok=True)
    stem = os.path.join(outdir, "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace))
    result = {
        "workload": args.workload,
        "environment": environment(args.seed, kernel),
        "metrics": out,
        "all_metrics": metrics,
        "notes": notes,
        "passes": [[o.to_dict() for o in p] for p in passes],
        "probes": [o.to_dict() for o in probes],
    }
    with open(stem + ".json", "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    if tracer is not None:
        with gzip.open(stem + ".spans.jsonl.gz", "wt", compresslevel=1) as fh:
            for rec in tracer.span_records():
                fh.write(json.dumps(rec, separators=(",", ":")) + "\n")


if __name__ == "__main__":
    sys.exit(main())
