#!/usr/bin/env python3
"""Benchmark the pure-Python scalar kernel against the compiled one.

The full axiom scans are the kernel's heaviest loops: the associativity scan
is n^3 sparse tensor contractions and the bialgebra scan is n^2 coproduct
products, all in exact cyclotomic arithmetic (verify_hopf runs them in full
only as a fallback).  This script times the scalar primitives and the two
full scans on the small quantum group, for each available kernel
implementation.

Usage: python benchmarks/bench_kernel.py [--l 3] [--full]
  --full additionally runs the dimension-125 scans (l = 5), which take a few
  minutes on the pure kernel.
"""

import argparse
import random
import time
from fractions import Fraction

from hopfkit._kernel import IMPLEMENTATIONS, make_ctx, s_from_fractions


def bench_scalars(impl, N, reps=200000):
    ctx = make_ctx(N)
    rng = random.Random(7)
    phi = ctx[1]
    xs = [
        s_from_fractions(ctx, [Fraction(rng.randint(-20, 20), rng.randint(1, 7)) for _ in range(phi)])
        for _ in range(64)
    ]
    t0 = time.perf_counter()
    acc = xs[0]
    for i in range(reps):
        acc = impl.s_mul(ctx, xs[i % 64], xs[(i * 7 + 3) % 64])
    t_mul = time.perf_counter() - t0
    t0 = time.perf_counter()
    for i in range(reps):
        acc = impl.s_add(ctx, xs[i % 64], xs[(i * 11 + 5) % 64])
    t_add = time.perf_counter() - t0
    return t_mul, t_add


def bench_scans(impl, H):
    ctx = H.ctx
    n = H.dim
    t0 = time.perf_counter()
    assert impl.assoc_first_defect(n, H.mult, ctx) is None
    t_assoc = time.perf_counter() - t0
    t0 = time.perf_counter()
    assert impl.bialg_first_defect(n, H.mult, H.comult, ctx) is None
    t_bialg = time.perf_counter() - t0
    return t_assoc, t_bialg


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--l", type=int, default=3)
    ap.add_argument("--full", action="store_true", help="also run the l=5 scans")
    args = ap.parse_args()

    from hopfkit.builders import small_quantum_sl2

    algebras = [small_quantum_sl2(args.l).hopf]
    if args.full:
        algebras.append(small_quantum_sl2(5).hopf)

    print("%-10s %-22s %12s" % ("kernel", "workload", "seconds"))
    print("-" * 48)
    for name, impl in IMPLEMENTATIONS.items():
        for N in (5,):
            t_mul, t_add = bench_scalars(impl, N)
            print("%-10s %-22s %12.3f" % (name, "200k s_mul (N=%d)" % N, t_mul))
            print("%-10s %-22s %12.3f" % (name, "200k s_add (N=%d)" % N, t_add))
        for H in algebras:
            t_assoc, t_bialg = bench_scans(impl, H)
            print("%-10s %-22s %12.3f" % (name, "assoc scan %s" % H.name, t_assoc))
            print("%-10s %-22s %12.3f" % (name, "bialg scan %s" % H.name, t_bialg))
    if "compiled" not in IMPLEMENTATIONS:
        print("\n(compiled kernel not built; run pip install -e . with Cython available)")


if __name__ == "__main__":
    main()
