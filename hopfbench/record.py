#!/usr/bin/env python3
"""Record the expected exit code and report digest of every op for some seeds.

Run from the repository root:

    python3 hopfbench/record.py --seeds 1-10

Each op (timed ops and known-wrong probes) runs once.  An op is recorded only
if its report agrees with the verdict theory predicts, or, for a known-wrong
probe, if it fails in the documented way; anything else stops the recording.
The results go to ``hopfbench/expected/<workload>.json``, which ``run.py``
uses to compare reports byte for byte on those seeds.
"""

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402


def seed_range(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def record(name, seed):
    wl, _, _ = run.set_up(name, seed)
    rows = []
    for op in wl.ops + wl.probes:
        o = run.judge(*run.run_op(op), {})
        if o.errors and not (op.known_wrong is not None and o.rc == op.known_wrong):
            raise SystemExit("%s seed %d: %s: %s" % (name, seed, op.key(), "; ".join(o.errors)))
        rows.append({"argv": op.argv, "rc": o.rc, "sha256": o.digest})
    return rows


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    ap.add_argument("--workload", action="append", choices=workloads.WORKLOADS)
    args = ap.parse_args()
    os.chdir(run.ROOT)
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    for name in args.workload or workloads.WORKLOADS:
        table = {str(seed): record(name, seed) for seed in args.seeds}
        path = os.path.join(HERE, "expected", "%s.json" % name)
        with open(path, "w") as fh:
            json.dump(table, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print("%s: %d seeds -> %s" % (name, len(table), os.path.relpath(path)))


if __name__ == "__main__":
    main()
