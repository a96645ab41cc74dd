"""Self-test of the benchmark at a tiny size.

Run from the repository root:  python3 -m pytest hopfbench/tests -q
"""

import os
import random
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def h8_bundle(tmp_path):
    from hopfkit.bundles import serialize_hopf
    from hopfkit.cli import resolve_hopf

    text = serialize_hopf(resolve_hopf("builtin:h8"))
    path = tmp_path / "h8.bundle"
    path.write_text(text)
    return str(path), text


def tiny_ops(bundle):
    return [
        workloads.Op(["verify", bundle], rc=0, checks=workloads.VERIFY_OK, nchecks=11),
        workloads.Op(["analyze", "builtin:h8", "--expect-frobenius", "true"], rc=0,
                     checks={"expected-frobenius": "PASS"}),
        workloads.Op(["frob-objects", "builtin:h8", "--object", "builtin:etale?n=x&ex=1&ey=1"],
                     rc=0, nchecks=6),
    ]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(name, tmp_path):
    a = workloads.build(name, 7, str(tmp_path))
    b = workloads.build(name, 7, str(tmp_path))
    assert [op.argv for op in a.ops + a.probes] == [op.argv for op in b.ops + b.probes]
    assert a.files == b.files
    c = workloads.build(name, 8, str(tmp_path))
    if name != "extension":  # the extension seed only orders the ops
        assert (c.files, [op.argv for op in c.ops]) != (a.files, [op.argv for op in a.ops])


def test_planted_report_byte_raises_fail_ratio(h8_bundle):
    op = tiny_ops(h8_bundle[0])[0]
    o, report = run.run_op(op)
    expected = {tuple(op.argv): {"rc": o.rc, "sha256": o.digest}}
    assert run.fail_ratio([run.judge(o, report, expected)]) == 0
    # change one byte of the captured report: a hex digit of the input sha256
    i = report.index("sha256=") + len("sha256=")
    planted = report[:i] + ("0" if report[i] != "0" else "1") + report[i + 1:]
    bad, _ = run.run_op(op)
    bad.digest = run.hashlib.sha256(planted.encode()).hexdigest()
    assert run.fail_ratio([run.judge(bad, planted, expected)]) == 1.0


def test_planted_table_defect_exits_1(h8_bundle, tmp_path):
    _, text = h8_bundle
    for section in ("MULT", "COMULT", "ANTIPODE"):
        bad, line = workloads.perturb(text, section, random.Random(section))
        path = tmp_path / ("bad-%s.bundle" % section)
        path.write_text(bad)
        op = workloads.Op(["verify", str(path)], rc=1, nchecks=11,
                          fail_family=workloads.SECTION_FAMILIES[section])
        o, report = run.run_op(op)
        assert o.rc == 1, (section, line)
        assert not run.judge(o, report, {}).errors, (section, line, report)


def test_known_wrong_probe_is_counted_not_fatal():
    wl = workloads.build("extension", 1, "unused")
    probe = wl.probes[0]
    o = run.judge(*run.run_op(probe), {})
    assert o.errors and run.known_wrong_ok(o, {})
    assert run.fail_ratio([o]) == 1.0


def test_layer_self_times_sum_to_traced_wall(h8_bundle):
    wl = workloads.Workload("tiny", 1, tiny_ops(h8_bundle[0]))
    passes, metrics, notes, tracer = run.per_layer(wl, {}, 1)
    assert all(not o.errors for p in passes for o in p)
    layer_self = sum(metrics.get("%s.self_s" % tracing.layer_name(m), 0.0) for m in tracing.MODULES)
    traced = notes["traced_raw_wall_s"]
    gap = traced - layer_self
    # the spans nest inside the timed calls, so the gap is what the clock reads
    # outside the root spans: at most the tracing overhead
    assert gap >= 0
    overhead = traced * max(0.0, 1 - 1 / metrics["trace.overhead_ratio"])
    assert gap <= overhead + 1e-3 * len(wl.ops)
    assert metrics["cli.main.calls"] == len(wl.ops)
    assert metrics["kernel.assoc_first_defect.triples"] == 8 ** 3
    assert metrics["bundles.parse_hopf.bytes"] == len(h8_bundle[1].encode())
    assert metrics["kernel.s_mul.calls"] > 0
    assert {r["op"] for r in tracer.span_records()} == {0, 1, 2}


def test_lax_pair_keys_are_module_values():
    from hopfkit.cli import resolve_inclusion, resolve_module
    from hopfkit.induction import induction_context

    incl = resolve_inclusion("builtin:h8")
    ictx = induction_context(incl)
    v = resolve_module("builtin:kchar?act=1,-1,-1,1", incl.K)
    u = resolve_module("builtin:kchar?act=1,1,-1,-1", incl.K)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        from hopfkit import induction, module_theory

        # equal tensor products, built separately as verify_frobenius_monoidal does
        induction.lax_pair(ictx, module_theory.tensor_modules(v, u), v)
        induction.lax_pair(ictx, module_theory.tensor_modules(v, u), v)
        induction.lax_pair(ictx, module_theory.tensor_modules(v, u), u)
    finally:
        tracer.uninstall()
    metrics = tracer.summary()
    assert metrics["induction.lax_pair.calls"] == 3
    assert metrics["induction.lax_pair.distinct_ratio"] == 2 / 3
    assert metrics["induction.oplax_pair.calls"] == 0


def test_missing_layer_metric_fails_the_run(monkeypatch, capsys):
    monkeypatch.setattr(run, "PER_LAYER", run.PER_LAYER + [("hopf_core.no_such_fn.self_s", "s")])
    op = workloads.Op(["analyze", "builtin:h8", "--expect-frobenius", "true"], rc=0,
                      checks={"expected-frobenius": "PASS"})
    monkeypatch.setattr(workloads, "BUILDERS", dict(workloads.BUILDERS, axioms=lambda seed, workdir:
                                                    workloads.Workload("axioms", seed, [op])))
    assert run.main(["--workload", "axioms", "--seed", "1", "--seconds", "1", "--trace", "1"]) == 1
    assert "hopf_core.no_such_fn.self_s" in capsys.readouterr().err


def test_refuses_untraced_numbers_with_several_jobs(monkeypatch, capsys):
    monkeypatch.setenv("HOPFKIT_JOBS", "2")
    assert run.main(["--workload", "extension", "--seed", "1", "--seconds", "1"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "HOPFKIT_JOBS" in out.err


def test_setup_is_timed_in_a_fresh_process():
    args = run.parse_args(["--workload", "extension", "--seed", "1", "--seconds", "1"])
    assert 0 < run.timed_setup(args) < 60


def test_tail_rank():
    assert run.tail(list(range(11))) == (0, 100.0 / 11)
    assert run.tail(list(range(100))) == (89, 90.0)
    with pytest.raises(ValueError):
        run.tail(list(range(10)))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "hopfbench", ignore=shutil.ignore_patterns("_work", "_results"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "hopfbench/run.py", "--workload", "axioms", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_matches_runner():
    import json

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    assert all(name.match(m["name"]) for m in spec["end_to_end"] + spec["per_layer"])
