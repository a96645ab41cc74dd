"""Seeded workloads for the hopfkit benchmark.

A workload turns a seed into a list of operations.  Each operation is one
``hopfkit.cli.main(argv)`` call together with the verdict that theory and the
acceptance criteria predict for it.  Bundle files are written under a work
directory at set-up, so the program sees only generated argv and files.

Verdicts are written down here from the mathematics, not read back from the
program: Frobenius/central answers follow the acceptance criteria (criteria 3,
6, 7, 8 and 9) and the Fischman-Montgomery-Schneider criterion (K c H is
Frobenius iff the modular functions agree on K); the etale-object answers
follow the machine-verified statements in ``tests/test_frob_objects.py``.
"""

import os
import random
import re

# verify_hopf check names, grouped by the bundle section a defect can break.
SECTION_FAMILIES = {
    "MULT": {"mult-associative", "mult-unital", "comult-multiplicative",
             "counit-multiplicative", "antipode-left", "antipode-right"},
    "COMULT": {"comult-coassociative", "comult-counital", "comult-multiplicative",
               "comult-of-unit", "antipode-left", "antipode-right"},
    "ANTIPODE": {"antipode-left", "antipode-right", "antipode-invertible"},
}

_STATUS = re.compile(r"^(.*?)\s{2,}(PASS|FAIL|SKIPPED|UNDETERMINED)(?:\s|$)")

KLEIN_CHARS = ("1,1,1,1", "1,-1,-1,1", "1,1,-1,-1", "1,-1,1,-1")
ETALE_OBJECTS = [(n, ex, ey) for n in ("x", "y", "xy") for ex in (1, -1) for ey in (1, -1)]


class Op:
    """One CLI call and its expected outcome.

    ``rc`` is the exit code theory predicts.  ``checks`` maps check names to
    the status they must carry and ``nchecks`` is the number of checks the
    report must hold.  ``fail_family`` (defect ops) is a set of check names of
    which at least one must fail.  A ``known_wrong`` op is a documented input
    on which the program currently disagrees with theory; ``known_wrong``
    holds the exit code it gives instead.
    """

    __slots__ = ("argv", "rc", "checks", "nchecks", "fail_family", "known_wrong")

    def __init__(self, argv, rc=0, checks=None, nchecks=None, fail_family=None, known_wrong=None):
        self.argv = list(argv)
        self.rc = rc
        self.checks = checks or {}
        self.nchecks = nchecks
        self.fail_family = fail_family
        self.known_wrong = known_wrong

    def key(self):
        return " ".join(self.argv)


class Workload:
    """Generated inputs of one workload: timed ops, untimed probes, files."""

    def __init__(self, name, seed, ops, probes=(), files=None):
        self.name = name
        self.seed = seed
        self.ops = ops
        self.probes = list(probes)
        self.files = files or {}


def parse_checks(report):
    """(name, status) of every check line of a text report, in order."""
    out = []
    for line in report.splitlines():
        if line.startswith(("# ", "input ", "result: ")):
            continue
        m = _STATUS.match(line)
        if m:
            out.append((m.group(1).rstrip(), m.group(2)))
    return out


def verdict_errors(op, rc, report):
    """Why (rc, report) contradicts the op's predicted verdict; empty if it does not."""
    errors = []
    if rc != op.rc:
        errors.append("exit %d, expected %d" % (rc, op.rc))
    lines = parse_checks(report)
    checks = dict(lines)
    if not lines:
        errors.append("no checks in report")
    if op.nchecks is not None and len(lines) != op.nchecks:
        errors.append("%d checks, expected %d" % (len(lines), op.nchecks))
    for name, status in op.checks.items():
        if checks.get(name) != status:
            errors.append("%s is %s, expected %s" % (name, checks.get(name), status))
    failed = {name for name, status in lines if status == "FAIL"}
    if op.fail_family is not None:
        if not failed & op.fail_family:
            errors.append("no failing check among %s" % sorted(op.fail_family))
    else:
        unexpected = failed - {name for name, status in op.checks.items() if status == "FAIL"}
        if unexpected:
            errors.append("unexpected failing checks %s" % sorted(unexpected))
    return errors


# ---------------------------------------------------------------------------
# axioms and axioms-defect: verify on generated bundle files
# ---------------------------------------------------------------------------


def _axiom_specs(seed):
    rng = random.Random("axioms/%d" % seed)
    q5 = rng.choice([1, 2, 3, 4])
    q7 = rng.choice([1, 2, 3, 4, 5, 6])
    specs = [
        ("h8", "builtin:h8"),
        ("dkc3", "builtin:double?of=builtin:group?table=c3"),
        ("dkk", "builtin:double?of=builtin:group?table=klein"),
        ("uqsl2-3", "builtin:uqsl2?l=3"),
        ("taft5", "builtin:taft?l=5&q=%d" % q5),
        ("taft7", "builtin:taft?l=7&q=%d" % q7),
        ("dt2", "builtin:double?of=builtin:taft?l=2"),
    ]
    rng.shuffle(specs)
    return specs


def _bundle_texts(seed):
    from hopfkit.bundles import serialize_hopf
    from hopfkit.cli import resolve_hopf

    return [(name, serialize_hopf(resolve_hopf(spec))) for name, spec in _axiom_specs(seed)]


def perturb(text, section, rng):
    """Double one seeded scalar of a bundle section; return (text, changed line).

    The entry is drawn from those of the middle basis element e_m, m = dim // 2
    (the product e_m * e_j, the coproduct of e_m, the column S(e_m)).  The scans
    stop near the first defective basis index, so fixing that index makes every
    seed cost the same while the entry itself stays seeded.
    """
    from hopfkit.exact_math import format_scalar, parse_scalar

    lines = text.split("\n")
    header = dict(l.split(" ", 1) for l in lines[1:lines.index("BEGIN MULT")])
    conductor, middle = int(header["conductor"]), int(header["dim"]) // 2
    begin = lines.index("BEGIN " + section)
    end = lines.index("END", begin)
    field = 1 if section == "ANTIPODE" else 0
    choices = [i for i in range(begin + 1, end) if int(lines[i].split()[field]) == middle]
    i = rng.choice(choices)
    head, scalar = lines[i].rsplit(" ", 1)
    lines[i] = "%s %s" % (head, format_scalar(parse_scalar(scalar, conductor) * 2))
    return "\n".join(lines), lines[i]


VERIFY_OK = {name: "PASS" for name in (
    "mult-associative", "mult-unital", "comult-coassociative", "comult-counital",
    "comult-multiplicative", "comult-of-unit", "counit-multiplicative", "counit-of-unit",
    "antipode-left", "antipode-right", "antipode-invertible")}


def axioms(seed, workdir):
    ops, files = [], {}
    for name, text in _bundle_texts(seed):
        path = os.path.join(workdir, "%s.bundle" % name)
        files[path] = text
        ops.append(Op(["verify", path], rc=0, checks=VERIFY_OK, nchecks=len(VERIFY_OK)))
    return Workload("axioms", seed, ops, files=files)


def axioms_defect(seed, workdir):
    rng = random.Random("axioms-defect/%d" % seed)
    ops, files = [], {}
    for name, text in _bundle_texts(seed):
        for section in ("MULT", "COMULT", "ANTIPODE"):
            bad, _ = perturb(text, section, rng)
            path = os.path.join(workdir, "%s-%s.bundle" % (name, section.lower()))
            files[path] = bad
            ops.append(Op(["verify", path], rc=1, nchecks=len(VERIFY_OK),
                          fail_family=SECTION_FAMILIES[section]))
    return Workload("axioms-defect", seed, ops, files=files)


# ---------------------------------------------------------------------------
# extension: analyze over the criterion-9 registry and the documented specs
# ---------------------------------------------------------------------------


def _analyze(spec, frobenius, central=None, known_wrong=None):
    argv = ["analyze", spec, "--expect-frobenius", str(frobenius).lower()]
    checks = {"expected-frobenius": "PASS"}
    if central is not None:
        argv += ["--expect-central", str(central).lower()]
        checks["expected-central"] = "PASS"
    return Op(argv, rc=0, checks=checks, known_wrong=known_wrong)


def extension(seed, workdir):
    dbl = "builtin:double?of=builtin:"
    ops = [
        # H8 is semisimple and cosemisimple: every inclusion is central Frobenius.
        _analyze("builtin:h8", True, True),
        _analyze("builtin:unit?of=builtin:h8", True, True),
        _analyze("builtin:trivial?of=builtin:h8", True, True),
        # Taft algebras are not unimodular while kC_l is (criterion 8).
        _analyze("builtin:taft?l=3", False),
        _analyze("builtin:taft?l=5", False),
        _analyze("builtin:taft?l=7", False),
        # u_q(sl2): the Cartan part is Frobenius, not central; Borels are not Frobenius (criterion 6).
        _analyze("builtin:uqsl2?l=3&sub=cartan", True, False),
        _analyze("builtin:uqsl2?l=3&sub=borel-", False),
        # Doubles of group algebras are central Frobenius (criterion 7); a double is
        # unimodular, so over a non-unimodular Taft algebra it is not Frobenius.
        _analyze(dbl + "group?table=c2", True, True),
        _analyze(dbl + "group?table=c3", True, True),
        _analyze(dbl + "group?table=klein", True, True),
        _analyze(dbl + "taft?l=2", False),
        _analyze(dbl + "taft?l=3", False),
        Op(["scan-sl2", "--l", "5"], rc=0),
    ]
    random.Random("extension/%d" % seed).shuffle(ops)
    # Documented inputs the program currently gets wrong.  They run once per
    # run outside the timed passes, so fixing them does not move the timings.
    probes = [
        # "+" in a query string decodes to a space: exits 2 with "unknown subalgebra 'borel '".
        _analyze("builtin:uqsl2?l=3&sub=borel+", False, known_wrong=2),
        _analyze("builtin:uqsl2?l=5&sub=borel+", False, known_wrong=2),
        # H8 and D(H8) are semisimple and cosemisimple, so the answer is central
        # Frobenius; the pipeline stops with "free basis not found" and exits 1.
        _analyze(dbl + "h8", True, True, known_wrong=1),
    ]
    return Workload("extension", seed, ops, probes=probes)


# ---------------------------------------------------------------------------
# functor: check-functor and frob-objects on graded kchar modules
# ---------------------------------------------------------------------------

# The cost of a check-functor op depends on how many modules it has and which
# degree they carry, so both are fixed per op: kK c H8 with two seeded
# characters at degree x and with all four at degree y, and kK c D(kK) with two
# seeded characters at degree xy.  The seed picks the characters and their
# order.  The frob-objects ops split all twelve etale objects into seeded groups
# of three, so every seed pushes the same objects.
H8 = "builtin:h8"
DKK = "builtin:double?of=builtin:group?table=klein"
OBJECTS_PER_OP = 3


def _bosonic(n, ex, ey):
    return {"x": ex, "y": ey, "xy": ex * ey}[n] == 1


def _check_functor(spec, chars, deg):
    argv = ["check-functor", spec]
    for char in chars:
        argv += ["--module", "builtin:kchar?act=%s&deg=%s" % (char, deg)]
    argv += ["--frobenius-monoidal", "--separable", "--braided"]
    # both inclusions are central Frobenius (criteria 3 and 7): every
    # Frobenius-monoidal triple and braided pair holds and the functor is separable
    n = len(chars)
    return Op(argv, rc=0, checks={"frobenius-extension": "PASS", "separable": "PASS"},
              nchecks=2 + n ** 3 + n ** 2)


def _frob_objects(objects):
    argv = ["frob-objects", H8, "--separable-normalized"]
    checks = {"central-extension": "PASS", "separable-normalization": "PASS"}
    for n, ex, ey in objects:
        argv += ["--object", "builtin:etale?n=%s&ex=%d&ey=%d" % (n, ex, ey)]
        # pushed etale algebras are Frobenius, special and connected; they are
        # commutative exactly on the bosonic parameter points
        source = "A_%s(%d,%d)" % (n, ex, ey)
        pushed = "Ind(%s)" % source
        checks["source-frobenius[%s]" % source] = "PASS"
        for prop in ("frobenius", "special", "connected"):
            checks["%s[%s]" % (prop, pushed)] = "PASS"
        checks["commutative[%s]" % pushed] = "PASS" if _bosonic(n, ex, ey) else "FAIL"
    rc = 1 if "FAIL" in checks.values() else 0
    return Op(argv, rc=rc, checks=checks, nchecks=2 + 5 * len(objects))


def functor(seed, workdir):
    rng = random.Random("functor/%d" % seed)
    ops = [_check_functor(H8, rng.sample(KLEIN_CHARS, 2), "x"),
           _check_functor(H8, rng.sample(KLEIN_CHARS, 4), "y"),
           _check_functor(DKK, rng.sample(KLEIN_CHARS, 2), "xy")]
    objects = rng.sample(ETALE_OBJECTS, len(ETALE_OBJECTS))
    ops += [_frob_objects(objects[i:i + OBJECTS_PER_OP])
            for i in range(0, len(objects), OBJECTS_PER_OP)]
    rng.shuffle(ops)
    return Workload("functor", seed, ops)


BUILDERS = {"axioms": axioms, "axioms-defect": axioms_defect,
            "extension": extension, "functor": functor}
WORKLOADS = tuple(BUILDERS)


def build(name, seed, workdir):
    """The workload's ops for a seed; bundle files are returned, not written."""
    return BUILDERS[name](seed, workdir)
