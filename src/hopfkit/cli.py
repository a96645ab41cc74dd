"""Command-line frontend.

Inputs are either bundle files or builtin specs ``builtin:<kind>?key=value&...``.
Each kind reads the keys listed below, each at most once, and a spec with any
other key exits 2.  ``of=`` takes the rest of the spec verbatim, so a nested
spec keeps its own keys; it is the only key of double, trivial and unit.

Hopf algebras, and the inclusions K -> H of every kind but group:

  builtin:group?table=c<n>|klein          kC_n, kK
  builtin:h8                              H8; kK -> H8
  builtin:taft?l=3&q=1                    T_l(zeta_l^q); kC_l -> T_l
  builtin:uqsl2?l=3&sub=cartan|borel+|borel-   u_q(sl2); its sub -> u_q(sl2)
  builtin:double?of=<spec>                Drin(H); H -> Drin(H)
  builtin:trivial?of=<spec>               H -> H
  builtin:unit?of=<spec>                  k -> H

The subalgebra K is named by its generators: x and y in H8, g in T_l, and in
u_q(sl2) k for cartan, k and e for borel+, k and f for borel-.

Modules over the small algebra K of an inclusion, and frob-objects objects:

  builtin:trivial                         the tensor unit
  builtin:kchar?act=v1,v2,...&deg=x&cond=N&name=s   one-dimensional (YD with deg) module
  builtin:unit                            the tensor unit as a Frobenius object
  builtin:etale?n=x|y|xy&ex=1|-1&ey=1|-1  the graded etale algebra A_{n,ex,ey}

A bundle is checked once, where it is read: a Hopf algebra bundle must pass
every check of ``verify_hopf`` and an inclusion bundle every check of
``verify_inclusion``.  Otherwise the command stops with ``error:`` naming the
algebra or inclusion, its first failing check and the witness.  This holds
for every bundle a command reads (``dump`` too, and the ``of=`` and module
``over`` references), except the one named on the ``verify`` command line,
whose checks that command reports.

A module is checked where it enters: ``check-functor``, and ``verify`` of a
Yetter-Drinfeld module bundle, stop at ``module-input[...] FAIL`` when an
input's action fails ``verify_module``, and ``check-functor --braided`` at
``yd-input[...] FAIL`` when a Yetter-Drinfeld input fails ``verify_yd``.
Either line names the first failing check and carries its witness.

Exit codes: 0 all checks passed, 1 at least one check failed, an --expect
flag was contradicted, or a bundle was refused as above, 2 malformed input.
"""

import argparse
import functools
import os
import sys
from math import gcd

from . import __version__
from .bundles import (
    MAX_CONDUCTOR,
    MAX_DIM,
    bundle_header,
    parse_hopf,
    parse_inclusion,
    parse_module,
    read_bundle,
    serialize_hopf,
)
from .errors import BundleParseError, HopfkitError
from .exact_math import Matrix, parse_scalar
from .reports import SKIPPED, Report, digest_bytes

# u_q(sl2) has dim l^3 <= MAX_DIM
UQSL2_L_RANGE = (3, 8)
# the Cartan row-sum scan visits 2^rank sign subsets; E8 is the largest exceptional rank
MAX_CARTAN_RANK = 8


def _parse_spec(spec):
    """(kind, {key: value}) of a builtin spec, None for a bundle path."""
    scheme, _, rest = spec.partition(":")
    if scheme != "builtin":
        return None
    kind, _, query = rest.partition("?")
    fields = query.split("&") if query else []
    params = {}
    for i, field in enumerate(fields):
        key, eq, value = field.partition("=")
        if not eq:
            raise BundleParseError("builtin:%s: %r is not key=value" % (kind, field))
        if key in params:
            raise BundleParseError("builtin:%s repeats key %r" % (kind, key))
        if key == "of":
            params[key] = "&".join([value] + fields[i + 1:])
            break
        params[key] = value
    return kind, params


def _keys(kind, params, **defaults):
    """The values of the keys ``kind`` reads, in the order given; any other
    key is refused."""
    for key in params:
        if key not in defaults:
            raise BundleParseError("builtin:%s takes no key %r" % (kind, key))
    return [params.get(key, default) for key, default in defaults.items()]


def _int_param(key, raw, low=None, high=None):
    """The integer spelled by a spec parameter, in low..high when bounded."""
    try:
        value = int(raw)
    except ValueError:
        raise BundleParseError("%s=%r is not an integer" % (key, raw)) from None
    if low is not None and not low <= value <= high:
        raise BundleParseError("%s must be between %d and %d, got %d" % (key, low, high, value))
    return value


def _uqsl2_l(raw, key="l"):
    """The odd l of a u_q(sl2) spec or of ``scan-sl2 --l``."""
    l = _int_param(key, raw, *UQSL2_L_RANGE)
    if l % 2 == 0:
        raise BundleParseError("small_quantum_sl2 needs odd l >= 3")
    return l


# hopfkit runs single-threaded and reads HOPFKIT_JOBS nowhere else; the
# benchmark harness (hopfbench/run.py) still imports this parser.
def _jobs():
    try:
        return max(1, int(os.environ.get("HOPFKIT_JOBS", "1")))
    except ValueError:
        return 1


def _refuse_failed(rep, name, what):
    """Raise HopfkitError naming the first failing check of rep, if any."""
    failed = rep.failures()
    if failed:
        c = failed[0]
        witness = "" if c.witness is None else " witness=%s" % (c.witness,)
        raise HopfkitError("%s is not a %s: %s FAIL%s" % (name, what, c.name, witness))


def _builtin(kind, params):
    """(H, K -> H) of a builtin algebra or inclusion; group names no
    inclusion, and trivial and unit no algebra (None)."""
    from . import builders
    from .extension import trivial_inclusion, unit_inclusion

    if kind == "group":
        (table,) = _keys(kind, params, table="c2")
        if table == "klein":
            return builders.group_algebra(builders.klein_table(), name="kK",
                                          labels=["1", "x", "y", "xy"]), None
        if table[:1] != "c" or not table[1:].isdigit():
            raise BundleParseError("unknown group table %r" % table)
        n = _int_param("cyclic order", table[1:], 1, MAX_DIM)
        return builders.group_algebra(builders.cyclic_table(n), name="kC%d" % n), None
    if kind == "h8":
        _keys(kind, params)
        return builders.kac_paljutkin()
    if kind == "taft":
        # T_l has dim l^2 <= MAX_DIM, and zeta_l^q must be a primitive l-th root of unity
        l, q = _keys(kind, params, l="3", q="1")
        l, q = _int_param("l", l, 2, 22), _int_param("q", q)
        if gcd(q, l) != 1:
            raise BundleParseError("q = zeta_%d^%d is not a primitive root of unity" % (l, q))
        return builders.taft(l, q)
    if kind == "uqsl2":
        l, sub = _keys(kind, params, l="3", sub="cartan")
        l = _uqsl2_l(l)
        # sub is read before u_q(sl2), of dim l^3, is built
        if sub not in builders.UQSL2_SUBALGEBRAS:
            raise BundleParseError("unknown uqsl2 subalgebra %r" % sub)
        prefix, gens = builders.UQSL2_SUBALGEBRAS[sub]
        H = builders.small_quantum_sl2(l)
        return H, builders.generated_inclusion(H, gens, prefix + str(l))
    if kind not in ("double", "trivial", "unit"):
        raise BundleParseError("unknown builtin %r" % kind)
    (of,) = _keys(kind, params, of=None)
    if of is None:
        raise BundleParseError("builtin:%s needs of=<spec>" % kind)
    H = resolve_hopf(of)
    if kind == "trivial":
        return None, trivial_inclusion(H)
    if kind == "unit":
        return None, unit_inclusion(H, builders.trivial_hopf())
    if H.dim * H.dim > MAX_DIM:
        raise BundleParseError("double of %s has dim %d > %d" % (H.name, H.dim * H.dim, MAX_DIM))
    return builders.drinfeld_double(H)


def resolve_hopf(spec):
    """A FinHopf from a builtin spec or a bundle file path; a bundle is
    refused unless it passes ``verify_hopf``."""
    from .hopf_core import verify_hopf

    parsed = _parse_spec(spec)
    if parsed is None:
        H = parse_hopf(read_bundle(spec)[1])
        _refuse_failed(verify_hopf(H), H.name, "Hopf algebra")
        return H
    H = _builtin(*parsed)[0]
    if H is None:
        raise BundleParseError("builtin:%s names an inclusion, not a Hopf algebra" % parsed[0])
    return H


def resolve_inclusion(spec):
    return _inclusion_input(spec)[0]


def _inclusion_input(spec):
    """The inclusion of a builtin spec or bundle file, and the digest the
    report records for it: of the spec text, or of the bytes of the file,
    which is read once and refused unless it passes ``verify_inclusion``;
    its algebras are read by ``resolve_hopf``."""
    from .extension import verify_inclusion

    parsed = _parse_spec(spec)
    if parsed is None:
        data, text = read_bundle(spec)
        incl = parse_inclusion(text, resolve_hopf)
        _refuse_failed(verify_inclusion(incl), "%s -> %s" % (incl.K.name, incl.H.name),
                       "Hopf algebra map")
        return incl, digest_bytes(data)
    incl = _builtin(*parsed)[1]
    if incl is None:
        raise BundleParseError("builtin:%s names a Hopf algebra, not an inclusion" % parsed[0])
    return incl, digest_bytes(spec.encode())


def resolve_module(spec, K_hopf):
    from .module_theory import HModule, trivial_module
    from .yetter_drinfeld import yd_line

    parsed = _parse_spec(spec)
    if parsed is None:
        text = read_bundle(spec)[1]
        return parse_module(text, lambda ref: K_hopf if ref == "K" else resolve_hopf(ref))
    kind, params = parsed
    if kind == "trivial":
        _keys(kind, params)
        return trivial_module(K_hopf)
    if kind != "kchar":
        raise BundleParseError("unknown builtin module %r" % spec)
    act, deg, cond, name = _keys(kind, params, act="", deg=None, cond=K_hopf.N, name="kchar")
    if not act:
        raise BundleParseError("builtin:kchar needs act=v1,v2,...")
    cond = _int_param("cond", cond, 1, MAX_CONDUCTOR)
    try:
        vals = [parse_scalar(v, cond) for v in act.split(",")]
    except (ValueError, ZeroDivisionError) as e:
        raise BundleParseError("bad act value in %r (%s)" % (act, e)) from None
    if len(vals) != K_hopf.dim:
        raise BundleParseError("act needs %d values for %s" % (K_hopf.dim, K_hopf.name))
    if deg is None:
        return HModule(K_hopf, [Matrix.from_rows([[v]]) for v in vals], name=name)
    if deg not in K_hopf.basis_labels:
        raise BundleParseError("deg=%r is not a basis label of %s" % (deg, K_hopf.name))
    return yd_line(K_hopf, K_hopf.label_index(deg), vals, name=name)


def _frob_object(spec):
    """The builder K -> Frobenius object of an object spec, so that the spec
    is read before the inclusion."""
    from .frob_objects import build_group_etale, trivial_frobenius

    parsed = _parse_spec(spec)
    if parsed is None:
        raise BundleParseError("object specs must be builtin:unit or builtin:etale")
    kind, params = parsed
    if kind == "unit":
        _keys(kind, params)
        return trivial_frobenius
    if kind != "etale":
        raise BundleParseError("unknown object spec %r" % spec)
    n, ex, ey = _keys(kind, params, n="x", ex="1", ey="1")
    if n not in ("x", "y", "xy"):
        raise BundleParseError("n=%r is not one of x, y, xy" % n)
    ex, ey = _int_param("ex", ex), _int_param("ey", ey)
    for key, sign in (("ex", ex), ("ey", ey)):
        if sign not in (1, -1):
            raise BundleParseError("%s must be 1 or -1, got %d" % (key, sign))
    return lambda K: build_group_etale(K, n, ex, ey)


def _emit(report, args):
    if args.report == "json":
        sys.stdout.write(report.to_json() + "\n")
    else:
        sys.stdout.write(report.to_text())
    return 0 if report.ok else 1


def _input_failure(report, name, rep):
    """Add the FAIL line ``name`` of an input refused by the checks ``rep``:
    its detail names their first failing check, and its witness is that
    check's."""
    bad = rep.failures()[0]
    report.add(name, False, witness=bad.witness, detail=bad.name)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_verify(args):
    from .hopf_core import verify_hopf
    from .module_theory import verify_module
    from .yetter_drinfeld import YDModule, verify_yd

    spec = args.input
    data = text = None
    if _parse_spec(spec) is None:
        data, text = read_bundle(spec)
    report = Report("verify %s" % spec, tool="hopfkit %s" % __version__,
                    inputs=[(spec, digest_bytes(spec.encode() if data is None else data))])
    if text is not None and bundle_header(text).startswith("hopf-module"):
        mod = parse_module(text, resolve_hopf)
        rep = verify_module(mod)
        if isinstance(mod, YDModule):
            # a YD module is first a module; a valid bundle's report reads as
            # the YD checks alone
            if not rep.ok:
                _input_failure(report, "module-input[%s]" % mod.name, rep)
                return _emit(report, args)
            rep = verify_yd(mod)
        report.extend(rep)
        return _emit(report, args)
    H = resolve_hopf(spec) if text is None else parse_hopf(text)
    report.extend(verify_hopf(H))
    return _emit(report, args)


def cmd_dump(args):
    H = resolve_hopf(args.input)
    sys.stdout.write(serialize_hopf(H))
    return 0


def cmd_analyze(args):
    from .extension import analyze_extension

    spec = args.input
    incl, digest = _inclusion_input(spec)
    ana = analyze_extension(incl)
    report = Report("analyze %s" % spec, tool="hopfkit %s" % __version__,
                    inputs=[(spec, digest)])
    report.extend(ana.report)
    if ana.decision is not None:
        if args.expect_frobenius is not None:
            report.add(
                "expected-frobenius",
                ana.decision.frobenius == args.expect_frobenius,
                detail="got %s" % ana.decision.frobenius,
            )
        if args.expect_central is not None:
            report.add(
                "expected-central",
                bool(ana.central) == args.expect_central,
                detail="got %s" % ana.central,
            )
    return _emit(report, args)


def cmd_check_functor(args):
    from .extension import is_central_extension
    from .induction import induction_context, is_separable_functor, verify_frobenius_monoidal
    from .module_theory import verify_module
    from .yetter_drinfeld import YDModule, verify_braided_frobenius, verify_yd

    spec = args.input
    incl, digest = _inclusion_input(spec)
    report = Report("check-functor %s" % spec, tool="hopfkit %s" % __version__,
                    inputs=[(spec, digest)])
    modules = [resolve_module(m, incl.K) for m in args.modules or ["builtin:trivial"]]
    for m in modules:
        rep = verify_module(m)
        if not rep.ok:
            _input_failure(report, "module-input[%s]" % m.name, rep)
            return _emit(report, args)
    try:
        frob = induction_context(incl)
    except HopfkitError as e:
        report.add("frobenius-extension", False, detail=str(e))
        return _emit(report, args)
    report.add("frobenius-extension", True)

    if args.frobenius_monoidal:
        for tr in ((a, b, c) for a in modules for b in modules for c in modules):
            rep = verify_frobenius_monoidal(frob, *tr)
            names = ",".join(m.name for m in tr)
            report.add("frobenius-monoidal[%s]" % names, rep.ok, anchor="frobmon")
    if args.separable:
        pairs = [(a, b) for a in modules for b in modules]
        sep = is_separable_functor(frob, pairs)
        report.add(
            "separable",
            sep["separable"],
            detail="scalar=%s" % sep["scalar"],
            anchor="separability",
        )
    if args.braided:
        yds = [m for m in modules if isinstance(m, YDModule)]
        if not is_central_extension(incl):
            report.add("braided", SKIPPED, detail="extension not central",
                       anchor="central-frobenius")
        elif not yds:
            report.add("braided", SKIPPED, detail="no Yetter-Drinfeld module among the inputs",
                       anchor="braided")
        else:
            for m in yds:
                rep = verify_yd(m)
                if not rep.ok:
                    _input_failure(report, "yd-input[%s]" % m.name, rep)
                    return _emit(report, args)
            for pr in ((a, b) for a in yds for b in yds):
                rep = verify_braided_frobenius(frob, *pr)
                report.add("braided-frobenius[%s]" % ",".join(m.name for m in pr), rep.ok,
                           anchor="braided")
    return _emit(report, args)


def cmd_frob_objects(args):
    from .frob_objects import is_rigid_frobenius, push_frobenius, verify_frobenius_object
    from .extension import is_central_extension, rescale_frobenius_data
    from .induction import induction_context, is_separable_functor
    from .module_theory import trivial_module

    builds = [_frob_object(obj_spec) for obj_spec in args.object or ["builtin:unit"]]
    spec = args.input
    incl, digest = _inclusion_input(spec)
    try:
        # an object that does not fit K, as an etale one on a K without the
        # labels 1, x, y, xy, is malformed input
        objects = [build(incl.K) for build in builds]
    except HopfkitError as e:
        raise BundleParseError(str(e)) from None
    report = Report("frob-objects %s" % spec, tool="hopfkit %s" % __version__,
                    inputs=[(spec, digest)])
    try:
        frob = induction_context(incl)
    except HopfkitError as e:
        report.add("frobenius-extension", False, detail=str(e))
        return _emit(report, args)
    if not is_central_extension(incl):
        report.add("central-extension", False, detail="cannot push YD Frobenius objects")
        return _emit(report, args)
    report.add("central-extension", True, anchor="central-frobenius")

    if args.separable_normalized:
        one = trivial_module(incl.K)
        sep = is_separable_functor(frob, [(one, one)])
        if sep["separable"]:
            frob = rescale_frobenius_data(frob, 1 / sep["scalar"])
            report.add("separable-normalization", True,
                       detail="lambda rescaled by 1/%s" % sep["scalar"])
        else:
            report.add("separable-normalization", False, detail="no nonzero scalar")

    for F in objects:
        vrep = verify_frobenius_object(F)
        report.add("source-frobenius[%s]" % F.name, vrep.ok, anchor="frobenius-object")
        B = push_frobenius(frob, F)
        for c in is_rigid_frobenius(B).checks:
            report.add("%s[%s]" % (c.name, B.name), c.status, witness=c.witness,
                       anchor=c.anchor, detail=c.detail)
    return _emit(report, args)


def cmd_scan_sl2(args):
    from .builders import unimodularity_scan_sl2

    l = _uqsl2_l(args.l, "--l")
    report = Report("scan-sl2 l=%d" % l, tool="hopfkit %s" % __version__)
    rows = unimodularity_scan_sl2(l)
    for row in rows:
        name = "I+=%s I-=%s" % (sorted(row["I+"]), sorted(row["I-"]))
        u, dim = row["unimodular"], row["dim"]
        if l > 3:
            ok = u == row["expected"]
            detail = "unimodular=%s expected=%s dim=%d" % (u, row["expected"], dim)
        else:
            ok = True
            detail = "unimodular=%s dim=%d (no prediction at l=3)" % (u, dim)
        report.add("unimodular[%s]" % name, ok, detail=detail, anchor="subalgebra-unimodularity")
    return _emit(report, args)


def _cartan_types(text):
    """(type letter, rank) for each token of a --types list such as "A1,B2,G2"."""
    from .builders import cartan_matrix

    types = []
    for token in text.split(","):
        token = token.strip()
        rank = _int_param("--types %s rank" % token, token[1:], 1, MAX_CARTAN_RANK)
        try:
            cartan_matrix(token[0], rank)
        except HopfkitError as e:
            raise BundleParseError("--types %s: %s" % (token, e)) from None
        types.append((token[0].upper(), rank))
    return types


def cmd_cartan_check(args):
    from .builders import cartan_matrix, cartan_row_sum_witness

    report = Report("cartan-check", tool="hopfkit %s" % __version__)
    types = _cartan_types(args.types)
    ls = [_int_param("--l", x, 2, MAX_CONDUCTOR) for x in args.l.split(",")]
    for label, rank in types:
        C = cartan_matrix(label, rank)
        for l in ls:
            # part i: the row sums of C vanish mod l; part ii: those of some C_J do
            witness = cartan_row_sum_witness(C, l)
            report.add(
                "%s%d[l=%d]" % (label, rank, l),
                l <= 3 or witness is None,
                detail="part_i=%s part_ii=%s witness=%r%s"
                % (witness == (), witness is not None, witness,
                   "" if l > 3 else " (l<=3 excluded from the bound)"),
                anchor="cartan-row-sums",
            )
    return _emit(report, args)


@functools.cache
def build_parser():
    """The parser, built once per process: parsing leaves it as it was, and
    argparse copies the list defaults of --module and --object before
    appending to them."""
    ap = argparse.ArgumentParser(prog="hopfkit",
                                 description="exact Hopf-algebra extension verifier")
    ap.add_argument("--version", action="version", version="hopfkit %s" % __version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--report", choices=("text", "json"), default="text")

    p = sub.add_parser("verify", help="verify Hopf/module axioms of a bundle or builtin")
    p.add_argument("input")
    common(p)

    p = sub.add_parser("dump", help="serialize a builtin algebra as a bundle")
    p.add_argument("input")
    common(p)

    p = sub.add_parser("analyze", help="run the extension analysis pipeline")
    p.add_argument("input")
    p.add_argument("--expect-frobenius", type=_bool_flag, default=None)
    p.add_argument("--expect-central", type=_bool_flag, default=None)
    common(p)

    p = sub.add_parser("check-functor", help="diagram suites for the induction functor")
    p.add_argument("input")
    p.add_argument("--module", dest="modules", metavar="MODULE", action="append", default=[])
    p.add_argument("--frobenius-monoidal", action="store_true")
    p.add_argument("--braided", action="store_true")
    p.add_argument("--separable", action="store_true")
    common(p)

    p = sub.add_parser("frob-objects", help="build/push Frobenius objects and test rigidity")
    p.add_argument("input")
    p.add_argument("--object", action="append", default=[])
    p.add_argument("--separable-normalized", action="store_true")
    common(p)

    p = sub.add_parser("scan-sl2", help="unimodularity scan over small quantum sl2 subalgebras")
    p.add_argument("--l", default="5")
    common(p)

    p = sub.add_parser("cartan-check", help="row-sum scan over finite-type Cartan matrices")
    p.add_argument("--types", default="A1,A2,A3,A4,B2,B3,B4,C3,C4,D4,G2")
    p.add_argument("--l", default="5,7,9")
    common(p)
    return ap


def _bool_flag(text):
    if text.lower() in ("1", "true", "yes"):
        return True
    if text.lower() in ("0", "false", "no"):
        return False
    raise argparse.ArgumentTypeError("expected true/false")


def main(argv=None):
    args = build_parser().parse_args(argv)
    # looked up per call, not bound into the shared parser
    fn = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return fn(args)
    except BundleParseError as e:
        sys.stderr.write("input error: %s\n" % e)
        return 2
    except HopfkitError as e:
        sys.stderr.write("error: %s\n" % e)
        return 1


if __name__ == "__main__":
    sys.exit(main())
