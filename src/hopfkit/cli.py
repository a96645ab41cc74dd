"""Command-line frontend.

Inputs are either bundle files or builtin specs:

  builtin:group?table=c2|c3|c4|klein      group algebras
  builtin:h8                              the Kac-Paljutkin algebra
  builtin:taft?l=3&q=1                    Taft algebra T_l(zeta_l^q)
  builtin:uqsl2?l=5                       small quantum sl2
  builtin:double?of=<spec>                Drinfeld double of a builtin/bundle

Inclusion specs additionally accept sub=... selectors:

  builtin:h8                              kK -> H8 (when used as an inclusion)
  builtin:taft?l=3                        kC_l -> T_l
  builtin:uqsl2?l=5&sub=cartan|borel+|borel-
  builtin:double?of=<spec>                H -> Drin(H)
  builtin:trivial?of=<spec>               H -> H
  builtin:unit?of=<spec>                  k -> H

Module specs (over the small algebra K of an inclusion):

  builtin:trivial                         the tensor unit
  builtin:kchar?act=1,-1,...[&deg=x][&cond=N]   one-dimensional (YD) module

Exit codes: 0 all checks passed, 1 at least one check failed or an
--expect flag was contradicted, 2 malformed input.
"""

import argparse
import os
import sys
from urllib.parse import parse_qs, urlparse

from . import __version__
from .bundles import (
    MAX_CONDUCTOR,
    MAX_DIM,
    load_text,
    parse_hopf,
    parse_inclusion,
    parse_module,
    serialize_hopf,
)
from .errors import BundleParseError, HopfkitError
from .exact_math import Matrix, parse_scalar
from .reports import Report, digest_bytes

# u_q(sl2) has dim l^3 <= MAX_DIM
UQSL2_L_RANGE = (3, 8)
# the Cartan row-sum scan visits 2^rank sign subsets; E8 is the largest exceptional rank
MAX_CARTAN_RANK = 8


def _parse_spec(spec):
    try:
        u = urlparse(spec)
    except ValueError as e:
        raise BundleParseError("bad spec %r (%s)" % (spec, e)) from None
    # "+" is literal in specs (sub=borel+, scalar sums), not an encoded space
    params = {k: v[-1] for k, v in parse_qs(u.query.replace("+", "%2B")).items()}
    return u.scheme, u.path, params


def _int_param(key, raw, low=None, high=None):
    """The integer spelled by a spec parameter, in low..high when bounded."""
    try:
        value = int(raw)
    except ValueError:
        raise BundleParseError("%s=%r is not an integer" % (key, raw)) from None
    if low is not None and not low <= value <= high:
        raise BundleParseError("%s must be between %d and %d, got %d" % (key, low, high, value))
    return value


def _double(params):
    """Drin(H) and H -> Drin(H) for the of=<spec> parameter; dim Drin(H) = dim(H)^2."""
    from . import builders

    of = params.get("of")
    if not of:
        raise BundleParseError("builtin:double needs of=<spec>")
    H = resolve_hopf(of)
    if H.dim * H.dim > MAX_DIM:
        raise BundleParseError("double of %s has dim %d > %d" % (H.name, H.dim * H.dim, MAX_DIM))
    return builders.drinfeld_double(H)


# hopfkit runs single-threaded and reads HOPFKIT_JOBS nowhere else; the
# benchmark harness (hopfbench/run.py) still imports this parser.
def _jobs():
    try:
        return max(1, int(os.environ.get("HOPFKIT_JOBS", "1")))
    except ValueError:
        return 1


def resolve_hopf(spec):
    """A FinHopf from a builtin spec or a bundle file path."""
    from . import builders

    scheme, path, params = _parse_spec(spec)
    if scheme != "builtin":
        text = load_text(spec)
        return parse_hopf(text)
    kind = path
    if kind == "h8":
        return builders.kac_paljutkin()[0]
    if kind == "group":
        table = params.get("table", "c2")
        return _group_by_name(table)
    if kind == "taft":
        return builders.taft(*_taft_params(params))[0]
    if kind == "uqsl2":
        return builders.small_quantum_sl2(_uqsl2_l(params)).hopf
    if kind == "double":
        return _double(params)[0]
    raise BundleParseError("unknown builtin algebra %r" % spec)


def _taft_params(params):
    """(l, q) of a Taft spec; T_l has dim l^2 <= MAX_DIM."""
    return _int_param("l", params.get("l", "3"), 2, 22), _int_param("q", params.get("q", "1"))


def _uqsl2_l(params):
    """l of a u_q(sl2) spec."""
    return _int_param("l", params.get("l", "3"), *UQSL2_L_RANGE)


def _group_by_name(name):
    from . import builders

    name = name.lower()
    if name in ("klein", "c2xc2", "k4"):
        return builders.group_algebra(builders.klein_table(), name="kK",
                                      labels=["1", "x", "y", "xy"])
    if name.startswith("c") and name[1:].isdigit():
        n = _int_param("cyclic order", name[1:], 1, MAX_DIM)
        return builders.group_algebra(builders.cyclic_table(n), name="kC%d" % n)
    raise BundleParseError("unknown group table %r" % name)


def resolve_inclusion(spec):
    from . import builders
    from .extension import trivial_inclusion, unit_inclusion

    scheme, path, params = _parse_spec(spec)
    if scheme != "builtin":
        text = load_text(spec)
        return parse_inclusion(text, resolve_hopf)
    kind = path
    if kind == "h8":
        return builders.kac_paljutkin()[1]
    if kind == "taft":
        return builders.taft(*_taft_params(params))[1]
    if kind == "uqsl2":
        uq = builders.small_quantum_sl2(_uqsl2_l(params))
        sub = params.get("sub", "cartan")
        if sub == "cartan":
            return uq.cartan()
        if sub in ("borel+", "borelplus"):
            return uq.borel_plus()
        if sub in ("borel-", "borelminus"):
            return uq.borel_minus()
        raise BundleParseError("unknown uqsl2 subalgebra %r" % sub)
    if kind == "double":
        return _double(params)[1]
    if kind == "trivial":
        return trivial_inclusion(resolve_hopf(params.get("of", "builtin:h8")))
    if kind == "unit":
        H = resolve_hopf(params.get("of", "builtin:h8"))
        return unit_inclusion(H, builders.trivial_hopf())
    raise BundleParseError("unknown builtin inclusion %r" % spec)


def resolve_module(spec, K_hopf):
    from .module_theory import HModule, trivial_module
    from .yetter_drinfeld import YDModule, trivial_yd, yd_line

    scheme, path, params = _parse_spec(spec)
    if scheme != "builtin":
        text = load_text(spec)
        return parse_module(text, lambda ref: K_hopf if ref == "K" else resolve_hopf(ref))
    if path == "trivial":
        if params.get("deg") or params.get("yd"):
            return trivial_yd(K_hopf)
        return trivial_module(K_hopf)
    if path == "kchar":
        act = params.get("act")
        if not act:
            raise BundleParseError("builtin:kchar needs act=v1,v2,...")
        cond = _int_param("cond", params.get("cond", K_hopf.N), 1, MAX_CONDUCTOR)
        try:
            vals = [parse_scalar(v, cond) for v in act.split(",")]
        except (ValueError, ZeroDivisionError) as e:
            raise BundleParseError("bad act value in %r (%s)" % (act, e)) from None
        if len(vals) != K_hopf.dim:
            raise BundleParseError(
                "act needs %d values for %s" % (K_hopf.dim, K_hopf.name)
            )
        deg = params.get("deg")
        name = params.get("name", "kchar")
        if deg is None:
            return HModule(K_hopf, [Matrix.from_rows([[v]]) for v in vals], name=name)
        if deg not in K_hopf.basis_labels:
            raise BundleParseError("deg=%r is not a basis label of %s" % (deg, K_hopf.name))
        return yd_line(K_hopf, K_hopf.label_index(deg), vals, name=name)
    raise BundleParseError("unknown builtin module %r" % spec)


def _spec_digest(spec):
    if spec.startswith("builtin:"):
        return digest_bytes(spec.encode())
    try:
        with open(spec, "rb") as fh:
            return digest_bytes(fh.read())
    except (OSError, ValueError):  # ValueError: a NUL byte in the path
        return digest_bytes(spec.encode())


def _emit(report, args):
    if args.report == "json":
        sys.stdout.write(report.to_json() + "\n")
    else:
        sys.stdout.write(report.to_text())
    return 0 if report.ok else 1


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_verify(args):
    from .hopf_core import verify_hopf
    from .module_theory import HModule, verify_module
    from .yetter_drinfeld import YDModule, verify_yd

    spec = args.input
    report = Report("verify %s" % spec, tool="hopfkit %s" % __version__,
                    inputs=[(spec, _spec_digest(spec))])
    if not spec.startswith("builtin:") and os.path.exists(spec):
        text = load_text(spec)
        head = text.lstrip().splitlines()[0] if text.strip() else ""
        if head.startswith("hopf-module"):
            mod = parse_module(text, resolve_hopf)
            if isinstance(mod, YDModule):
                report.extend(verify_yd(mod))
            else:
                report.extend(verify_module(mod))
            return _emit(report, args)
    H = resolve_hopf(spec)
    report.extend(verify_hopf(H))
    return _emit(report, args)


def cmd_dump(args):
    H = resolve_hopf(args.input)
    sys.stdout.write(serialize_hopf(H))
    return 0


def cmd_analyze(args):
    from .extension import analyze_extension

    spec = args.input
    incl = resolve_inclusion(spec)
    ana = analyze_extension(incl)
    report = Report("analyze %s" % spec, tool="hopfkit %s" % __version__,
                    inputs=[(spec, _spec_digest(spec))])
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
    from .induction import induction_context, is_separable_functor, verify_frobenius_monoidal
    from .module_theory import verify_module
    from .yetter_drinfeld import YDModule, verify_braided_frobenius, verify_yd

    spec = args.input
    incl = resolve_inclusion(spec)
    report = Report("check-functor %s" % spec, tool="hopfkit %s" % __version__,
                    inputs=[(spec, _spec_digest(spec))])
    modules = [resolve_module(m, incl.K) for m in args.module or ["builtin:trivial"]]
    plain = [m.module if isinstance(m, YDModule) else m for m in modules]
    for m in plain:
        if not verify_module(m).ok:
            report.add("module-input[%s]" % m.name, False)
            return _emit(report, args)
    try:
        ictx = induction_context(incl)
    except HopfkitError as e:
        report.add("frobenius-extension", False, detail=str(e))
        return _emit(report, args)
    report.add("frobenius-extension", True)

    if args.frobenius_monoidal:
        for tr in ((a, b, c) for a in plain for b in plain for c in plain):
            rep = verify_frobenius_monoidal(ictx, *tr)
            names = ",".join(m.name for m in tr)
            report.add("frobenius-monoidal[%s]" % names, rep.ok, anchor="frobmon")
    if args.separable:
        pairs = [(a, b) for a in plain for b in plain]
        sep = is_separable_functor(ictx, pairs)
        report.add(
            "separable",
            sep["separable"],
            detail="scalar=%s" % sep["scalar"],
            anchor="separability",
        )
    if args.braided:
        if not ictx.central:
            report.add("braided", "skipped", detail="extension not central",
                       anchor="central-frobenius")
        else:
            yds = [m for m in modules if isinstance(m, YDModule)]
            for m in yds:
                rep = verify_yd(m)
                if not rep.ok:
                    report.add("yd-input[%s]" % m.name, False)
                    return _emit(report, args)
            for pr in ((a, b) for a in yds for b in yds):
                rep = verify_braided_frobenius(ictx, *pr)
                names = ",".join(m.name for m in pr)
                report.add("braided-frobenius[%s]" % names, rep.ok, anchor="braided")
    return _emit(report, args)


def _etale_params(obj_spec):
    """None for ``builtin:unit``, else the (n, ex, ey) of ``builtin:etale``."""
    scheme, path, params = _parse_spec(obj_spec)
    if scheme != "builtin":
        raise BundleParseError("object specs must be builtin:unit or builtin:etale")
    if path == "unit":
        return None
    if path != "etale":
        raise BundleParseError("unknown object spec %r" % obj_spec)
    n = params.get("n", "x")
    if n not in ("x", "y", "xy"):
        raise BundleParseError("n=%r is not one of x, y, xy" % n)
    ex, ey = (_int_param(key, params.get(key, "1")) for key in ("ex", "ey"))
    for key, sign in (("ex", ex), ("ey", ey)):
        if sign not in (1, -1):
            raise BundleParseError("%s must be 1 or -1, got %d" % (key, sign))
    return n, ex, ey


def cmd_frob_objects(args):
    from .frob_objects import (
        build_group_etale,
        is_rigid_frobenius,
        push_frobenius,
        trivial_frobenius,
        verify_frobenius_object,
        verify_pushed_frobenius,
    )
    from .extension import rescale_frobenius_data
    from .induction import InductionContext, induction_context, is_separable_functor
    from .module_theory import trivial_module

    objects = [_etale_params(obj_spec) for obj_spec in args.object or ["builtin:unit"]]
    spec = args.input
    incl = resolve_inclusion(spec)
    report = Report("frob-objects %s" % spec, tool="hopfkit %s" % __version__,
                    inputs=[(spec, _spec_digest(spec))])
    try:
        ictx = induction_context(incl)
    except HopfkitError as e:
        report.add("frobenius-extension", False, detail=str(e))
        return _emit(report, args)
    if not ictx.central:
        report.add("central-extension", False, detail="cannot push YD Frobenius objects")
        return _emit(report, args)
    report.add("central-extension", True, anchor="central-frobenius")

    if args.separable_normalized:
        one = trivial_module(incl.K)
        sep = is_separable_functor(ictx, [(one, one)], verify_witness=False)
        if sep["scalar"] is not None and not sep["scalar"].is_zero():
            ictx = InductionContext(
                incl, rescale_frobenius_data(ictx.frob, 1 / sep["scalar"]), central=ictx.central
            )
            report.add("separable-normalization", True,
                       detail="lambda rescaled by 1/%s" % sep["scalar"])
        else:
            report.add("separable-normalization", False, detail="no nonzero scalar")

    for etale in objects:
        F = trivial_frobenius(incl.K) if etale is None else build_group_etale(incl.K, *etale)
        vrep = verify_frobenius_object(F)
        report.add("source-frobenius[%s]" % F.name, vrep.ok, anchor="frobenius-object")
        B = push_frobenius(ictx, F, verify=False)
        rig = is_rigid_frobenius(B, verify_pushed_frobenius(B))
        for c in rig.checks:
            report.add("%s[%s]" % (c.name, B.name), c.status, witness=c.witness,
                       anchor=c.anchor, detail=c.detail)
    return _emit(report, args)


def cmd_scan_sl2(args):
    from .builders import unimodularity_scan_sl2

    l = _int_param("--l", args.l, *UQSL2_L_RANGE)
    report = Report("scan-sl2 l=%d" % l, tool="hopfkit %s" % __version__)
    rows = unimodularity_scan_sl2(l)
    for row in rows:
        name = "I+=%s I-=%s" % (sorted(row["I+"]), sorted(row["I-"]))
        if l > 3:
            report.add(
                "unimodular[%s]" % name,
                row["unimodular"] == row["expected"],
                detail="unimodular=%s expected=%s dim=%d"
                % (row["unimodular"], row["expected"], row["dim"]),
                anchor="subalgebra-unimodularity",
            )
        else:
            report.add(
                "unimodular[%s]" % name,
                True,
                detail="unimodular=%s dim=%d (no prediction at l=3)"
                % (row["unimodular"], row["dim"]),
                anchor="subalgebra-unimodularity",
            )
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
    from .builders import CartanDatum, cartan_row_sum_check

    report = Report("cartan-check", tool="hopfkit %s" % __version__)
    types = _cartan_types(args.types)
    ls = [_int_param("--l", x, 2, MAX_CONDUCTOR) for x in args.l.split(",")]
    for label, rank in types:
        for l in ls:
            datum = CartanDatum(label, rank, l)
            res = cartan_row_sum_check(datum)
            name = "%s%d[l=%d]" % (label, rank, l)
            if l > 3:
                report.add(
                    name,
                    not res.part_i_all_zero and not res.part_ii_exists,
                    detail="part_i=%s part_ii=%s witness=%r"
                    % (res.part_i_all_zero, res.part_ii_exists, res.witness),
                    anchor="cartan-row-sums",
                )
            else:
                report.add(
                    name,
                    True,
                    detail="part_i=%s part_ii=%s witness=%r (l<=3 excluded from the bound)"
                    % (res.part_i_all_zero, res.part_ii_exists, res.witness),
                    anchor="cartan-row-sums",
                )
    return _emit(report, args)


def build_parser():
    ap = argparse.ArgumentParser(prog="hopfkit",
                                 description="exact Hopf-algebra extension verifier")
    ap.add_argument("--version", action="version", version="hopfkit %s" % __version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--report", choices=("text", "json"), default="text")

    p = sub.add_parser("verify", help="verify Hopf/module axioms of a bundle or builtin")
    p.add_argument("input")
    common(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("dump", help="serialize a builtin algebra as a bundle")
    p.add_argument("input")
    common(p)
    p.set_defaults(fn=cmd_dump)

    p = sub.add_parser("analyze", help="run the extension analysis pipeline")
    p.add_argument("input")
    p.add_argument("--expect-frobenius", type=_bool_flag, default=None)
    p.add_argument("--expect-central", type=_bool_flag, default=None)
    common(p)
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("check-functor", help="diagram suites for the induction functor")
    p.add_argument("input")
    p.add_argument("--module", action="append", default=[])
    p.add_argument("--frobenius-monoidal", action="store_true")
    p.add_argument("--braided", action="store_true")
    p.add_argument("--separable", action="store_true")
    common(p)
    p.set_defaults(fn=cmd_check_functor)

    p = sub.add_parser("frob-objects", help="build/push Frobenius objects and test rigidity")
    p.add_argument("input")
    p.add_argument("--object", action="append", default=[])
    p.add_argument("--separable-normalized", action="store_true")
    common(p)
    p.set_defaults(fn=cmd_frob_objects)

    p = sub.add_parser("scan-sl2", help="unimodularity scan over small quantum sl2 subalgebras")
    p.add_argument("--l", default="5")
    common(p)
    p.set_defaults(fn=cmd_scan_sl2)

    p = sub.add_parser("cartan-check", help="row-sum scan over finite-type Cartan matrices")
    p.add_argument("--types", default="A1,A2,A3,A4,B2,B3,B4,C3,C4,D4,G2")
    p.add_argument("--l", default="5,7,9")
    common(p)
    p.set_defaults(fn=cmd_cartan_check)
    return ap


def _bool_flag(text):
    if text.lower() in ("1", "true", "yes"):
        return True
    if text.lower() in ("0", "false", "no"):
        return False
    raise argparse.ArgumentTypeError("expected true/false")


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except BundleParseError as e:
        sys.stderr.write("input error: %s\n" % e)
        return 2
    except HopfkitError as e:
        sys.stderr.write("error: %s\n" % e)
        return 1


if __name__ == "__main__":
    sys.exit(main())
