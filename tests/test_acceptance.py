"""Acceptance suite: one test per criterion, exact tolerances, timed.

Criterion 4 is asserted exactly as stated and is expected to fail on a subset
of the twelve parameter points; the machine-verified facts behind the failure
are asserted by the regression suites (see test_frob_objects.py) and the
analysis is recorded in the reviewer notes.
"""

import time
from fractions import Fraction

import hopfkit._kernel as K
from conftest import (alpha_criterion, bicomodule_on_every_basis_element, chi_is_alpha_convolution,
                      criterion_09_registry, dense_frobenius, h8_v1, h8_v2, kchar, kline,
                      proportion, record_criterion, uqsl2_sub)
from hopfkit.builders import (
    cartan_matrix,
    cartan_row_sum_witness,
    cyclic_table,
    drinfeld_double,
    group_algebra,
    klein_table,
    unimodularity_scan_sl2,
)
from hopfkit.exact_math import Cyclotomic, Matrix, root_of_unity
from hopfkit.extension import (
    analyze_extension,
    bar_quotient,
    fms_lambda_construction,
    is_central_extension,
    is_frobenius_extension,
    is_normal_subalgebra,
    lift_bar_functional,
    rescale_frobenius_data,
    right_integral_bar_dual,
)
from hopfkit.frob_objects import (
    build_group_etale,
    direct_b_algebra,
    frob_objects_equal,
    is_rigid_frobenius,
    is_special,
    push_frobenius,
    trivial_frobenius,
    verify_frobenius_object,
)
from hopfkit.hopf_core import (
    integral_space,
    is_dual_unimodular,
    is_unimodular,
    verify_hopf,
)
from hopfkit.induction import (
    induce,
    is_separable_functor,
    lax_pair,
    oplax_pair,
    projection_morphisms,
    verify_frobenius_monoidal,
)
from hopfkit.module_theory import direct_sum, is_isomorphic, trivial_module
from hopfkit.yetter_drinfeld import verify_braided_frobenius, verify_yd


def test_criterion_01_h8_trace_and_dual_bases(h8, h8_incl):
    t0 = time.monotonic()
    ana = analyze_extension(h8_incl)
    fr = ana.frob
    tr_K, deltas = dense_frobenius(fr)
    ctx = h8_incl.ctx
    # tr(1) = 2, tr(z) = 0
    assert tr_K.col_raw(0) == [K.s_from_ratio(ctx, 2)] + [K.s_zero(ctx)] * 3
    assert all(K.s_is_zero(v) for v in tr_K.col_raw(3))
    # free basis {1, z}
    assert [h8.basis_labels[i] for i in fr.free] == ["1", "z"]
    # delta_1 = 1/2, delta_2 = (1+x+y-xy)z/4 = (z + xz + yz - xyz)/4
    d1 = [Cyclotomic(h8_incl.N, v) for v in deltas[0]]
    assert d1[0] == Fraction(1, 2) and all(v.is_zero() for v in d1[1:])
    d2 = {h8.basis_labels[i]: Cyclotomic(h8_incl.N, v) for i, v in enumerate(deltas[1])
          if not Cyclotomic(h8_incl.N, v).is_zero()}
    assert d2 == {"z": Fraction(1, 4), "xz": Fraction(1, 4), "yz": Fraction(1, 4),
                  "xyz": Fraction(-1, 4)}
    # both dual-basis identities were verified for all 8 basis elements during
    # construction (make_frobenius_data re-runs the exhaustive check)
    elapsed = time.monotonic() - t0
    record_criterion(1, True, "%.2fs" % elapsed)
    assert elapsed < 1.0


def test_criterion_02_h8_decomposition_list(h8, h8_frob):
    t0 = time.monotonic()
    i = root_of_unity(4)
    Kk = h8_frob.incl.K
    pairs = [
        ((1, 1), direct_sum(h8_v1(h8, 1), h8_v1(h8, -1))),
        ((1, -1), h8_v2(h8)),
        ((-1, 1), h8_v2(h8)),
        ((-1, -1), direct_sum(h8_v1(h8, i), h8_v1(h8, -i))),
    ]
    for sig, target in pairs:
        ind = induce(h8_frob, kchar(Kk, *sig))
        iso = is_isomorphic(ind, target)
        assert iso.status == "iso", sig
        assert iso.map.is_invertible() and iso.map.intertwines()
    elapsed = time.monotonic() - t0
    record_criterion(2, True, "%.2fs" % elapsed)
    assert elapsed < 1.0


def test_criterion_03_h8_braided_frobenius_suite(h8_frob):
    t0 = time.monotonic()
    Kk = h8_frob.incl.K
    simples = [kline(Kk, "1", ex, ey) for ex in (1, -1) for ey in (1, -1)]
    for m in simples:
        assert verify_yd(m).ok
    for a in simples:
        for b in simples:
            for c in simples:
                assert verify_frobenius_monoidal(h8_frob, a, b, c).ok
    for a in simples:
        for b in simples:
            assert verify_braided_frobenius(h8_frob, a, b).ok
    pairs = [(a, b) for a in simples for b in simples]
    sep = is_separable_functor(h8_frob, pairs)
    assert sep["separable"] is True
    # the witness: lax o oplax = id at the normalization lambda / scalar
    r = rescale_frobenius_data(h8_frob, 1 / sep["scalar"])
    assert all((lax_pair(r, V, U) * oplax_pair(r, V, U)).is_identity() for V, U in pairs)
    assert str(sep["scalar"]) == "2"
    elapsed = time.monotonic() - t0
    record_criterion(3, True, "%.2fs" % elapsed)
    assert elapsed < 10.0


def test_criterion_04_twelve_rigid_frobenius_algebras(h8_frob):
    """Asserted exactly as stated; fails on machine-verified counterexamples.

    With the strictly separable normalization (the one the specialness
    computation presupposes via lax o oplax = id):
      - push equals the structure-table constructor on 9 of 12 points; at the
        three (ex, ey) = (-1, -1) points the published z-block multiplication
        differs by a sign from the transported product.
      - commutativity holds for exactly the six points whose graded line
        pairs trivially with its own degree; the other six are not
        commutative for the stated braiding.
      - the special scalars are (2, 2) (they rescale as (2c, 2/c) with the
        Frobenius-morphism normalization c; (2, 1) is not attained by any c).
    See notes/decisions.md for the full analysis.
    """
    t0 = time.monotonic()
    Kk = h8_frob.incl.K
    half = rescale_frobenius_data(h8_frob, Fraction(1, 2))
    failures = []
    for n in ("x", "y", "xy"):
        for ex in (1, -1):
            for ey in (1, -1):
                A = build_group_etale(Kk, n, ex, ey)
                B = push_frobenius(half, A)
                B2 = direct_b_algebra(half, n, ex, ey)
                if not frob_objects_equal(B, B2):
                    failures.append("push != direct tables at (%s,%d,%d)" % (n, ex, ey))
                rig = is_rigid_frobenius(B)
                if not rig.ok:
                    bad = ",".join(c.name for c in rig.failures())
                    failures.append("not rigid at (%s,%d,%d): %s" % (n, ex, ey, bad))
                sp = is_special(B)
                if sp != (2, 1):
                    failures.append(
                        "special scalars at (%s,%d,%d) are %s, stated (2, 1)"
                        % (n, ex, ey, None if sp is None else "(%s, %s)" % sp)
                    )
    elapsed = time.monotonic() - t0
    ok = not failures
    record_criterion(4, ok, "%d stated sub-claims contradicted; see decisions ledger" % len(failures) if failures else "")
    assert elapsed < 30.0
    assert ok, (
        "criterion 4 as stated is contradicted by the exact computation:\n  "
        + "\n  ".join(failures)
        + "\nMachine-verified facts: all twelve push cleanly, are special with "
        "scalars (2,2) at the separable normalization ((4,1) at the canonical "
        "one), and are connected; exactly the six bosonic parameter points are "
        "commutative; the three (-1,-1) structure tables differ by one sign. "
        "See notes/decisions.md."
    )


def test_criterion_05_zone_h_example(h8_frob):
    t0 = time.monotonic()
    A = push_frobenius(h8_frob, trivial_frobenius(h8_frob.incl.K))
    assert verify_frobenius_object(A).ok
    # unit = (1 + z)/2 x 1 identifies the basis (1_A, a)
    assert [str(A.unit.entry(i, 0)) for i in range(2)] == ["1/2", "1/2"]
    P = Matrix.from_rows([[Fraction(1, 2), Fraction(1, 2)], [Fraction(1, 2), Fraction(-1, 2)]])
    Pinv = P.inverse()
    com = P.kron(P).inverse() * A.comult * P
    cou = A.counit * P
    # Delta(1) = 1x1 + axa, Delta(a) = 1xa + ax1
    assert [str(com.entry(r, 0)) for r in range(4)] == ["1", "0", "0", "1"]
    assert [str(com.entry(r, 1)) for r in range(4)] == ["0", "1", "1", "0"]
    # eps(1) = 1, eps(a) = 0
    assert str(cou.entry(0, 0)) == "1" and cou.entry(0, 1).is_zero()
    # z.a = -a, x.a = y.a = a
    zact = Pinv * A.carrier.action[3] * P
    assert zact == Matrix.from_rows([[1, 0], [0, -1]])
    for g in (1, 2):  # x, y
        act = Pinv * A.carrier.action[g] * P
        assert act == Matrix.identity(2)
    # trivial coaction
    ca = A.carrier.coaction
    for r in range(ca.rows):
        for c in range(2):
            v = ca.entry(r, c)
            if r // 2 == 0:
                assert v == (1 if r % 2 == c else 0)
            else:
                assert v.is_zero()
    elapsed = time.monotonic() - t0
    record_criterion(5, True, "%.2fs" % elapsed)
    assert elapsed < 1.0


def _criterion_06_for(uq, l, budget):
    u = uq
    assert verify_hopf(u).ok
    assert is_unimodular(u)
    cart = uqsl2_sub(uq, "cartan")
    bq = bar_quotient(cart)
    lam = right_integral_bar_dual(bq)
    # lambda(f^j e^i) = delta_{i,l-1} delta_{j,l-1} up to scale: the deterministic
    # representative is exactly the indicator of the top monomial
    top = None
    for t in range(bq.dim):
        val = Cyclotomic(bq.N, lam[t])
        rep = bq.reps[t]
        j, i = rep // (l * l), rep % l
        if (j, i) == (l - 1, l - 1):
            top = val
            assert not val.is_zero()
        else:
            assert val.is_zero(), (j, i)
    assert top == 1
    dec = is_frobenius_extension(cart)
    assert dec.frobenius
    assert not is_normal_subalgebra(cart)
    assert is_central_extension(cart) is False
    assert is_dual_unimodular(bq)
    return cart


def test_criterion_06_small_quantum_sl2(uq3, uq5):
    t0 = time.monotonic()
    _criterion_06_for(uq3, 3, 10.0)
    t3 = time.monotonic() - t0
    assert t3 < 10.0, "l=3 took %.1fs" % t3

    t0 = time.monotonic()
    _criterion_06_for(uq5, 5, 300.0)
    # Borel inclusions at l = 5 are not Frobenius extensions
    for bincl in (uqsl2_sub(uq5, "borel+"), uqsl2_sub(uq5, "borel-")):
        assert not is_frobenius_extension(bincl).frobenius
    # the unimodularity scan matches the subalgebra classification
    for row in unimodularity_scan_sl2(5):
        assert row["unimodular"] == row["expected"], row
    t5 = time.monotonic() - t0
    record_criterion(6, True, "l=3 %.1fs, l=5 %.1fs" % (t3, t5))
    assert t5 < 300.0, "l=5 took %.1fs" % t5


def test_criterion_07_drinfeld_doubles(h8_incl):
    t0 = time.monotonic()
    for table, labels, name in (
        (cyclic_table(2), None, "kC2"),
        (klein_table(), ["1", "x", "y", "xy"], "kK"),
    ):
        H = group_algebra(table, name=name, labels=labels)
        D, incl = drinfeld_double(H)
        assert verify_hopf(D).ok
        ana = analyze_extension(incl)
        assert ana.decision.frobenius
        assert ana.central is True
        # both projection pairs are mutually inverse
        W = induce(ana.frob, trivial_module(H))
        V = trivial_module(H)
        pm = projection_morphisms(ana.frob, W, V)
        assert pm.report.ok, pm.report.failures()
        assert pm.report["lproj-pair-mutually-inverse"].status == "pass"
        assert pm.report["rproj-pair-mutually-inverse"].status == "pass"
        # lambda_Drin(f x h) = eps(h) f(Lambda_H) for a left integral of H, up to scale
        lamH = lift_bar_functional(bar_quotient(incl))
        LamH = integral_space(H, "left")[0].lift(incl.N)
        n = H.dim
        vals = []
        for c in range(n):
            for d in range(n):
                vals.append(
                    K.s_mul(incl.ctx, LamH.raw()[c][0], H.lifted(incl.N).counit[d])
                )
        ratio = proportion(incl.ctx, lamH, vals)
        assert ratio is not None and not K.s_is_zero(ratio)
    elapsed = time.monotonic() - t0
    record_criterion(7, True, "%.2fs" % elapsed)
    assert elapsed < 30.0


def test_criterion_08_taft_negative_control(taft3):
    t0 = time.monotonic()
    T, incl = taft3
    dec = is_frobenius_extension(incl)
    assert dec.frobenius is False
    # the two criteria agree
    assert dec.chi != incl.K.counit  # chi != eps_K
    assert not alpha_criterion(incl)  # alpha mismatch
    elapsed = time.monotonic() - t0
    record_criterion(8, True, "%.2fs" % elapsed)
    assert elapsed < 1.0


def test_criterion_09_cross_consistency(h8_incl, taft3, uq3, uq5):
    t0 = time.monotonic()
    registry = criterion_09_registry(h8_incl, taft3, uq3, uq5)

    for name, incl in registry:
        bq = bar_quotient(incl)
        # (chi = eps) <=> (alpha_H|_K = alpha_K), plus the convolution identity
        # chi = (alpha_H|_K) * (alpha_K o S_K), both theorems of FMS
        dec = is_frobenius_extension(incl)
        chi_criterion = dec.chi == incl.K.counit
        assert dec.frobenius == chi_criterion == alpha_criterion(incl), name
        assert chi_is_alpha_convolution(incl, dec.chi), name
        # FMS lambda' construction is proportional to the solver lambda, nonzero
        lamH = lift_bar_functional(bq)
        ratio = proportion(incl.ctx, fms_lambda_construction(incl), lamH)
        assert ratio is not None and not K.s_is_zero(ratio), name
        # central => bar-dual unimodular
        if dec.frobenius:
            central = is_central_extension(incl)
            if central:
                assert is_dual_unimodular(bq), name
            # (H* and K* unimodular and Frobenius) => central
            if is_dual_unimodular(incl.H) and is_dual_unimodular(incl.K):
                assert central, name
    elapsed = time.monotonic() - t0
    record_criterion(9, True, "%d inclusions, %.1fs" % (len(registry), elapsed))
    assert elapsed < 120.0


def test_criterion_10_cartan_row_sums():
    t0 = time.monotonic()
    types = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("B", 4),
             ("C", 3), ("C", 4), ("D", 4), ("G", 2)]
    for label, rank in types:
        for l in (5, 7, 9):
            # part i holds iff the witness is (), part ii iff there is one
            witness = cartan_row_sum_witness(cartan_matrix(label, rank), l)
            assert witness != (), (label, rank, l)
            assert witness is None, (label, rank, l)
    # the l = 3 exception is found for A2 with opposite signs
    witness = cartan_row_sum_witness(cartan_matrix("A", 2), 3)
    assert witness is not None and witness in ((0,), (1,))
    elapsed = time.monotonic() - t0
    record_criterion(10, True, "%.2fs" % elapsed)
    assert elapsed < 10.0


def test_criterion_11_scale_robustness(h8, h8_incl, h8_frob):
    t0 = time.monotonic()
    ana1 = analyze_extension(h8_incl)
    frob7 = rescale_frobenius_data(ana1.frob, Cyclotomic.promote(7))
    # criterion 1 data transforms by the forced scalars ...
    assert dense_frobenius(frob7)[0] == dense_frobenius(ana1.frob)[0].scale(7)
    assert Cyclotomic(h8_incl.N, frob7.deltas[0][0]) == Fraction(1, 14)
    # ... and the bicomodule identity still decides centrality (invariant
    # under the rescale)
    assert bicomodule_on_every_basis_element(h8_incl, frob7.tr) == ana1.central

    # criterion 2 outcomes unchanged
    i = root_of_unity(4)
    Kk = h8_incl.K
    assert is_isomorphic(induce(frob7, kchar(Kk, 1, -1)), h8_v2(h8)).status == "iso"
    assert (
        is_isomorphic(
            induce(frob7, kchar(Kk, -1, -1)), direct_sum(h8_v1(h8, i), h8_v1(h8, -i))
        ).status
        == "iso"
    )

    # criterion 3 booleans unchanged; lax rescales by exactly 7
    simples = [kline(Kk, "1", ex, ey) for ex in (1, -1) for ey in (1, -1)]
    for a in simples:
        for b in simples:
            for c in simples:
                assert verify_frobenius_monoidal(frob7, a, b, c).ok
    for a in simples[:2]:
        for b in simples[:2]:
            assert verify_braided_frobenius(frob7, a, b).ok
    sep7 = is_separable_functor(frob7, [(a, b) for a in simples for b in simples])
    sep1 = is_separable_functor(h8_frob, [(a, b) for a in simples for b in simples])
    assert sep7["separable"] == sep1["separable"] is True
    assert str(sep7["scalar"]) == "14"  # the forced scalar
    assert lax_pair(frob7, simples[0], simples[0]) == lax_pair(h8_frob, simples[0], simples[0]).scale(7)
    elapsed = time.monotonic() - t0
    record_criterion(11, True, "%.1fs" % elapsed)
    assert elapsed < 30.0
