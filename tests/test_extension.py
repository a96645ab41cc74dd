import copy
import hashlib
from fractions import Fraction

import pytest

import hopfkit._kernel as K
from conftest import (alpha_criterion, bicomodule_on_every_basis_element,
                      criterion_09_registry, dense_frobenius, hkplus_over_a_kplus_basis,
                      integral_type_over_all_of_h, key_parts, proportion)
from hopfkit.builders import cyclic_table, group_algebra, taft, trivial_hopf
from hopfkit.errors import HopfkitError
from hopfkit.exact_math import Cyclotomic, Matrix, RowSpace, _add, _apply, _axpy, _dot, _scale
from hopfkit.extension import (
    BarQuotient,
    HopfInclusion,
    analyze_extension,
    bar_quotient,
    check_integral_type,
    dual_bases,
    fms_lambda_construction,
    free_basis,
    is_central_extension,
    is_frobenius_extension,
    is_normal_subalgebra,
    lift_bar_functional,
    make_frobenius_data,
    relative_modular_function,
    rescale_frobenius_data,
    right_integral_bar_dual,
    trivial_inclusion,
    unit_inclusion,
    verify_inclusion,
)
from hopfkit.hopf_core import (
    is_dual_unimodular,
    right_integral_of_dual,
    subhopf_from_basis,
    verify_hopf,
)


def test_verify_inclusion_h8(h8_incl):
    assert verify_inclusion(h8_incl).ok


def test_verify_trivial_inclusion(h8):
    assert verify_inclusion(trivial_inclusion(h8)).ok


def test_bad_inclusion_generator_to_z(h8):
    # kC2 -> H8 sending the generator to z is not a Hopf map (z not grouplike)
    C2 = group_algebra(cyclic_table(2), name="kC2")
    embed = Matrix.from_rows(
        [[1 if (i, b) == (0, 0) else (1 if (i, b) == (3, 1) else 0) for b in range(2)] for i in range(8)]
    )
    incl = HopfInclusion(C2, h8, embed)
    rep = verify_inclusion(incl)
    assert not rep.ok
    names = {c.name for c in rep.failures()}
    assert "mult-intertwines" in names or "comult-intertwines" in names


def test_bar_quotient_h8(h8, h8_incl):
    bq = bar_quotient(h8_incl)
    assert bq.dim == 2
    assert [h8.basis_labels[i] for i in bq.reps] == ["1", "z"]
    # both cosets are grouplike in Hbar
    for t in range(2):
        assert dict(bq.comult[t]) == {t * 2 + t: K.s_one(h8_incl.ctx)}


def test_bar_quotient_trivial_case(h8):
    bq = bar_quotient(trivial_inclusion(h8))
    assert bq.dim == 1


def _reference_dual_integrals(C):
    """Basis of the lambda with lambda(c_(1)) c_(2) = lambda(c) 1 for every
    basis c of the coalgebra C, by Gauss-Jordan elimination over Cyclotomic,
    each vector scaled to 1 at its first nonzero entry."""
    d, N = C.dim, C.N
    zero = Cyclotomic.rational(0, N)
    # one equation per (basis c_i, coordinate k), one unknown per lambda_j
    eqs = []
    for i in range(d):
        rows = [[zero] * d for _ in range(d)]
        for x, s in C.comult[i]:
            j, k = divmod(x, d)
            rows[k][j] = rows[k][j] + Cyclotomic(N, s)
        for k in range(d):
            rows[k][i] = rows[k][i] - Cyclotomic(N, C.unit[k])
        eqs.extend(rows)
    pivots = []
    for col in range(d):
        top = len(pivots)
        p = next((r for r in range(top, len(eqs)) if not eqs[r][col].is_zero()), None)
        if p is None:
            continue
        eqs[top], eqs[p] = eqs[p], eqs[top]
        inv = eqs[top][col].inverse()
        eqs[top] = [v * inv for v in eqs[top]]
        for r in range(len(eqs)):
            f = eqs[r][col]
            if r != top and not f.is_zero():
                eqs[r] = [a - f * b for a, b in zip(eqs[r], eqs[top])]
        pivots.append(col)
    basis = []
    for free in range(d):
        if free in pivots:
            continue
        vec = [zero] * d
        vec[free] = Cyclotomic.rational(1, N)
        for r, piv in enumerate(pivots):
            vec[piv] = -eqs[r][free]
        first = next(v for v in vec if not v.is_zero())
        basis.append([v / first for v in vec])
    return basis


def _reference_symmetric(C, lam):
    """lam(c_(1)) c_(2) == c_(1) lam(c_(2)) for every basis c, over Cyclotomic."""
    d, N = C.dim, C.N
    for i in range(d):
        left = [Cyclotomic.rational(0, N)] * d
        right = list(left)
        for x, s in C.comult[i]:
            j, k = divmod(x, d)
            left[k] = left[k] + lam[j] * Cyclotomic(N, s)
            right[j] = right[j] + lam[k] * Cyclotomic(N, s)
        if left != right:
            return False
    return True


def test_bar_dual_integral_matches_a_reference_solve(h8_incl, taft3, uq3, uq5):
    # every criterion-9 quotient has a symmetric integral; over k < T3 the
    # quotient is T3 itself, whose dual is not unimodular
    registry = criterion_09_registry(h8_incl, taft3, uq3, uq5)
    registry.append(("k<T3", unit_inclusion(taft3[0], trivial_hopf())))
    seen = set()
    for name, incl in registry:
        bq = bar_quotient(incl)
        ref = _reference_dual_integrals(bq)
        assert len(ref) == 1, name
        lam = right_integral_of_dual(bq)
        assert [Cyclotomic(bq.N, v) for v in lam] == ref[0], name
        unimodular = is_dual_unimodular(bq)
        assert unimodular == _reference_symmetric(bq, ref[0]), name
        seen.add(unimodular)
    assert seen == {True, False}


def test_h8_lambda(h8_incl):
    bq = bar_quotient(h8_incl)
    lam = right_integral_bar_dual(bq)
    # representative normalized to lambda(bar 1) = 1; canonical scale is fixed later
    assert lam[0] == K.s_one(bq.ctx) and K.s_is_zero(lam[1])


def test_h8_chi_trivial_and_frobenius(h8_incl):
    chi = relative_modular_function(h8_incl)
    assert chi == h8_incl.K.counit
    dec = is_frobenius_extension(h8_incl)
    assert dec.frobenius and dec.chi == chi and alpha_criterion(h8_incl)


def test_h8_integral_type(h8_incl):
    bq = bar_quotient(h8_incl)
    Lam = check_integral_type(h8_incl)
    assert Lam is not None
    # oracle: lambda(bar(Lambda h)) = eps(h) for all basis h
    H = h8_incl.H
    lamH = lift_bar_functional(bq)
    lam_raw = Lam.raw()
    lvec = {i: lam_raw[i][0] for i in range(H.dim) if not K.s_is_zero(lam_raw[i][0])}
    for j in range(H.dim):
        assert _dot(H.ctx, lamH, H.mult_vec(lvec, H.basis_vec(j))) == H.counit[j]


def test_h8_free_basis_and_dual_bases(h8, h8_incl):
    free, _ = free_basis(h8_incl)
    assert [h8.basis_labels[i] for i in free] == ["1", "z"]
    ana = analyze_extension(h8_incl)
    fr = ana.frob
    tr_K, deltas = dense_frobenius(fr)
    # canonical normalization: lambda = 2 delta_1 in the paper's coordinates
    assert fr.lam[0] == K.s_from_ratio(h8_incl.ctx, 2) and K.s_is_zero(fr.lam[1])
    # tr(1) = 2, tr(z) = 0
    assert tr_K.col_raw(0) == [K.s_from_ratio(h8_incl.ctx, 2)] + [K.s_zero(h8_incl.ctx)] * 3
    assert all(K.s_is_zero(v) for v in tr_K.col_raw(3))
    # delta_1 = 1/2, delta_2 = (z + xz + yz - xyz)/4
    d1 = [Cyclotomic(h8_incl.N, v) for v in deltas[0]]
    assert d1[0] == Fraction(1, 2) and all(v.is_zero() for v in d1[1:])
    d2 = {h8.basis_labels[i]: Cyclotomic(h8_incl.N, v) for i, v in enumerate(deltas[1])}
    expect = {"z": Fraction(1, 4), "xz": Fraction(1, 4), "yz": Fraction(1, 4), "xyz": Fraction(-1, 4)}
    for lbl, v in d2.items():
        assert v == expect.get(lbl, 0), (lbl, str(v))


def test_trivial_inclusion_data(h8):
    ana = analyze_extension(trivial_inclusion(h8))
    assert ana.decision.frobenius
    tr_K, deltas = dense_frobenius(ana.frob)
    assert tr_K == Matrix.identity(8)
    assert ana.frob.free == [0]
    assert [Cyclotomic(ana.incl.N, v) for v in deltas[0]][0] == 1
    assert ana.central is True


def test_unit_inclusion_tr_is_dual_integral(h8):
    incl = unit_inclusion(h8, trivial_hopf())
    ana = analyze_extension(incl)
    assert ana.decision.frobenius
    # tr: H8 -> k is the right integral of H8* up to the canonical scale
    lam_dual = right_integral_of_dual(h8)
    c = proportion(incl.ctx, dense_frobenius(ana.frob)[0].raw()[0], lam_dual)
    assert c is not None and not K.s_is_zero(c)


def test_analyze_stops_at_an_inclusion_that_is_no_hopf_map(h8_incl):
    # the second basis vector of K sent to twice its image: the analysis
    # reports the inclusion's checks only and decides nothing, which the
    # command line's analyze reads as decision None
    ctx = h8_incl.ctx
    two = K.s_from_ratio(ctx, 2)
    rows = [[K.s_mul(ctx, two, x) if j == 1 else x for j, x in enumerate(row)]
            for row in h8_incl.embed.raw()]
    incl = HopfInclusion(h8_incl.K, h8_incl.H, Matrix(h8_incl.N, rows))
    assert not verify_inclusion(incl).ok
    ana = analyze_extension(incl)
    names = [c.name for c in ana.report.checks]
    assert names == ["inclusion/" + c.name for c in verify_inclusion(incl).checks]
    assert not ana.report.ok
    assert ana.decision is None and ana.frob is None and ana.central is None


def test_h8_centrality_and_normality(h8_incl):
    ana = analyze_extension(h8_incl)
    assert ana.central is True
    assert ana.normal is True
    assert ana.bar_dual_unimodular is True


def test_central_agrees_with_bicomodule_criterion(h8_incl):
    # the lambda symmetry and the bicomodule identity of tr are equivalent
    assert is_central_extension(h8_incl) is True
    assert bicomodule_on_every_basis_element(h8_incl, make_frobenius_data(h8_incl).tr) is True


def test_taft_not_frobenius(taft3):
    T, incl = taft3
    bq = bar_quotient(incl)
    assert bq.dim == 3
    dec = is_frobenius_extension(incl)
    assert not dec.frobenius
    assert not alpha_criterion(incl)
    # chi is an algebra map but differs from the counit
    assert dec.chi != incl.K.counit
    # integral-type element exists even though Frobenius fails
    assert check_integral_type(incl) is not None


def test_sweedler_t2():
    T, incl = taft(2)
    assert verify_hopf(T).ok
    assert T.dim == 4
    dec = is_frobenius_extension(incl)
    assert not dec.frobenius


def test_free_basis_divisibility_error(h8):
    # span{1, x, z} is not a subalgebra, so build a 3-dim "K" artificially: use kC3 into H8? dims 3 and 8
    C3 = group_algebra(cyclic_table(3), name="kC3")
    embed = Matrix.zeros(8, 3)
    with pytest.raises(HopfkitError):
        # 8 not divisible by 3
        free_basis(HopfInclusion(C3, h8, embed))


def test_fms_lambda_proportional(h8_incl, taft3):
    for incl in (h8_incl, taft3[1]):
        bq = bar_quotient(incl)
        lamH = lift_bar_functional(bq)
        lamp = fms_lambda_construction(incl)
        c = proportion(incl.ctx, lamp, lamH)
        assert c is not None and not K.s_is_zero(c)


def test_klein_subgroup_inclusion(h8):
    # C2 = <x> inside the Klein four group algebra: group case, central Frobenius
    KG = group_algebra([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]], name="kK",
                       labels=["1", "x", "y", "xy"])
    sub, embed = subhopf_from_basis(KG, [0, 1], name="kC2")
    incl = HopfInclusion(sub, KG, embed)
    ana = analyze_extension(incl)
    assert ana.decision.frobenius
    assert ana.central is True
    assert ana.normal is True
    # group-algebra tr: projection onto the subgroup, times the canonical scale
    r = ana.frob.rank
    assert r == 2


def test_scale_seven(h8_incl):
    ana1 = analyze_extension(h8_incl)
    scaled = rescale_frobenius_data(make_frobenius_data(h8_incl), Cyclotomic.promote(7))
    assert scaled.lam[0] == K.s_from_ratio(h8_incl.ctx, 14)
    assert dense_frobenius(scaled)[0] == dense_frobenius(ana1.frob)[0].scale(7)
    d1 = Cyclotomic(h8_incl.N, scaled.deltas[0][0])
    assert d1 == Fraction(1, 14)
    # booleans unchanged
    assert bicomodule_on_every_basis_element(h8_incl, scaled.tr) == ana1.central
    assert is_frobenius_extension(h8_incl).frobenius == ana1.decision.frobenius


# sha256 of repr((tr_K.key(), deltas)), each raw scalar read as its canonical
# tuple, for each scale in 1, 7, 1/2, recorded
# while make_frobenius_data verified the dual bases after its own rescale and
# FrobeniusData held tr_K as a Matrix and the delta_i as dense lists
FROBENIUS_DATA_PINS = [
    ("builtin:h8", [
        "31768c23e404ef07d113522759ff99061d76725d1ac28a202c0b715c3d8c5914",
        "deb65719363c37da5d3ab91680c8622973546087ff57a3f335fc65c503788ab2",
        "ab5f60ddc1f3381e2a346f2fbaa5d87f17ab9b216c18f42d84a461edcfa73738",
    ]),
    ("builtin:double?of=builtin:group?table=c3", [
        "a28637f4de9fe34bcd1df0fd4fc964a1b28c6a0850d543a77edf9b1110dc30a9",
        "fd431bc4e99a6c670e868fa1d510e6ab71c0a65cb190babf1adddff7ae6cb454",
        "49ecadf1b2b4777edc28088a2be0c675fe5f8c7ddb5e0a55d3fb26951eb8a8d7",
    ]),
    ("builtin:uqsl2?l=3&sub=cartan", [
        "13423144a6d668fd0996bae6e9211b2f740e7a04362fefd0fd3157f1f7af7cfd",
        "b2eb695b73487c05b36f575c997c206e8386d8c751f26b5a2b2fabaabee7666a",
        "c2e2d17368e5aae07e098962f34503cf4c65ada3d48f338df0b80b1d091c70e0",
    ]),
]


@pytest.mark.parametrize("spec, digests", FROBENIUS_DATA_PINS, ids=["h8", "dc3", "uqsl2-l3-cartan"])
def test_frobenius_data_is_pinned(spec, digests):
    from hopfkit.cli import resolve_inclusion

    incl = resolve_inclusion(spec)
    got = []
    for scale in (1, 7, Fraction(1, 2)):
        fr = rescale_frobenius_data(make_frobenius_data(incl), Cyclotomic.promote(scale))
        tr_K, deltas = dense_frobenius(fr)
        blob = repr((key_parts(tr_K), [list(map(K.s_parts, d)) for d in deltas])).encode()
        got.append(hashlib.sha256(blob).hexdigest())
    assert got == digests


# sha256 of repr((reps, sorted proj_cols entries, comult, unit)) of the bar
# quotient, recorded while proj_cols came from the dense inverse of the
# coset-representative residues; a name without a scheme is an inclusion of
# the criterion-9 registry
BAR_QUOTIENT_PINS = [
    pytest.param("builtin:h8",
                 "be55870f30f740ad0a59a1e668ee228cdf4ac406f21fb3f5ed96bdfe313e481e", id="h8"),
    pytest.param("builtin:double?of=builtin:group?table=c3",
                 "f227c154780aff3e390afdbe83b2eaa1442d2e46e13897c86a44723a05c113a5", id="dc3"),
    pytest.param("builtin:uqsl2?l=3&sub=cartan",
                 "aafaf4a5b3127c43ccb297d67914a4008bd97aa0a893dec53a636183f14e1f59",
                 id="uqsl2-l3-cartan"),
    pytest.param("builtin:double?of=builtin:h8",
                 "076e1f0e5c882e2bc8e59483195e54ded8432b6a439dfc6bdf9c6e73d0200143", id="dh8"),
    pytest.param("builtin:double?of=builtin:taft?l=3",
                 "c46fdfb2f6ce59cee4354ce41c526a92feb83bfadda48af220cd1132978eb3e3", id="dt3"),
    pytest.param("builtin:taft?l=5",
                 "81da2ff6f9b4b5f9a2369ae8e3a3d9874ef7ea83846e95d615a597410f8a77ad", id="taft5"),
    pytest.param("builtin:taft?l=7",
                 "440b9711e44b2d8213532a99fb98484ff557a41cb7dd562562fe2a94e312ec3d", id="taft7"),
    pytest.param("kK<H8",
                 "be55870f30f740ad0a59a1e668ee228cdf4ac406f21fb3f5ed96bdfe313e481e", id="kK<H8"),
    pytest.param("k<H8",
                 "326a5da261d341a602d075e83498b4dbe752e0b7f6bb0e78a8e30e34605c1617", id="k<H8"),
    pytest.param("H8=H8",
                 "b6b1e63b3aafbd12e0aefba1d51970aa8ffa71010ea87d6a65208cc392ba8886", id="H8=H8"),
    pytest.param("kC2<kK",
                 "aed0db20ca166c0dc902c730231e7d39cf5b38d65c7ec06f9bfa60f1a832d22c", id="kC2<kK"),
    pytest.param("kC3<T3",
                 "14d972c32cfb2af0392b01ad80817f874d6f5ecc9d30f048f492d57047dbb760", id="kC3<T3"),
    pytest.param("kC2<T2",
                 "7ac732dd61fc529a4904afbd3ceb302fdfcfd4a5e693ff8b57474e03e523f6b3", id="kC2<T2"),
    pytest.param("cartan3",
                 "aafaf4a5b3127c43ccb297d67914a4008bd97aa0a893dec53a636183f14e1f59", id="cartan3"),
    pytest.param("borel+3",
                 "afeb6a3fe4ebcf5c60ce6dc6564b6bfde739cae822386359ecb88cb30a8defa7", id="borel+3"),
    pytest.param("borel-3",
                 "a86e1eefdd620440eaf1d6094da9440e7f363ea88acd7143d6c3eda641c2a436", id="borel-3"),
    pytest.param("cartan5",
                 "a1341aa5ae61e7bd84578515fdb480aa7f29836251d401abf53ac85752d39db4", id="cartan5"),
    pytest.param("borel+5",
                 "ab068f9f064878e739c0a3623caaf30e079ec5b96370689cfe3820a9b73a1ecb", id="borel+5"),
    pytest.param("borel-5",
                 "2f9b854a2afdfc45bd9ab877f90c36bdf6e52c81d1ec8a7ff57fe6f8ccb32d11", id="borel-5"),
    pytest.param("kC2<Drin",
                 "e6fc64fd079cccc84bd20f8b672a909a33e0641807261d3faea572374b09ae6c", id="kC2<Drin"),
    pytest.param("kK<Drin",
                 "9025d323f7ce322b5b5ab4ba003b4487103f8b08d7987765ee00c5b2e0b44be2", id="kK<Drin"),
]


@pytest.mark.parametrize("name, digest", BAR_QUOTIENT_PINS)
def test_bar_quotient_is_pinned(name, digest, h8_incl, taft3, uq3, uq5):
    from hopfkit.cli import resolve_inclusion

    if name.startswith("builtin:"):
        incl = resolve_inclusion(name)
    else:
        incl = dict(criterion_09_registry(h8_incl, taft3, uq3, uq5))[name]
    bq = bar_quotient(incl)
    # each raw scalar as its canonical tuple, the form the pins were recorded in
    blob = repr((bq.reps, [[(k, K.s_parts(s)) for k, s in sorted(c.items())] for c in bq.proj_cols],
                 tuple(tuple((x, K.s_parts(s)) for x, s in row) for row in bq.comult),
                 tuple(map(K.s_parts, bq.unit)))).encode()
    assert hashlib.sha256(blob).hexdigest() == digest


def _s3_inclusion():
    """kC2 = k<(0 1)> inside kS3, from a hand-written S3 table."""
    perms = [(0, 1, 2), (1, 0, 2), (0, 2, 1), (2, 1, 0), (1, 2, 0), (2, 0, 1)]
    table = [[perms.index(tuple(p[q[i]] for i in range(3))) for q in perms] for p in perms]
    KG = group_algebra(table, name="kS3", labels=["e", "(01)", "(12)", "(02)", "(012)", "(021)"])
    sub, embed = subhopf_from_basis(KG, [0, 1], name="kC2")
    return HopfInclusion(sub, KG, embed)


def test_non_normal_group_inclusion_is_central_frobenius():
    # kC2 in kS3 is the smallest non-normal group inclusion; its left free
    # basis along declared order was once not right-regular
    incl = _s3_inclusion()
    assert verify_hopf(incl.H).ok
    free, _ = free_basis(incl)
    assert len(free) == 3
    ana = analyze_extension(incl)
    assert ana.report.ok
    assert ana.decision.frobenius
    assert ana.central is True
    assert ana.normal is False


def test_double_of_h8_over_h8_is_central_frobenius():
    from hopfkit.cli import resolve_inclusion

    incl = resolve_inclusion("builtin:double?of=builtin:h8")
    assert free_basis(incl)[0] == [0, 8, 16, 24, 32, 40, 48, 56]
    ana = analyze_extension(incl)
    assert ana.report.ok
    assert ana.decision.frobenius and ana.central is True


LAMBDA_PRODUCT_SPECS = ["builtin:h8", "builtin:taft?l=3", "builtin:uqsl2?l=3&sub=cartan",
                        "builtin:double?of=builtin:group?table=c3"]


@pytest.mark.parametrize("spec", LAMBDA_PRODUCT_SPECS, ids=["h8", "taft3", "uqsl2-l3-cartan", "dc3"])
def test_lambda_products_read_off_the_table(spec):
    from hopfkit.cli import resolve_inclusion
    from hopfkit.extension import _lambda_products

    incl = resolve_inclusion(spec)
    H = incl.H
    bq = bar_quotient(incl)
    lamH = lift_bar_functional(bq)
    got = _lambda_products(H, lamH, range(H.dim), range(H.dim))
    for a in range(H.dim):
        want = [_dot(H.ctx, lamH, H.mult_vec(H.basis_vec(a), H.basis_vec(j))) for j in range(H.dim)]
        z = K.s_zero(H.ctx)
        assert [got[a].get(j, z) for j in range(H.dim)] == want, (spec, a)
        assert all(not K.s_is_zero(v) for v in got[a].values())


@pytest.mark.parametrize("spec", LAMBDA_PRODUCT_SPECS, ids=["h8", "taft3", "uqsl2-l3-cartan", "dc3"])
def test_modular_function_and_integral_type_make_no_products(monkeypatch, spec):
    from hopfkit.cli import resolve_inclusion
    from hopfkit.hopf_core import FinHopf

    incl = resolve_inclusion(spec)
    bar_quotient(incl)  # Hbar is formed from products; it is kept on incl
    calls = []
    real = FinHopf.mult_vec

    def counted(self, u, v):
        calls.append(self.name)
        return real(self, u, v)

    monkeypatch.setattr(FinHopf, "mult_vec", counted)
    chi = relative_modular_function(incl)
    Lambda = check_integral_type(incl)
    assert calls == []
    assert len(chi) == incl.K.dim and Lambda is not None


# builtin inclusions of the CLI catalogue that the criterion-9 registry leaves out
CLI_INCLUSIONS = ["builtin:taft?l=5&q=2", "builtin:double?of=builtin:group?table=c3",
                  "builtin:double?of=builtin:taft?l=2", "builtin:double?of=builtin:h8",
                  "builtin:unit?of=builtin:taft?l=3", "builtin:trivial?of=builtin:taft?l=3"]


def test_lambda_is_one_at_the_first_coset_it_does_not_vanish_on(h8_incl, taft3, uq3, uq5):
    # relative_modular_function reads chi(k) = lambda(bar(k h0)) without dividing by lambda(bar h0)
    from hopfkit.cli import resolve_inclusion

    registry = criterion_09_registry(h8_incl, taft3, uq3, uq5)
    registry += [(spec, resolve_inclusion(spec)) for spec in CLI_INCLUSIONS]
    for name, incl in registry:
        assert verify_inclusion(incl).ok, name
        bq = bar_quotient(incl)
        lamH = lift_bar_functional(bq)
        h0 = next(r for r in bq.reps if not K.s_is_zero(lamH[r]))
        assert lamH[h0] == K.s_one(incl.ctx), name
        chi = relative_modular_function(incl)
        assert chi[0] == K.s_one(incl.ctx), name


# the analyze specs of the benchmark's extension workload, and D(H8)
_DBL = "builtin:double?of=builtin:"
EXTENSION_SPECS = ["builtin:h8", "builtin:unit?of=builtin:h8", "builtin:trivial?of=builtin:h8",
                   "builtin:taft?l=3", "builtin:taft?l=5", "builtin:taft?l=7",
                   "builtin:uqsl2?l=3&sub=cartan", "builtin:uqsl2?l=3&sub=borel-",
                   _DBL + "group?table=c2", _DBL + "group?table=c3", _DBL + "group?table=klein",
                   _DBL + "taft?l=2", _DBL + "taft?l=3", _DBL + "h8"]


def _analyze_check_lines(spec, capsys):
    """Exit code and the check lines of ``analyze spec``: the text report
    without its title and input lines, which name the spec."""
    from hopfkit.cli import main

    code = main(["analyze", spec])
    return code, capsys.readouterr().out.splitlines()[2:]


@pytest.mark.parametrize("spec", EXTENSION_SPECS)
def test_analyze_of_a_builtin_matches_analyze_of_its_bundles(spec, tmp_path, capsys):
    # the same inclusion read from bundle files is verified where it is read,
    # then analyzed exactly as the builtin
    from hopfkit.bundles import serialize_hopf, serialize_inclusion
    from hopfkit.cli import resolve_inclusion

    incl = resolve_inclusion(spec)
    refs = {}
    for key, H in (("sub", incl.K), ("big", incl.H)):
        refs[key] = tmp_path / ("%s.bundle" % key)
        refs[key].write_text(serialize_hopf(H))
    path = tmp_path / "incl.bundle"
    path.write_text(serialize_inclusion(incl, refs["sub"], refs["big"]))
    assert _analyze_check_lines(str(path), capsys) == _analyze_check_lines(spec, capsys)


def _normal_on_every_basis_element(incl):
    """Reference for ``is_normal_subalgebra``: embed(K) is closed under the
    left and right adjoint actions of every basis element of H."""
    H = incl.H
    ctx = incl.ctx
    n = H.dim
    image = incl.image_space()
    for i in range(n):
        for col in incl.embed_cols():
            acc_l, acc_r = {}, {}
            for x, s in H.comult[i]:
                a, c = divmod(x, n)
                for vec, acc in ((H.mult_vec(H.mult_vec(H.basis_vec(a), col),
                                             H.antipode_vec({c: s})), acc_l),
                                 (H.mult_vec(H.mult_vec(H.antipode_vec({a: s}), col),
                                             H.basis_vec(c)), acc_r)):
                    for k, v in vec.items():
                        _add(ctx, acc, k, v)
            if not image.contains(acc_l) or not image.contains(acc_r):
                return False
    return True


def test_normality_on_generators_matches_the_full_scan(h8_incl, taft3, uq3, uq5):
    for name, incl in criterion_09_registry(h8_incl, taft3, uq3, uq5):
        assert is_normal_subalgebra(incl) == _normal_on_every_basis_element(incl), name


@pytest.mark.parametrize("spec", ["builtin:trivial?of=builtin:h8", "builtin:unit?of=builtin:h8"])
def test_k1_and_h_are_normal_without_the_adjoint_closure(spec, monkeypatch):
    # K = H, and K = k1 with ad_h(1) = eps(h)1: analyze prints the same
    # line, and the answer reads no algebra generator of H
    import contextlib
    import io

    import hopfkit.extension as extension
    from hopfkit.cli import main, resolve_inclusion

    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(["analyze", spec]) == 0
    assert "normal-subalgebra                    PASS  [True]  (normality)" in \
        out.getvalue().splitlines()

    def refused(H):
        raise AssertionError("the adjoint closure ran")

    monkeypatch.setattr(extension, "algebra_generators", refused)
    assert is_normal_subalgebra(resolve_inclusion(spec)) is True


def test_bar_quotient_is_built_once_per_inclusion(monkeypatch):
    # Hbar is a function of the inclusion, kept in its cache: the analysis and
    # the induction context of one inclusion share it
    from hopfkit.builders import kac_paljutkin
    from hopfkit.induction import induction_context

    built = []
    real = BarQuotient.__init__

    def counted(self, *args):
        built.append(self)
        real(self, *args)

    monkeypatch.setattr(BarQuotient, "__init__", counted)
    incl = kac_paljutkin()[1]
    analyze_extension(incl)
    induction_context(incl)
    assert len(built) == 1
    assert bar_quotient(incl) is built[0]


def test_hkplus_from_generators_of_k_has_the_rows_of_a_kplus_basis(monkeypatch, h8_incl, taft3,
                                                                   uq3, uq5):
    # bar_quotient spans HK+ by the products h (g - eps(g)1), g in G_K, with
    # the column order reversed; the row space it forms is HK+, and it is the
    # one a basis of K+ gives in the same order
    import hopfkit.extension as extension

    made = []

    class Recorded(RowSpace):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(extension, "RowSpace", Recorded)
    for name, incl in criterion_09_registry(h8_incl, taft3, uq3, uq5):
        made.clear()
        bar_quotient.__wrapped__(incl)
        assert made[0].rows == hkplus_over_a_kplus_basis(incl).rows, name


def _first_bimodule_failure(incl, tr_cols):
    """The error text of the first failure of the K-K-bimodule scan of tr
    over every pair of basis elements of K and H, or None."""
    H, Kk = incl.H, incl.K
    ctx = incl.ctx
    for b in range(Kk.dim):
        col_b = incl.embed_col(b)
        for i in range(H.dim):
            lhs = _apply(ctx, tr_cols, H.mult_vec(col_b, H.basis_vec(i)))
            if lhs != Kk.mult_vec(Kk.basis_vec(b), tr_cols[i]):
                return "tr is not a left K-module map at (%d,%d)" % (b, i)
            lhs = _apply(ctx, tr_cols, H.mult_vec(H.basis_vec(i), col_b))
            if lhs != Kk.mult_vec(tr_cols[i], Kk.basis_vec(b)):
                return "tr is not a right K-module map at (%d,%d)" % (i, b)
    return None


def _bar_coalgebra_failures(bq):
    """The names of the identities of Hbar = H/HK+ that fail, each checked
    in full: the representatives project to the standard basis;
    proj(h k) = eps(k) proj(h) for every basis element h of H and k of K;
    eps = eps_bar o proj for eps_bar(e_t) = eps(r_t); (proj x proj)Delta(h)
    = Delta_bar proj(h) for every h; Delta_bar is coassociative and
    counital on every e_t; and 1bar = proj(1_H) is grouplike."""
    incl = bq.incl
    H, Kk, ctx = incl.H, incl.K, bq.ctx
    n, d = H.dim, bq.dim
    one = K.s_one(ctx)
    eps = [H.counit[r] for r in bq.reps]

    def delta(vec):
        # Delta_bar(vec) as {(a, b): s}
        out = {}
        for t, c in vec.items():
            _axpy(ctx, out, {divmod(x, d): s for x, s in bq.comult[t]}, c)
        return out

    failed = []
    if any(bq.proj_cols[r] != {t: one} for t, r in enumerate(bq.reps)):
        failed.append("proj-surjective")
    if any(bq.proj_vec(H.mult_vec(H.basis_vec(i), incl.embed_col(b)))
           != _scale(ctx, bq.proj_cols[i], Kk.counit[b]) for i in range(n) for b in range(Kk.dim)):
        failed.append("right-K-trivial")
    if any(_dot(ctx, eps, bq.proj_cols[i]) != H.counit[i] for i in range(n)):
        failed.append("counit-factors")
    if any({divmod(x, d): s for x, s in bq.proj_comult(i).items()} != delta(bq.proj_cols[i])
           for i in range(n)):
        failed.append("proj-coalgebra-map")
    for t in range(d):
        left, right, lc, rc = {}, {}, {}, {}
        for (a, b), s in delta({t: one}).items():
            _axpy(ctx, left, {(p, q, b): u for (p, q), u in delta({a: one}).items()}, s)
            _axpy(ctx, right, {(a, p, q): u for (p, q), u in delta({b: one}).items()}, s)
            _axpy(ctx, lc, {b: s}, eps[a])
            _axpy(ctx, rc, {a: s}, eps[b])
        if left != right:
            failed.append("coassociative")
        if not lc == rc == {t: one}:
            failed.append("counital")
    one_bar = bq.proj_vec(H.unit_vec())
    if (one_bar != {t: s for t, s in enumerate(bq.unit) if not K.s_is_zero(s)}
            or _dot(ctx, eps, one_bar) != one
            or delta(one_bar) != {(a, b): K.s_mul(ctx, u, v)
                                  for a, u in one_bar.items() for b, v in one_bar.items()}):
        failed.append("unit-grouplike")
    return failed


def test_bar_quotients_are_coalgebras_by_theorem(h8_incl, taft3, uq3, uq5):
    # bar_quotient checks nothing: for a Hopf subalgebra K, HK+ is a coideal
    # with eps(HK+) = 0, so every identity holds on every catalogue inclusion
    # (notes/decisions.md, "Hbar is a coalgebra by theorem"); a doubled term
    # of Delta_bar, a projection column changed off the representatives and
    # a doubled 1bar are rejected
    names = []
    for name, incl in _registry_and_cli_inclusions(h8_incl, taft3, uq3, uq5):
        names.append(name)
        bq = bar_quotient(incl)
        assert _bar_coalgebra_failures(bq) == [], name
        ctx, t = incl.ctx, bq.dim - 1
        one, two = K.s_one(ctx), K.s_from_ratio(ctx, 2)
        (x, s), *rest = bq.comult[t]
        bad = copy.copy(bq)
        bad.comult = bq.comult[:t] + (((x, K.s_mul(ctx, two, s)), *rest),)
        assert "proj-coalgebra-map" in _bar_coalgebra_failures(bad), name
        i = max((i for i in range(incl.H.dim) if i not in bq.reps), default=None)
        if i is not None:
            cols = list(bq.proj_cols)
            cols[i] = _axpy(ctx, dict(cols[i]), {0: one}, one)
            assert "right-K-trivial" in _bar_coalgebra_failures(BarQuotient(incl, bq.reps, cols)), name
        bad = copy.copy(bq)
        bad.unit = tuple(K.s_mul(ctx, two, s) for s in bq.unit)
        assert _bar_coalgebra_failures(bad) == ["unit-grouplike"], name
    assert {"kK<H8", "cartan5", "borel+5", "borel-5", "builtin:double?of=builtin:h8"} <= set(names)


def test_bar_quotient_runs_no_scan(monkeypatch, h8_incl, taft3, uq3, uq5):
    # building Hbar forms Delta_bar on the representatives and proj(1_H),
    # and runs no scan of the identities that hold by theorem
    import hopfkit.extension as extension

    def refused(*args):
        raise AssertionError("bar_quotient ran a scan")

    seen = {}

    def counted(name):
        real = getattr(BarQuotient, name)

        def spy(self, *args):
            seen[name] = seen.get(name, 0) + 1
            return real(self, *args)
        return spy

    monkeypatch.setattr(extension, "_first_defect", refused)
    monkeypatch.setattr(K, "coassoc_first_defect", refused)
    for name in ("proj_comult", "proj_vec"):
        monkeypatch.setattr(BarQuotient, name, counted(name))
    for name, incl in criterion_09_registry(h8_incl, taft3, uq3, uq5):
        seen.clear()
        bq = bar_quotient.__wrapped__(incl)
        assert seen == {"proj_comult": bq.dim, "proj_vec": 1}, name


# ---------------------------------------------------------------------------
# identities K-linear in h, decided on a K-basis of H, against the full scans
# ---------------------------------------------------------------------------


def _registry_and_cli_inclusions(h8_incl, taft3, uq3, uq5):
    from hopfkit.cli import resolve_inclusion

    registry = criterion_09_registry(h8_incl, taft3, uq3, uq5)
    return registry + [(spec, resolve_inclusion(spec)) for spec in CLI_INCLUSIONS]


def test_integral_type_on_the_representatives_matches_the_full_system(h8_incl, taft3, uq3, uq5):
    found = 0
    for name, incl in _registry_and_cli_inclusions(h8_incl, taft3, uq3, uq5):
        Lambda = check_integral_type(incl)
        assert Lambda == integral_type_over_all_of_h(incl), name
        found += Lambda is not None
    assert found >= 10


def _modular_function_on_every_pair(incl, lamH):
    """Reference for ``relative_modular_function`` with lambda o proj given
    by lamH: chi read at the first representative where lamH is nonzero and
    checked at every pair (k_b, h_i) of basis elements; its values, or the
    text of the first failure."""
    from hopfkit.hopf_core import _assert_algebra_map

    H, ctx = incl.H, incl.ctx
    z = K.s_zero(ctx)
    h0 = next(r for r in bar_quotient(incl).reps if not K.s_is_zero(lamH[r]))
    kh = []
    for col in incl.embed_cols():
        kh.append({i: v for i in range(H.dim)
                   if not K.s_is_zero(v := _dot(ctx, lamH, H.mult_vec(col, H.basis_vec(i))))})
    chi = tuple(row.get(h0, z) for row in kh)
    for b, row in enumerate(kh):
        for i in range(H.dim):
            if row.get(i, z) != K.s_mul(ctx, chi[b], lamH[i]):
                return "no relative modular function: condition fails at (k=%d, h=%d)" % (b, i)
    try:
        _assert_algebra_map(incl.K, chi, "relative modular function")
    except HopfkitError as err:
        return str(err)
    return chi


def _modular_function_outcome(incl):
    try:
        return relative_modular_function(incl)
    except HopfkitError as err:
        return str(err)


def test_modular_function_with_a_perturbed_lambda_names_the_full_scan_pair(monkeypatch, h8_incl,
                                                                          taft3, uq3, uq5):
    # lambda on Hbar with one coset value raised by 1, lifted through proj:
    # the scan on the representatives decides, and a defect is named by the
    # scan over every pair
    import hopfkit.extension as extension

    failed = 0
    for name, incl in criterion_09_registry(h8_incl, taft3, uq3, uq5):
        bq = bar_quotient(incl)
        assert _modular_function_outcome(incl) == \
            _modular_function_on_every_pair(incl, lift_bar_functional(bq)), name
        ctx = incl.ctx
        lam = right_integral_bar_dual(bq)
        for t in range(bq.dim):
            bad = list(lam)
            bad[t] = K.s_add(ctx, bad[t], K.s_one(ctx))
            lamH = tuple(_dot(ctx, bad, col) for col in bq.proj_cols)
            monkeypatch.setattr(extension, "lift_bar_functional", lambda _bq: lamH)
            got = _modular_function_outcome(incl)
            monkeypatch.undo()
            want = _modular_function_on_every_pair(incl, lamH)
            assert got == want, (name, t)
            failed += isinstance(want, str) and want.startswith("no relative")
    assert failed >= 10


def test_modular_function_with_perturbed_table_entries_names_the_full_scan_pair(h8_incl, taft3,
                                                                               uq3, uq5):
    # the entries e_a e_r and e_a e_i of H's table gain a term, for a in the
    # support of embed(K), r the last representative besides h0 and i the
    # first index off the representatives below it: the scan on the
    # representatives sees the defect at r, and the error names the full
    # scan's first pair.  Both scans read H with that table and Hbar as built
    # from the true one.
    moved = 0
    for name, incl in criterion_09_registry(h8_incl, taft3, uq3, uq5):
        H, ctx = incl.H, incl.ctx
        n = H.dim
        bq = bar_quotient(incl)
        lamH = lift_bar_functional(bq)
        h0 = next(r for r in bq.reps if not K.s_is_zero(lamH[r]))
        rs = [r for r in bq.reps if r != h0]
        if not rs:
            continue
        a = max(incl.embed_col(incl.K.dim - 1))
        mult = list(H.mult)
        for i in {rs[-1], min((i for i in range(rs[-1]) if i not in bq.reps), default=rs[-1])}:
            row = dict(mult[a * n + i])
            _add(ctx, row, h0, K.s_one(ctx))
            mult[a * n + i] = tuple(sorted(row.items()))
        badH = copy.copy(H)
        badH._cache = {}
        badH.mult = tuple(mult)
        bad = HopfInclusion(incl.K, badH, incl.embed)
        bad._cache[("bar_quotient",)] = bq
        want = _modular_function_on_every_pair(bad, lamH)
        assert isinstance(want, str), name
        assert _modular_function_outcome(bad) == want, name
        moved += not want.endswith("h=%d)" % rs[-1])
    assert moved >= 3


def _first_comodule_failure(incl, tr_cols):
    """The first basis index i of H where tr(h_(1)) x h_(2) = Delta_K(tr h)
    fails for h = h_i, or None."""
    H, Kk, ctx = incl.H, incl.K, incl.ctx
    n, m = H.dim, Kk.dim
    for i in range(n):
        lhs, rhs = {}, {}
        for x, s in H.comult[i]:
            j, k2 = divmod(x, n)
            for b, c in tr_cols[j].items():
                _add(ctx, lhs, b * n + k2, K.s_mul(ctx, c, s))
        for b, c in tr_cols[i].items():
            for x, s in Kk.comult[b]:
                p, q = divmod(x, m)
                for h, e in incl.embed_col(q).items():
                    _add(ctx, rhs, p * n + h, K.s_mul(ctx, K.s_mul(ctx, c, s), e))
        if lhs != rhs:
            return i
    return None


def _first_reconstruction_failure(incl, tr_cols, free, deltas):
    """The first basis index x of H where h = sum_i tr(h delta_i) h_i or
    h = sum_i delta_i tr(h_i h) fails for h = h_x, or None."""
    H, ctx = incl.H, incl.ctx
    one = K.s_one(ctx)
    for x in range(H.dim):
        ex = H.basis_vec(x)
        left, right = {}, {}
        for t, delta in zip(free, deltas):
            k = _apply(ctx, tr_cols, H.mult_vec(ex, delta))
            _axpy(ctx, left, H.mult_vec(incl.embed_vec(k), H.basis_vec(t)), one)
            k = _apply(ctx, tr_cols, H.mult_vec(H.basis_vec(t), ex))
            _axpy(ctx, right, H.mult_vec(delta, incl.embed_vec(k)), one)
        if left != ex or right != ex:
            return x
    return None


def test_the_frobenius_system_holds_in_full(h8_incl, taft3, uq3, uq5):
    # the package checks chi, that tr lands in K and the rank of the
    # dual-basis system; the rest holds by theorem (notes/decisions.md, "The
    # Frobenius system holds by chi and by rank"), checked here on every
    # basis element: tr is a K-bimodule and right H-comodule map, both
    # dual-basis identities hold, and the bicomodule identity is centrality
    rejected = {"bimodule": 0, "comodule": 0, "bicomodule": 0}
    names = []
    for name, incl in _registry_and_cli_inclusions(h8_incl, taft3, uq3, uq5):
        if not is_frobenius_extension(incl).frobenius:
            continue
        names.append(name)
        ctx = incl.ctx
        frob = make_frobenius_data(incl)
        tr, free, deltas = frob.tr, frob.free, frob.deltas
        central = is_central_extension(incl)
        assert _first_bimodule_failure(incl, tr) is None, name
        assert _first_comodule_failure(incl, tr) is None, name
        assert _first_reconstruction_failure(incl, tr, free, deltas) is None, name
        assert bicomodule_on_every_basis_element(incl, tr) == central, name
        # the last nonzero column of tr doubled, and delta_0 doubled
        two = K.s_from_ratio(ctx, 2)
        j = max(i for i, col in enumerate(tr) if col)
        bad = list(tr)
        bad[j] = _scale(ctx, tr[j], two)
        assert _first_reconstruction_failure(incl, bad, free, deltas) is not None, name
        bad_deltas = [_scale(ctx, deltas[0], two)] + list(deltas[1:])
        assert _first_reconstruction_failure(incl, tr, free, bad_deltas) is not None, name
        rejected["bimodule"] += _first_bimodule_failure(incl, bad) is not None
        rejected["comodule"] += _first_comodule_failure(incl, bad) is not None
        rejected["bicomodule"] += central and not bicomodule_on_every_basis_element(incl, bad)
    assert {"kK<H8", "cartan5", "builtin:double?of=builtin:h8"} <= set(names)
    assert rejected["bimodule"] >= 10 and rejected["comodule"] >= 5
    assert rejected["bicomodule"] >= 5


def test_a_degenerate_tr_makes_the_dual_basis_system_singular(h8):
    # tr projecting onto the coordinate of 1 on K = H: tr(h_0 x) = delta_i0
    # 1_K is solvable, but every x with no 1-coordinate is a null vector
    from hopfkit.errors import PipelineError

    incl = trivial_inclusion(h8)
    free, _ = free_basis(incl)
    assert free == [0] and incl.K.unit_vec() == {0: K.s_one(incl.ctx)}
    tr = [{0: K.s_one(incl.ctx)}] + [{} for _ in range(h8.dim - 1)]
    with pytest.raises(PipelineError, match="^dual-basis system is singular: tr is degenerate$"):
        dual_bases(incl, tr, free)


def test_frobenius_data_is_refused_where_chi_is_not_eps(taft3):
    # the Frobenius system holds by theorem only once chi = eps, so the data
    # of kC3 < T3 is refused at the decision, before tr is formed
    from hopfkit.errors import PipelineError

    incl = taft3[1]
    assert not is_frobenius_extension(incl).frobenius
    with pytest.raises(PipelineError, match="is not a Frobenius extension$"):
        make_frobenius_data(incl)


def test_the_kernel_never_multiplies_by_one(tmp_path, capsys):
    # the kernel alone keeps the rule that no product with the canonical 1 is
    # computed: over the README commands, analyze of the extension specs and
    # verify of two bundles, with the scalar memos emptied so that products
    # are made again, _mul never receives 1, from s_mul or from s_inv
    from unittest import mock

    from conftest import readme_cli_commands
    from hopfkit.bundles import serialize_hopf
    from hopfkit.cli import main, resolve_hopf

    real, calls = K._mul, []

    def spy(ctx, a, b):
        calls.append(ctx[4] in (a, b))
        return real(ctx, a, b)

    bundles = []
    for spec in ("builtin:h8", _DBL + "group?table=c3"):
        path = tmp_path / ("%d.bundle" % len(bundles))
        path.write_text(serialize_hopf(resolve_hopf(spec)))
        bundles.append(["verify", str(path)])
    commands = [t[1:t.index(">")] if ">" in t else t[1:] for t in readme_cli_commands()]
    commands += [["analyze", spec] for spec in EXTENSION_SPECS] + bundles
    K._mul_memo.clear()
    K._inv_memo.clear()
    with mock.patch.object(K, "_mul", spy):
        for args in commands:
            assert main(args) == 0, args
        made = len(calls)
        K._inv_memo.clear()
        ctxs = [K.make_ctx(N) for N in (3, 4, 5, 7, 8, 12)]
        assert all(K.s_inv(ctx, ctx[4]) == ctx[4] for ctx in ctxs) and len(calls) == made
        # zeta has norm 1, so its inverse is the product of its conjugates
        for ctx in ctxs:
            z = K.zeta_power(ctx, 1)
            assert K.s_mul(ctx, K.s_inv(ctx, z), z) == ctx[4]
    capsys.readouterr()
    assert made and not any(calls)


def test_analyze_never_computes_a_distinguished_grouplike(monkeypatch, h8_incl, taft3, uq3, uq5):
    # the Frobenius decision reads chi alone; alpha_H|_K = alpha_K is the
    # theorem of Fischman-Montgomery-Schneider, and only tests compute alpha
    import sys

    def refused(H):
        raise AssertionError("distinguished_grouplike ran")

    for name, mod in list(sys.modules.items()):
        if name.startswith("hopfkit") and hasattr(mod, "distinguished_grouplike"):
            monkeypatch.setattr(mod, "distinguished_grouplike", refused)
    for name, incl in _registry_and_cli_inclusions(h8_incl, taft3, uq3, uq5):
        assert analyze_extension(incl).decision is not None, name


def _first_mult_failure(incl):
    """The first pair (a, b) of basis elements of K where embed(k_a k_b) =
    embed(k_a) embed(k_b) fails, or None."""
    H, Kk = incl.H, incl.K
    for a in range(Kk.dim):
        for b in range(Kk.dim):
            lhs = incl.embed_vec(Kk.mult_vec(Kk.basis_vec(a), Kk.basis_vec(b)))
            if lhs != H.mult_vec(incl.embed_col(a), incl.embed_col(b)):
                return (a, b)
    return None


def test_a_mult_intertwining_defect_names_the_exhaustive_scan_pair(h8_incl, taft3, uq3, uq5):
    # one column of embed doubled, that of 1_K or another: the scan over
    # left factors in G_K runs once embed(1_K) = 1_H, and the report names
    # the first pair of the scan over every basis element of K
    failed = 0
    for name, incl in criterion_09_registry(h8_incl, taft3, uq3, uq5):
        assert verify_inclusion(incl)["mult-intertwines"].witness is None, name
        ctx, m = incl.ctx, incl.K.dim
        two = K.s_from_ratio(ctx, 2)
        for b in sorted({0, m // 2, m - 1}):
            rows = [{c: K.s_mul(ctx, two, v) if c == b else v for c, v in row.items()}
                    for row in incl.embed.srows]
            bad = HopfInclusion(incl.K, incl.H, Matrix.from_sparse(incl.N, m, rows))
            want = _first_mult_failure(bad)
            assert verify_inclusion(bad)["mult-intertwines"].witness == want, (name, b)
            failed += want is not None
    assert failed >= 10
