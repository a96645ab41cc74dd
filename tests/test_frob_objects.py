from fractions import Fraction

import pytest

from hopfkit.exact_math import Matrix
from hopfkit.extension import rescale_frobenius_data
from hopfkit.frob_objects import (
    AlgObject,
    FrobObject,
    build_group_etale,
    direct_b_algebra,
    frob_objects_equal,
    invariant_space_dim,
    is_commutative_object,
    is_connected,
    is_rigid_frobenius,
    is_special,
    push_algebra,
    push_frobenius,
    trivial_frobenius,
    verify_algebra_object,
    verify_frobenius_object,
)
from hopfkit.module_theory import HModule
from hopfkit.yetter_drinfeld import YDModule


ALL_PARAMS = [(n, ex, ey) for n in ("x", "y", "xy") for ex in (1, -1) for ey in (1, -1)]
# the braided-commutative ones are exactly those whose graded line is a boson:
# the character of e_n evaluates to +1 on the degree n
BOSONIC = [(n, ex, ey) for (n, ex, ey) in ALL_PARAMS
           if {"x": ex, "y": ey, "xy": ex * ey}[n] == 1]


@pytest.fixture(scope="module")
def half_frob(h8_frob):
    """The strictly separable normalization (lambda divided by the scalar 2)."""
    return rescale_frobenius_data(h8_frob, Fraction(1, 2))


def test_trivial_frobenius(h8_incl):
    one = trivial_frobenius(h8_incl.K)
    assert verify_frobenius_object(one).ok
    assert is_commutative_object(one)
    assert is_special(one) == (1, 1)
    assert is_connected(one)
    assert is_rigid_frobenius(one).ok


# The paper's first theorem without braiding: Ind is Frobenius monoidal on
# plain modules over any Frobenius extension, central or not, so it carries
# the unit Frobenius algebra of K-modules to a Frobenius algebra of H-modules.
# The scalars of is_special were recorded before tr was held as a column table.
PLAIN_UNIT_PUSHES = [
    ("builtin:h8", (2, 1)),
    ("builtin:double?of=builtin:group?table=c3", (3, 1)),
    ("builtin:uqsl2?l=3&sub=cartan", None),
]


@pytest.mark.parametrize("spec, special", PLAIN_UNIT_PUSHES, ids=["h8", "dc3", "uqsl2-l3-cartan"])
def test_the_plain_unit_frobenius_algebra_pushes_to_a_frobenius_algebra(spec, special):
    from hopfkit.cli import resolve_inclusion
    from hopfkit.induction import induction_context
    from hopfkit.module_theory import trivial_module

    frob = induction_context(resolve_inclusion(spec))
    Kk = frob.incl.K
    one = Matrix.identity(1, Kk.N)
    F = push_frobenius(frob, FrobObject(trivial_module(Kk), one, one, one, one, name="1"))
    assert not F.is_yd
    rep = verify_frobenius_object(F)
    assert rep.ok, rep.failures()
    assert is_special(F) == special


def test_zone_h_push(h8_frob):
    A = push_frobenius(h8_frob, trivial_frobenius(h8_frob.incl.K))
    rep = verify_frobenius_object(A)
    assert rep.ok, rep.failures()
    assert is_commutative_object(A)
    assert is_connected(A)


def test_zone_h_counit_flip_fails(h8_frob):
    # the true counit is (1, 1) in carrier coordinates (equivalently eps(a) = 0
    # in the unit/complement basis); zeroing the second value breaks counitality
    A = push_frobenius(h8_frob, trivial_frobenius(h8_frob.incl.K))
    assert verify_frobenius_object(A).ok
    bad = FrobObject(A.carrier, A.mult, A.unit, A.comult, Matrix.from_rows([[1, 0]]), name="bad")
    rep = verify_frobenius_object(bad)
    assert not rep.ok
    assert not rep["counital"].ok


@pytest.mark.parametrize("n,ex,ey", ALL_PARAMS)
def test_etale_sources_are_frobenius(h8_incl, n, ex, ey):
    A = build_group_etale(h8_incl.K, n, ex, ey)
    rep = verify_frobenius_object(A)
    assert rep.ok, rep.failures()
    # m o Delta = |N| id = 2 id on the source
    assert is_special(A) == (2, 1)
    assert is_connected(A)


@pytest.mark.parametrize("n,ex,ey", ALL_PARAMS)
def test_etale_commutativity_is_the_boson_condition(h8_incl, n, ex, ey):
    A = build_group_etale(h8_incl.K, n, ex, ey)
    assert is_commutative_object(A) == ((n, ex, ey) in BOSONIC)


@pytest.mark.parametrize("n,ex,ey", ALL_PARAMS)
def test_pushed_b_algebras(half_frob, n, ex, ey):
    A = build_group_etale(half_frob.incl.K, n, ex, ey)
    B = push_frobenius(half_frob, A)
    rep = verify_frobenius_object(B)
    assert rep.ok, rep.failures()
    # at the separable normalization: m Delta = 2 id, eps(unit) = 2
    assert is_special(B) == (2, 2)
    assert is_connected(B)
    # commutativity transports exactly on the bosonic family
    assert is_commutative_object(B) == ((n, ex, ey) in BOSONIC)


@pytest.mark.parametrize("n,ex,ey", ALL_PARAMS)
def test_push_matches_direct_tables_except_fermionic_sign(half_frob, n, ex, ey):
    """The structure-table constructor agrees with the pushed object except for
    the three (ex, ey) = (-1, -1) parameter points, where the published
    multiplication table is off by a sign on the z-block (see the decisions
    ledger)."""
    A = build_group_etale(half_frob.incl.K, n, ex, ey)
    B1 = push_frobenius(half_frob, A)
    assert verify_frobenius_object(B1).ok
    B2 = direct_b_algebra(half_frob, n, ex, ey)
    if (ex, ey) != (-1, -1):
        assert frob_objects_equal(B1, B2)
    else:
        assert not frob_objects_equal(B1, B2)
        # everything except the multiplication agrees
        assert B1.unit == B2.unit and B1.comult == B2.comult and B1.counit == B2.counit
        assert B1.carrier.coaction == B2.carrier.coaction
        # the true product has b_{zn} b_{zn} = -b_{z1}
        col = B1.mult.col_raw(3 * 4 + 3)  # (z,n) x (z,n) column
        vals = [str(Matrix(B1.mult.N, [[v]]).entry(0, 0)) for v in col]
        assert vals == ["0", "0", "-1", "0"]


def test_beta_scalars_at_canonical_normalization(h8_frob):
    A = build_group_etale(h8_frob.incl.K, "x", 1, 1)
    B = push_frobenius(h8_frob, A)
    assert verify_frobenius_object(B).ok
    # with tr(1) = 2 the composite lax o oplax is 2 id, so beta_B doubles
    assert is_special(B) == (4, 1)


def test_connectedness_fails_for_direct_sum(h8_frob):
    # A (+) A has a two-dimensional invariant space
    one = trivial_frobenius(h8_frob.incl.K)
    A = push_frobenius(h8_frob, one)
    assert verify_frobenius_object(A).ok
    mod = A.carrier
    from hopfkit.module_theory import direct_sum

    carrier2 = direct_sum(mod, mod)
    n = A.carrier.H.dim
    d = mod.dim
    rows = [[0] * (2 * d) for _ in range(n * 2 * d)]
    ca = A.carrier.coaction
    for h in range(n):
        for r in range(d):
            for c in range(d):
                v = ca.entry(h * d + r, c)
                if not v.is_zero():
                    rows[h * 2 * d + r][c] = v
                    rows[h * 2 * d + d + r][d + c] = v
    from hopfkit.exact_math import Matrix as Mx

    Y = YDModule(carrier2, Mx.from_rows(rows))
    assert invariant_space_dim(Y) == 2


def test_push_algebra_only(h8_frob):
    A = build_group_etale(h8_frob.incl.K, "y", -1, 1)
    alg = push_algebra(h8_frob, A)
    from hopfkit.frob_objects import verify_algebra_object

    assert verify_algebra_object(alg).ok


def test_rigid_report_flags(half_frob):
    A = build_group_etale(half_frob.incl.K, "x", 1, -1)
    B = push_frobenius(half_frob, A)
    rep = is_rigid_frobenius(B)
    flags = {c.name: c.ok for c in rep.checks}
    assert flags == {"frobenius": True, "commutative": True, "special": True, "connected": True}


def test_frob_objects_verifies_each_object_once(monkeypatch, capsys):
    # once on the source and once on the pushed object, each with one
    # tensor square of its carrier, formed on the generators of H
    from hopfkit import frob_objects
    from hopfkit.cli import main

    verified, squared = [], []
    real_verify, real_tensor = frob_objects.verify_frobenius_object, frob_objects.tensor_actions

    def counting_verify(F):
        verified.append(F.name)
        return real_verify(F)

    def counting_tensor(M, N_mod, elements):
        squared.append(M.name)
        return real_tensor(M, N_mod, elements)

    monkeypatch.setattr(frob_objects, "verify_frobenius_object", counting_verify)
    monkeypatch.setattr(frob_objects, "tensor_actions", counting_tensor)
    objects = [("x", 1, -1), ("xy", 1, 1)]
    argv = ["frob-objects", "builtin:h8"]
    for n, ex, ey in objects:
        argv += ["--object", "builtin:etale?n=%s&ex=%d&ey=%d" % (n, ex, ey)]
    main(argv)
    sources = ["A_%s(%d,%d)" % o for o in objects]
    expected = [name for s in sources for name in (s, "Ind(%s)" % s)]
    assert verified == expected
    assert squared == [name for s in sources for name in (s, "Ind(%s)" % s)]
    assert "frobenius[Ind(A_x(1,-1))]" in capsys.readouterr().out


def test_object_checks_form_the_square_on_generators_only(h8_frob, monkeypatch):
    # the morphism checks read A (x) A only through the generators of H, so
    # no other action of the square is formed, nor the square as a module
    from hopfkit import frob_objects, module_theory, yetter_drinfeld
    from hopfkit.hopf_core import algebra_generators

    F = push_frobenius(h8_frob, build_group_etale(h8_frob.incl.K, "x", 1, -1))
    formed = []
    real = module_theory.tensor_actions

    def counted(M, N_mod, elements):
        elements = list(elements)
        formed.append((M.name, N_mod.name, elements))
        return real(M, N_mod, elements)

    for mod in (frob_objects, module_theory):
        monkeypatch.setattr(mod, "tensor_actions", counted)
    monkeypatch.setattr(yetter_drinfeld, "tensor_modules", None)
    assert verify_frobenius_object(F).ok
    gens = list(algebra_generators(F.carrier.H))
    assert formed == [(F.name, F.name, gens)]
    assert len(gens) < F.carrier.H.dim


def test_morphism_checks_read_every_generator_and_the_coaction(h8_incl):
    # the product of A_n on carriers where it is associative and unital but no
    # morphism: once as a module map failing on y alone, once as a module map
    # that is no comodule map
    Kk = h8_incl.K
    mult = Matrix.from_rows([[1, 0, 0, 1], [0, 1, 1, 0]])
    unit = Matrix.from_rows([[1], [0]])
    # e_1 carries the character x -> 1, y -> -1 on the basis 1, x, y, xy
    on_y = HModule(Kk, [Matrix.from_rows([[c, 0], [0, 1]]) for c in (1, 1, -1, -1)], name="on-y")
    # both basis vectors of degree x, acted on trivially
    rows = [[0, 0] for _ in range(2 * Kk.dim)]
    rows[2 * Kk.basis_labels.index("x")] = [1, 0]
    rows[2 * Kk.basis_labels.index("x") + 1] = [0, 1]
    graded = YDModule(HModule(Kk, [Matrix.identity(2)] * Kk.dim, name="deg-x"), Matrix.from_rows(rows))
    for carrier in (on_y, graded):
        rep = verify_algebra_object(AlgObject(carrier, mult, unit))
        flags = {c.name: c.ok for c in rep.checks}
        assert flags == {"associative": True, "unital": True,
                         "mult-is-morphism": False, "unit-is-morphism": False}, carrier.name


def test_rescale_moves_a_rational_scalar_down_and_refuses_an_irrational_one(h8_frob):
    from hopfkit.errors import PipelineError
    from hopfkit.exact_math import Cyclotomic, root_of_unity

    N = h8_frob.incl.N
    up = 3 if N % 3 else 5
    c = Cyclotomic.rational(Fraction(1, 2), N * up)
    assert c.N % N == 0 and c.N != N
    moved = rescale_frobenius_data(h8_frob, c)
    assert moved.tr == rescale_frobenius_data(h8_frob, Fraction(1, 2)).tr
    with pytest.raises(PipelineError):
        rescale_frobenius_data(h8_frob, root_of_unity(N * up))


def test_rescale_lowers_a_scalar_that_lies_in_the_common_subfield(h8_incl):
    from hopfkit.errors import PipelineError
    from hopfkit.exact_math import Cyclotomic, root_of_unity
    from hopfkit.extension import HopfInclusion, make_frobenius_data

    incl = HopfInclusion(h8_incl.K, h8_incl.H, h8_incl.embed.lift(4))
    assert incl.N == 4
    frob = make_frobenius_data(incl)

    def data(fr):
        return fr.lam, fr.tr, fr.deltas

    # i stored at conductor 12 lies in Q(zeta_12) meet Q(zeta_4) = Q(i)
    i12 = root_of_unity(12, 3)
    assert i12.N == 12
    assert data(rescale_frobenius_data(frob, i12)) == data(rescale_frobenius_data(frob, root_of_unity(4)))
    # zeta_3 does not
    with pytest.raises(PipelineError):
        rescale_frobenius_data(frob, root_of_unity(12, 4))
    half = Cyclotomic.rational(Fraction(1, 2), 12)
    assert data(rescale_frobenius_data(frob, half)) == data(rescale_frobenius_data(frob, Fraction(1, 2)))
