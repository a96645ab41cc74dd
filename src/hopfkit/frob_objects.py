"""Algebra, coalgebra and Frobenius-algebra objects inside module or
Yetter-Drinfeld categories, and their transport through the induction functor."""

from fractions import Fraction

from . import _kernel as K
from .errors import HopfkitError, ShapeError
from .exact_math import Matrix, RowSpace, _add, id_kron, kron_id
from .induction import ind_morphism, lax_pair, oplax_pair, induce, unit_maps
from .hopf_core import algebra_generators
from .module_theory import HModule, tensor_actions, trivial_module
from .reports import Report
from .yetter_drinfeld import YDModule, is_yd_map, trivial_yd, yd_braiding, yd_coaction, z_induce


def _is_yd(carrier):
    return isinstance(carrier, YDModule)


class AlgObject:
    """An algebra object: carrier plus mult (d x d^2) and unit (d x 1) morphisms."""

    __slots__ = ("carrier", "mult", "unit", "name")

    def __init__(self, carrier, mult, unit, name="A"):
        d = carrier.dim
        if mult.rows != d or mult.cols != d * d:
            raise ShapeError("mult must be %dx%d" % (d, d * d))
        if unit.rows != d or unit.cols != 1:
            raise ShapeError("unit must be %dx1" % d)
        self.carrier = carrier
        self.mult = mult
        self.unit = unit
        self.name = name

    @property
    def dim(self):
        return self.carrier.dim

    @property
    def is_yd(self):
        return _is_yd(self.carrier)


class FrobObject(AlgObject):
    """An algebra-and-coalgebra object subject to the Frobenius compatibility."""

    __slots__ = ("comult", "counit")

    def __init__(self, carrier, mult, unit, comult, counit, name="F"):
        super().__init__(carrier, mult, unit, name=name)
        d = self.dim
        if comult.rows != d * d or comult.cols != d:
            raise ShapeError("comult must be %dx%d" % (d * d, d))
        if counit.rows != 1 or counit.cols != d:
            raise ShapeError("counit must be 1x%d" % d)
        self.comult = comult
        self.counit = counit


def _maps(carrier):
    """What the morphism checks read of a carrier: its actions, by basis
    element, and its coaction for a YD carrier (None otherwise)."""
    return carrier.action, carrier.coaction if _is_yd(carrier) else None


def _square_maps(carrier):
    """``_maps`` of carrier (x) carrier, with the actions formed for the
    elements of ``algebra_generators(H)`` only: the checks read no other
    (see ``HModule``)."""
    gens = algebra_generators(carrier.H)
    acts = dict(zip(gens, tensor_actions(carrier, carrier, gens)))
    return acts, yd_coaction(carrier, carrier) if _is_yd(carrier) else None


def _unit_maps(carrier):
    """``_maps`` of the tensor unit of the carrier's category."""
    H, N = carrier.H, carrier.N
    return _maps(trivial_yd(H, N=N) if _is_yd(carrier) else trivial_module(H, N=N))


def verify_algebra_object(A):
    rep = Report("verify-algebra %s" % A.name)
    _algebra_checks(rep, A, _square_maps(A.carrier), _unit_maps(A.carrier))
    return rep


def _algebra_checks(rep, A, CC, one):
    """The algebra-object checks of A into rep; CC and one are the ``_maps``
    of A (x) A and of the unit."""
    mult, unit, n, H = A.mult, A.unit, A.dim, A.carrier.H
    lhs = mult * kron_id(mult, n)
    rhs = mult * id_kron(n, mult)
    rep.add("associative", lhs == rhs, anchor="algebra-object")
    lu = mult * kron_id(unit, n)
    ru = mult * id_kron(n, unit)
    rep.add("unital", lu.is_identity() and ru.is_identity(), anchor="algebra-object")
    a = _maps(A.carrier)
    rep.add("mult-is-morphism", is_yd_map(H, CC, a, A.mult), anchor="algebra-object")
    rep.add("unit-is-morphism", is_yd_map(H, one, a, A.unit), anchor="algebra-object")


def verify_frobenius_object(F):
    """Algebra + coalgebra axioms, morphism conditions, and both Frobenius squares."""
    rep = Report("verify-frobenius %s" % F.name)
    CC = _square_maps(F.carrier)
    one = _unit_maps(F.carrier)
    _algebra_checks(rep, F, CC, one)
    mult, com, cou, n, H = F.mult, F.comult, F.counit, F.dim, F.carrier.H
    f = _maps(F.carrier)
    lhs = kron_id(com, n) * com
    rhs = id_kron(n, com) * com
    rep.add("coassociative", lhs == rhs, anchor="coalgebra-object")
    lu = kron_id(cou, n) * com
    ru = id_kron(n, cou) * com
    rep.add("counital", lu.is_identity() and ru.is_identity(), anchor="coalgebra-object")
    rep.add("comult-is-morphism", is_yd_map(H, f, CC, F.comult), anchor="coalgebra-object")
    rep.add("counit-is-morphism", is_yd_map(H, f, one, F.counit), anchor="coalgebra-object")
    mid = com * mult
    left = kron_id(mult, n) * id_kron(n, com)
    right = id_kron(n, mult) * kron_id(com, n)
    rep.add("frobenius-squares", left == mid and right == mid, anchor="frobenius-object")
    return rep


# ---------------------------------------------------------------------------
# transport through the induction functor
# ---------------------------------------------------------------------------


def push_algebra(frob, A):
    """Transport an algebra object along induction via the lax structure."""
    yd = A.is_yd
    if yd:
        carrier = z_induce(frob, A.carrier)
    else:
        carrier = induce(frob, A.carrier)
    mult = ind_morphism(frob, A.mult) * lax_pair(frob, A.carrier, A.carrier)
    unit = ind_morphism(frob, A.unit) * unit_maps(frob)[0]
    return AlgObject(carrier, mult, unit, name="Ind(%s)" % A.name)


def push_coalgebra(frob, C):
    """The comultiplication and counit of Ind C: oplax composed with Ind of
    those of C."""
    comult = oplax_pair(frob, C.carrier, C.carrier) * ind_morphism(frob, C.comult)
    return comult, unit_maps(frob)[1] * ind_morphism(frob, C.counit)


def push_frobenius(frob, F):
    """Transport a Frobenius object along the induction functor of frob,
    which must be Frobenius monoidal.  The pushed object is built, not
    verified: ``is_rigid_frobenius`` and ``verify_frobenius_object`` report
    on it."""
    alg = push_algebra(frob, F)
    comult, counit = push_coalgebra(frob, F)
    return FrobObject(alg.carrier, alg.mult, alg.unit, comult, counit, name=alg.name)


def trivial_frobenius(K_hopf):
    """The tensor unit as a Frobenius algebra in YD(K) (all structure maps
    scalars 1)."""
    one = Matrix.identity(1, K_hopf.N)
    return FrobObject(trivial_yd(K_hopf), one, one, one, one, name="1")


# ---------------------------------------------------------------------------
# the two-dimensional graded etale algebras over the Klein four group
# ---------------------------------------------------------------------------

_KLEIN_WORDS = {"1": (0, 0), "x": (1, 0), "y": (0, 1), "xy": (1, 1)}


def build_group_etale(K_hopf, n, ex, ey):
    """The graded Frobenius algebra A_{n,ex,ey} = 1 + k^n_{ex,ey} in YD(kK).

    Carrier k{e_1, e_n} with deg e_1 = 1, deg e_n = n; the group acts
    trivially on e_1 (forced by unit equivariance) and on e_n by the
    character x -> ex, y -> ey.  Multiplication e_m e_m' = e_{mm'};
    comultiplication Delta(e_m) = e_1 x e_m + e_n x e_{nm}.
    """
    if n not in ("x", "y", "xy"):
        raise HopfkitError("degree parameter must be one of x, y, xy")
    if ex not in (1, -1) or ey not in (1, -1):
        raise HopfkitError("character signs must be +-1")
    labels = list(K_hopf.basis_labels)
    for w in ("1", "x", "y", "xy"):
        if w not in labels:
            raise HopfkitError("expected a Klein-four group algebra with labels 1,x,y,xy")
    deg = labels.index(n)
    chi = {"1": 1, "x": ex, "y": ey, "xy": ex * ey}
    mats = []
    for lbl in labels:
        mats.append(Matrix.from_rows([[1, 0], [0, chi[lbl]]]))
    mod = HModule(K_hopf, mats, name="A_%s(%d,%d)" % (n, ex, ey))
    rows = [[0, 0] for _ in range(K_hopf.dim * 2)]
    rows[labels.index("1") * 2 + 0][0] = 1
    rows[deg * 2 + 1][1] = 1
    coact = Matrix.from_rows(rows)
    carrier = YDModule(mod, coact)
    mult = Matrix.from_rows([[1, 0, 0, 1], [0, 1, 1, 0]])
    unit = Matrix.from_rows([[1], [0]])
    comult = Matrix.from_rows([[1, 0], [0, 1], [0, 1], [1, 0]])
    counit = Matrix.from_rows([[1, 0]])
    return FrobObject(carrier, mult, unit, comult, counit, name=mod.name)


def direct_b_algebra(frob, n, ex, ey):
    """B_{n,ex,ey} from its structure tables, on the basis
    (1 x e_1, 1 x e_n, z x e_1, z x e_n) matching the pushed object."""
    H = frob.incl.H
    labels = list(H.basis_labels)
    if labels[:4] != ["1", "x", "y", "z"]:
        raise HopfkitError("direct_b_algebra expects the Kac-Paljutkin basis order")

    def word_index(lbl):
        return labels.index(lbl)

    # action matrices of the generators on (b_{1,1}, b_{1,n}, b_{z,1}, b_{z,n})
    zc = Fraction(1 + ex + ey - ex * ey, 2)
    zmat = Matrix.from_rows([[0, 0, 1, 0], [0, 0, 0, zc], [1, 0, 0, 0], [0, 1, 0, 0]])
    xmat = Matrix.from_rows([[1, 0, 0, 0], [0, ex, 0, 0], [0, 0, 1, 0], [0, 0, 0, ey]])
    ymat = Matrix.from_rows([[1, 0, 0, 0], [0, ey, 0, 0], [0, 0, 1, 0], [0, 0, 0, ex]])
    gens = {"x": xmat, "y": ymat, "z": zmat}
    word_of = {"1": "", "x": "x", "y": "y", "z": "z", "xy": "xy", "xz": "xz", "yz": "yz", "xyz": "xyz"}
    mats = []
    for lbl in labels:
        m = Matrix.identity(4)
        for ch in word_of[lbl]:
            m = m * gens[ch]
        mats.append(m)
    mod = HModule(H, mats, name="B_%s(%d,%d)" % (n, ex, ey))

    wcase = {(1, 1): "1", (1, -1): "y", (-1, 1): "x", (-1, -1): "xy"}
    swap_word = {"1": "1", "x": "y", "y": "x", "xy": "xy"}

    def wmul(a, b):
        wa, wb = _KLEIN_WORDS[a], _KLEIN_WORDS[b]
        w = (wa[0] ^ wb[0], wa[1] ^ wb[1])
        return {v: k for k, v in _KLEIN_WORDS.items()}[w]

    degs = [
        "1",  # b_{1,1}
        n,  # b_{1,n}
        wmul(swap_word["1"], wcase[(1, 1)]),  # b_{z,1}
        wmul(swap_word[n], wcase[(ex, ey)]),  # b_{z,n}
    ]
    rows = [[0] * 4 for _ in range(H.dim * 4)]
    for a, dlbl in enumerate(degs):
        rows[word_index(dlbl) * 4 + a][a] = 1
    carrier = YDModule(mod, Matrix.from_rows(rows))

    # multiplication: indices 0=(1,1) 1=(1,n) 2=(z,1) 3=(z,n)
    z4 = [[0] * 16 for _ in range(4)]

    def bidx(zpart, m):
        return (2 if zpart else 0) + (1 if m == "n" else 0)

    for m1 in ("1", "n"):
        for m2 in ("1", "n"):
            prod_m = "1" if m1 == m2 else "n"
            z4[bidx(0, prod_m)][bidx(0, m1) * 4 + bidx(0, m2)] = 1
            z4[bidx(1, prod_m)][bidx(1, m1) * 4 + bidx(1, m2)] = 1
    mult = Matrix.from_rows(z4)
    unit = Matrix.from_rows([[1], [0], [1], [0]])

    cn = Fraction(1 + ex + ey - ex * ey, 2)
    com = [[0] * 4 for _ in range(16)]

    def put(row_pair, col, val):
        com[row_pair[0] * 4 + row_pair[1]][col] = val

    # Delta(b_{1m}) = sum_{m'} b_{1m'} x b_{1, m'm}
    for m in ("1", "n"):
        for mp in ("1", "n"):
            mm = "1" if mp == m else "n"
            put((bidx(0, mp), bidx(0, mm)), bidx(0, m), 1)
    # Delta(b_{z1}) = b_{z1} x b_{z1} + cn b_{zn} x b_{zn}
    put((bidx(1, "1"), bidx(1, "1")), bidx(1, "1"), 1)
    put((bidx(1, "n"), bidx(1, "n")), bidx(1, "1"), cn)
    # Delta(b_{zn}) = b_{z1} x b_{zn} + b_{zn} x b_{z1}
    put((bidx(1, "1"), bidx(1, "n")), bidx(1, "n"), 1)
    put((bidx(1, "n"), bidx(1, "1")), bidx(1, "n"), 1)
    comult = Matrix.from_rows(com)
    counit = Matrix.from_rows([[1, 0, 1, 0]])
    return FrobObject(carrier, mult, unit, comult, counit, name=mod.name)


def frob_objects_equal(F1, F2):
    """Entry-wise equality of all structure maps (same carrier coordinates)."""
    return (
        F1.mult == F2.mult
        and F1.unit == F2.unit
        and F1.comult == F2.comult
        and F1.counit == F2.counit
        and F1.carrier == F2.carrier
        and (not (_is_yd(F1.carrier) and _is_yd(F2.carrier)) or F1.carrier.coaction == F2.carrier.coaction)
    )


# ---------------------------------------------------------------------------
# rigidity checks
# ---------------------------------------------------------------------------


def is_commutative_object(A):
    """m o Psi = m with respect to the YD braiding of the carrier."""
    if not A.is_yd:
        raise HopfkitError("commutativity check needs a YD carrier")
    return A.mult * yd_braiding(A.carrier, A.carrier) == A.mult


def is_special(F):
    """(beta_A, beta_1) with m o Delta = beta_A id and eps o u = beta_1, or None."""
    beta_A = (F.mult * F.comult).is_scalar_multiple_of_identity()
    if beta_A is None or beta_A.is_zero():
        return None
    beta_1 = (F.counit * F.unit).entry(0, 0)
    if beta_1.is_zero():
        return None
    return beta_A, beta_1


def invariant_space_dim(carrier):
    """dim of {v : h v = eps(h) v and delta(v) = 1 x v}.

    h v = eps(h) v is imposed for h in ``algebra_generators(H)`` only (see
    ``HModule``): the h it holds for contain 1 and are closed under products,
    as eps is multiplicative."""
    H = carrier.H
    d = carrier.dim
    ctx = carrier.ctx
    space = RowSpace(d, ctx)
    for i in algebra_generators(H):
        act = carrier.action[i]
        eps = H.counit[i]
        for r, arow in enumerate(act.srows):
            row = dict(arow)
            if not K.s_is_zero(eps):
                _add(ctx, row, r, K.s_neg(eps))
            if row:
                space.add(row)
    if _is_yd(carrier):
        coact = carrier.coaction
        for hrow, u in enumerate(H.unit):
            for r in range(d):
                row = dict(coact.srows[hrow * d + r])
                if not K.s_is_zero(u):
                    _add(ctx, row, r, K.s_neg(u))
                if row:
                    space.add(row)
    return d - space.rank


def is_connected(A):
    """Hom(1, A) is one-dimensional."""
    return invariant_space_dim(A.carrier) == 1


def is_rigid_frobenius(F):
    """Frobenius + commutative + special + connected, with individual flags."""
    rep = Report("rigid-frobenius %s" % F.name)
    rep.add("frobenius", verify_frobenius_object(F).ok, anchor="frobenius-object")
    rep.add("commutative", is_commutative_object(F), anchor="commutative-algebra")
    sp = is_special(F)
    rep.add(
        "special",
        sp is not None,
        detail=None if sp is None else "beta=(%s, %s)" % (sp[0], sp[1]),
        anchor="special-frobenius",
    )
    rep.add("connected", is_connected(F), anchor="connected-algebra")
    return rep
