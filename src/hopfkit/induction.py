"""The induction functor as concrete linear data.

Induced modules are coordinatized by a free basis h_1..h_r of H over K
(pairs (i, a) flattened as i*dim(V) + a), so every functorial structure map
(theta, adjunction units/counits, lax/oplax, projection-formula morphisms)
is an exact matrix and every coherence diagram is a matrix equality.  Each
structure map is built from the insertion map iota_V(x): v -> x (x)_K v,
whose block t is the action on V of the t-th part of x = sum_t h_t k_t, or
from a table of K (x) K constants fixed by the Frobenius data (lax and
oplax): a module enters only through the action of K, applied in one pass.
"""

from math import lcm

from . import _kernel as K
from .errors import PipelineError
from .exact_math import (Cyclotomic, Matrix, _add, _apply, _axpy, _clean, _dot, _kron_act,
                         _scale, _table_apply, _tensor, _tensor_square_mul, id_kron, kron_id)
from .extension import is_central_extension, make_frobenius_data
from .hopf_core import antipode_inverse, cached
from .module_theory import HModule, ModuleMap, restrict, tensor_modules, trivial_module
from .reports import Report


def induction_context(incl):
    """The canonical Frobenius data of a Frobenius extension, which fixes the
    induction functor: every function of this module takes it; it raises
    PipelineError unless the inclusion is a Frobenius extension.  Hbar, its
    integral, the decision and the Frobenius data are read from the
    inclusion's cache.

    What is built from the data is kept in its cache (see
    ``hopf_core.cached``), so each structure is built once per Frobenius
    data.  The functions of a module (``induce``, ``lax_pair``, ``oplax_pair``
    and ``yetter_drinfeld.z_induce``) are keyed by ``V.key()``, the module's
    value, so equal modules built separately share an entry; results that
    carry a name are keyed by the name too.  The lax structure scales with
    the Frobenius morphism, so rescaled data (``rescale_frobenius_data``) is
    a new object whose cache starts empty, sharing with its source the
    tables of the free basis, kept on its decomposer ``frob.right_decomp``."""
    return make_frobenius_data(incl)


@cached()
def delta_parts(frob, i):
    """Right decomposition of delta_i: list over j of sparse K-coord vectors."""
    return frob.right_decomp(frob.deltas[i])


@cached()
def basis_parts(dec, q):
    """Right decomposition of the basis element e_q of H over the free basis
    of the decomposer dec (``frob.right_decomp``)."""
    return dec({q: K.s_one(dec.incl.ctx)})


@cached()
def tr_row(frob, p):
    """The nonzero tr(e_p h_i) as {i: sparse K-coord vector}."""
    H = frob.incl.H
    row = {}
    for i, hi in enumerate(frob.free):
        kv = frob.tr_vec(dict(H.mult[p * H.dim + hi]))
        if kv:
            row[i] = kv
    return row


@cached()
def comult_terms(dec):
    """(i, p, q, s) over the terms s e_p (x) e_q of Delta(h_i), i ascending,
    for the free basis h_i of the decomposer dec."""
    H = dec.incl.H
    return [(i, *divmod(x, H.dim), s) for i, hi in enumerate(dec.free) for x, s in H.comult[hi]]


def _structure(dec, parts):
    """The nonzero (l, i, j, c), l, i, j ascending, c the sum over the terms
    s e_p (x) e_q of Delta(h_l), h_l the free basis of dec, of
    s parts(p)[i] (x) parts(q)[j] in K (x) K ((b, c) at b * dim K + c).
    parts(p) holds the nonzero parts only, so
    the build visits the nonzero (i, j) of each term, not all r^2."""
    incl = dec.incl
    ctx, n, m = incl.ctx, incl.H.dim, incl.K.dim
    out = []
    for l, hl in enumerate(dec.free):
        acc = {}
        for x, s in incl.H.comult[hl]:
            p, q = divmod(x, n)
            row_q = parts(q)
            if not row_q:
                continue
            for i, tp in parts(p).items():
                tp = _scale(ctx, tp, s)
                for j, tq in row_q.items():
                    _tensor(ctx, acc.setdefault((i, j), {}), tp, tq, m)
        out.extend((l, i, j, v) for (i, j), v in sorted(acc.items()) if v)
    return out


@cached()
def sigma(frob):
    """The lax structure constants sigma_{l,i,j}: parts(p) = tr(e_p h_i), by i."""
    return _structure(frob.right_decomp, lambda p: tr_row(frob, p))


@cached()
def tau(dec):
    """The oplax structure constants tau_{i,t,u} of the free basis of the
    decomposer dec: parts(p) = part t of e_p, by t."""
    return _structure(dec, lambda p: {t: k for t, k in enumerate(basis_parts(dec, p)) if k})


@cached()
def lax_table(frob):
    """The lax structure constants Lambda_{t,i,j} = sum_l Delta_K(k_{l,t})
    sigma_{l,i,j} in K (x) K, for k_{l,t} the t-th part of delta_l, as
    (t, i, j, c) with t, i, j ascending.  lax_{V,U} = [iota_{V x U}(delta_l)]_l
    times sigma acting on V x U, and block t of iota_{V x U}(delta_l) is
    Delta_K(k_{l,t}) acting through rho_V x rho_U, which is multiplicative on
    K (x) K for K-modules V and U: so lax_{V,U} is Lambda acting on V x U."""
    incl = frob.incl
    Kk, ctx = incl.K, incl.ctx
    one = K.s_one(ctx)
    coparts = [[(t, _table_apply(ctx, Kk.comult, k).items())
                for t, k in enumerate(delta_parts(frob, l)) if k] for l in range(frob.rank)]
    acc = {}
    for l, i, j, c in sigma(frob):
        for t, dk in coparts[l]:
            prod = _tensor_square_mul(ctx, Kk.mult, Kk.dim, dk, c.items())
            _axpy(ctx, acc.setdefault((t, i, j), {}), prod, one)
    return [(t, i, j, v) for (t, i, j), v in sorted(acc.items()) if v]


@cached()
def unit_maps(frob):
    """lax_0: 1 -> Ind(1), the decomposition of sum_i eps(h_i) delta_i
    under eps_K, and oplax_0: Ind(1) -> 1, h_i x 1 -> eps(h_i), at incl.N."""
    incl = frob.incl
    H, ctx = incl.H, incl.ctx
    eps_free = _clean(ctx, enumerate(H.counit[t] for t in frob.free))
    w = _apply(ctx, frob.deltas, eps_free)
    lax0 = [[_dot(ctx, incl.K.counit, kv)] for kv in frob.right_decomp(w)]
    oplax0 = [[H.counit[t] for t in frob.free]]
    return Matrix(incl.N, lax0), Matrix(incl.N, oplax0)


def _pair_map(i, dV, j, dU, rU):
    """Index of (i*dV + a) x (j*dU + b) in a tensor product whose right
    factor has dimension rU*dU, over a < dV and b < dU in row-major order."""
    return [(i * dV + a) * (rU * dU) + j * dU + b for a in range(dV) for b in range(dU)]


def _assemble(N, rows, cols, blocks):
    """The rows x cols matrix over Q(zeta_N) that sums the blocks (rmap, cmap, B):
    entry (b, a) of the Matrix B is added at (rmap[b], cmap[a])."""
    ctx = K.make_ctx(N)
    out = [{} for _ in range(rows)]
    for rmap, cmap, B in blocks:
        for b, row in enumerate(B.lift(N).srows):
            orow = out[rmap[b]]
            for a, v in row.items():
                _add(ctx, orow, cmap[a], v)
    return Matrix.from_sparse(N, cols, out)


def _insertion(frob, M, xs):
    """[iota_M(x_0) | iota_M(x_1) | ...], where iota_M(x): M -> Ind M is
    v -> x (x)_K v.  Each x_j = sum_t h_t k_t is given by its parts [k_t]_t,
    so block (t, j) is the action of k_t on M."""
    return M.act_blocks((frob.rank, len(xs)), (
        (t, j, k) for j, parts in enumerate(xs) for t, k in enumerate(parts)
    ), frob.incl.N)


@cached()
def ind_parts(dec):
    """By g < dim H, the entries (t, i, k_t) of the nonzero parts of the right
    decompositions e_g h_i = sum_t h_t k_t by the decomposer dec, i < rank:
    the blocks of ``_insertion`` for [iota(e_g h_i)]_i, with the zero parts
    left out."""
    H = dec.incl.H
    return [[(t, i, k)
             for i, hi in enumerate(dec.free)
             for t, k in enumerate(dec(dict(H.mult[g * H.dim + hi])))
             if k]
            for g in range(H.dim)]


@cached(key=lambda V: (V.name, V.key()))
def induce(frob, V):
    """Ind V = H (x)_K V on the carrier basis (i, a) -> i*dim V + a: e_g acts
    as [iota_V(e_g h_i)]_i."""
    shape = (frob.rank, frob.rank)
    mats = [V.act_blocks(shape, entries, frob.incl.N) for entries in ind_parts(frob.right_decomp)]
    return HModule(frob.incl.H, mats, name="Ind(%s)" % V.name, N=lcm(frob.incl.N, V.N))


def ind_morphism(frob, phi):
    """Ind of a K-module map: block-diagonal over the free basis."""
    r = frob.rank
    conductor = lcm(frob.incl.N, phi.N)
    p = phi.lift(conductor)
    ds = p.cols
    out = [{i * ds + a: v for a, v in row.items()} for i in range(r) for row in p.srows]
    return Matrix.from_sparse(conductor, r * ds, out)


def coinduce(frob, V):
    """CoInd V = Hom_K(H, V) on the basis dual to the free basis, with
    (h.f)(g) = f(gh): block (j, i) of e_g is the i-th left K-coordinate of
    x = h_j e_g, which is tr(x delta_i) by the dual-basis identity
    x = sum_i tr(x delta_i) h_i."""
    H, r = frob.incl.H, frob.rank
    mats = [
        V.act_blocks((r, r), (
            (j, i, frob.tr_vec(H.mult_vec(dict(H.mult[hj * H.dim + g]), d)))
            for j, hj in enumerate(frob.free)
            for i, d in enumerate(frob.deltas)
        ), frob.incl.N)
        for g in range(H.dim)
    ]
    return HModule(H, mats, name="CoInd(%s)" % V.name, N=lcm(frob.incl.N, V.N))


def _mutually_inverse(A, B):
    """A B = I and B A = I.  Over a field both need A and B square of one
    size, and then A B = I already gives B A = I, so one product is formed."""
    return A.rows == A.cols == B.rows == B.cols and (A * B).is_identity()


def theta_iso(frob, V):
    """theta_V(h x v) = (g -> tr(gh) v) and its closed-form inverse
    [iota_V(delta_j)]_j, both verified."""
    r = frob.rank
    ind = induce(frob, V)
    coind = coinduce(frob, V)
    theta = V.act_blocks((r, r), (
        (j, i, k) for j, hj in enumerate(frob.free) for i, k in tr_row(frob, hj).items()
    ), frob.incl.N)
    theta_inv = _insertion(frob, V, [delta_parts(frob, j) for j in range(r)])
    if not _mutually_inverse(theta, theta_inv):
        raise PipelineError("theta and its closed-form inverse do not compose to identity")
    tm = ModuleMap(ind, coind, theta)
    if not tm.intertwines():
        raise PipelineError("theta is not a module map")
    return ind, coind, tm, ModuleMap(coind, ind, theta_inv)


def adjunction_maps(frob, V, W):
    """The four unit/counit maps and their triangle identities.

    V is a K-module, W an H-module.  Returns (report, dict of matrices), the
    matrices over Q(zeta_N) for N the lcm of the conductors of the
    inclusion, V and W.
    """
    incl = frob.incl
    rep = Report("adjunction-maps")

    indV = induce(frob, V)
    resW = restrict(incl, W)
    unit_GF = unit_gf_at(frob, W)
    counit_GF = counit_gf_at(frob, V)
    unit_FG = unit_fg_at(frob, V)
    counit_FG = counit_fg_at(frob, W)

    # triangles for F -| G (F = Ind left adjoint)
    t1 = counit_fg_at(frob, indV) * ind_morphism(frob, unit_FG)
    rep.add("triangle-FG-left", t1.is_identity(), anchor="adjunction")
    t2 = counit_FG * unit_fg_at(frob, resW)
    rep.add("triangle-FG-right", t2.is_identity(), anchor="adjunction")

    # triangles for G -| F (F = Ind right adjoint)
    t3 = ind_morphism(frob, counit_GF) * unit_gf_at(frob, indV)
    rep.add("triangle-GF-left", t3.is_identity(), anchor="adjunction")
    t4 = counit_gf_at(frob, resW) * unit_GF
    rep.add("triangle-GF-right", t4.is_identity(), anchor="adjunction")

    conductor = lcm(incl.N, V.N, W.N)
    maps = {
        "unit_GF": unit_GF.lift(conductor),
        "counit_GF": counit_GF.lift(conductor),
        "unit_FG": unit_FG.lift(conductor),
        "counit_FG": counit_FG.lift(conductor),
    }
    return rep, maps


def counit_fg_at(frob, W):
    """counit^{F -| G} at the H-module W: Ind Res W -> W, h_i x w -> h_i w."""
    one = K.s_one(frob.incl.ctx)
    return W.act_blocks((1, frob.rank), ((0, i, {hi: one}) for i, hi in enumerate(frob.free)),
                        frob.incl.N)


def unit_fg_at(frob, V):
    """unit^{F -| G} at the K-module V: V -> Res Ind V, v -> 1 x v, i.e. iota_V(1)."""
    return _insertion(frob, V, [frob.right_decomp(frob.incl.H.unit_vec())])


def unit_gf_at(frob, W):
    """unit^{G -| F} at the H-module W: W -> Ind Res W, w -> sum_i delta_i x h_i w,
    i.e. [iota_{Res W}(delta_i)]_i times the actions of the h_i stacked."""
    r, one = frob.rank, K.s_one(frob.incl.ctx)
    stacked = W.act_blocks((r, 1), ((i, 0, {hi: one}) for i, hi in enumerate(frob.free)),
                           frob.incl.N)
    resW = restrict(frob.incl, W)
    return _insertion(frob, resW, [delta_parts(frob, i) for i in range(r)]) * stacked


def counit_gf_at(frob, V):
    """counit^{G -| F} at the K-module V: Res Ind V -> V, h_i x v -> tr(h_i) v."""
    return V.act_blocks((1, frob.rank), (
        (0, i, dict(frob.tr[hi])) for i, hi in enumerate(frob.free)
    ), frob.incl.N)


# ---------------------------------------------------------------------------
# lax / oplax monoidal structure
# ---------------------------------------------------------------------------


def _act_structure(frob, V, U, consts, rows, cols, place):
    """The rows x cols matrix that sums each structure constant (l, i, j, c)
    of consts, an element of K (x) K, acting on V x U through the actions of
    V and U, placed at place(l, i, j) = (row0, rs, col0, cs) as by
    ``exact_math._kron_act``."""
    N, m = frob.incl.N, frob.incl.K.dim
    conductor = lcm(N, V.N, U.N)
    ctx = K.make_ctx(conductor)
    actV, actU = V._action_rows(conductor), U._action_rows(conductor)
    out = [{} for _ in range(rows)]
    for l, i, j, c in consts:
        _kron_act(ctx, out, actV, actU, m,
                  ((x, K.s_lift(s, N, conductor)) for x, s in c.items()), *place(l, i, j))
    return Matrix.from_sparse(conductor, cols, out)


@cached(key=lambda V, U: (V.key(), U.key()))
def lax_pair(frob, V, U):
    """lax_{V,U}: Ind V x Ind U -> Ind(V x U); lax_0 is ``unit_maps(frob)[0]``.

    (h_i x v) x (h_j x u) -> sum_l delta_l x sigma_{l,i,j} . (v x u), so
    block (t; i, j) of lax_{V,U} is Lambda_{t,i,j} (``lax_table``) acting on
    V x U: row block t, from the columns of (i, j)."""
    r, dV, dU = frob.rank, V.dim, U.dim
    d = dV * dU
    return _act_structure(frob, V, U, lax_table(frob), r * d, r * d * r,
                          lambda t, i, j: (t * d, dU, (i * dV * r + j) * dU, r * dU))


@cached(key=lambda V, U: (V.key(), U.key()))
def oplax_pair(frob, V, U):
    """oplax_{V,U}: Ind(V x U) -> Ind V x Ind U; oplax_0 is ``unit_maps(frob)[1]``.

    h_i x (v x u) -> sum over Delta(h_i) = sum s e_p x e_q of
    s iota_V(e_p) v x iota_U(e_q) u.  Block t of iota_V(e_p) is the action
    of the t-th part of e_p, so block (t, u) of column block i is the
    tau_{i,t,u} acting on V x U."""
    r, dV, dU = frob.rank, V.dim, U.dim
    d = dV * dU
    return _act_structure(frob, V, U, tau(frob.right_decomp), (r * dV) * (r * dU), r * d,
                          lambda i, t, u: ((t * dV * r + u) * dU, r * dU, i * d, dU))


def verify_lax_coherence(frob, modules):
    """Associativity and unitality of lax, coassociativity/counitality of oplax,
    over all triples/objects from the supplied module list."""
    incl = frob.incl
    r = frob.rank
    rep = Report("lax-oplax-coherence")
    one = trivial_module(incl.K, N=incl.N)
    lax0, oplax0 = unit_maps(frob)
    for V in modules:
        rV = r * V.dim
        # lax_{V,1} (id x lax0) = id
        m1 = lax_pair(frob, V, one) * id_kron(rV, lax0)
        rep.add("lax-right-unital[%s]" % V.name, m1.is_identity(), anchor="lax-unitality")
        m2 = lax_pair(frob, one, V) * kron_id(lax0, rV)
        rep.add("lax-left-unital[%s]" % V.name, m2.is_identity(), anchor="lax-unitality")
        # oplax counitality
        m3 = id_kron(rV, oplax0) * oplax_pair(frob, V, one)
        rep.add("oplax-right-counital[%s]" % V.name, m3.is_identity(), anchor="oplax-unitality")
        m4 = kron_id(oplax0, rV) * oplax_pair(frob, one, V)
        rep.add("oplax-left-counital[%s]" % V.name, m4.is_identity(), anchor="oplax-unitality")
    for V in modules:
        for U in modules:
            for W in modules:
                VU = tensor_modules(V, U)
                UW = tensor_modules(U, W)
                rV, rW = r * V.dim, r * W.dim
                lhs = lax_pair(frob, VU, W) * kron_id(lax_pair(frob, V, U), rW)
                rhs = lax_pair(frob, V, UW) * id_kron(rV, lax_pair(frob, U, W))
                rep.add(
                    "lax-associative[%s,%s,%s]" % (V.name, U.name, W.name),
                    lhs == rhs,
                    anchor="lax-associativity",
                )
                lhs = kron_id(oplax_pair(frob, V, U), rW) * oplax_pair(frob, VU, W)
                rhs = id_kron(rV, oplax_pair(frob, U, W)) * oplax_pair(frob, V, UW)
                rep.add(
                    "oplax-coassociative[%s,%s,%s]" % (V.name, U.name, W.name),
                    lhs == rhs,
                    anchor="oplax-coassociativity",
                )
    return rep


def verify_frobenius_monoidal(frob, V, U, W):
    """The two Frobenius compatibility squares for the triple (V, U, W)."""
    rep = Report("frobenius-monoidal[%s,%s,%s]" % (V.name, U.name, W.name))
    UW = tensor_modules(U, W)
    VU = tensor_modules(V, U)
    rV, rW = frob.rank * V.dim, frob.rank * W.dim
    lhs = kron_id(lax_pair(frob, V, U), rW) * id_kron(rV, oplax_pair(frob, U, W))
    rhs = oplax_pair(frob, VU, W) * lax_pair(frob, V, UW)
    rep.add("frobenius-square-1", lhs == rhs, anchor="frobmon")
    lhs = id_kron(rV, lax_pair(frob, U, W)) * kron_id(oplax_pair(frob, V, U), rW)
    rhs = oplax_pair(frob, V, UW) * lax_pair(frob, VU, W)
    rep.add("frobenius-square-2", lhs == rhs, anchor="frobmon")
    return rep


def is_separable_functor(frob, pairs):
    """Separability of the induction functor over the sampled pairs.

    Computes lax o oplax on Ind(V x U) for each pair.  The functor counts as
    separable when the composite is the same nonzero scalar multiple c of the
    identity on every pair.  Rescaling tr by 1/c scales lax by 1/c and keeps
    oplax, so lax o oplax = id holds exactly on
    ``rescale_frobenius_data(frob, 1/c)`` (notes/decisions.md, "Rescaling is
    covariance"), and no second Frobenius data is built to confirm it.
    """
    scalars = [(lax_pair(frob, V, U) * oplax_pair(frob, V, U)).is_scalar_multiple_of_identity()
               for V, U in pairs]
    scalar = next((c for c in scalars if c is not None), None)
    consistent = all(c is not None and c == scalar for c in scalars)
    return {
        "separable": consistent and scalar is not None and not scalar.is_zero(),
        "scalar": scalar,
        "strict_at_current_scale": all(c is not None and c == 1 for c in scalars),
    }


# ---------------------------------------------------------------------------
# projection formula morphisms
# ---------------------------------------------------------------------------


class ProjectionMorphisms:
    __slots__ = (
        "lproj_GF", "lproj_FG", "rproj_GF", "rproj_FG", "lproj_FG_inv", "rproj_FG_inv", "report"
    )

    def __init__(self, lproj_GF, lproj_FG, rproj_GF, rproj_FG, lproj_FG_inv, rproj_FG_inv, report):
        self.lproj_GF = lproj_GF
        self.lproj_FG = lproj_FG
        self.rproj_GF = rproj_GF
        self.rproj_FG = rproj_FG
        self.lproj_FG_inv = lproj_FG_inv
        self.rproj_FG_inv = rproj_FG_inv
        self.report = report


def projection_morphisms(frob, W, V):
    """The four projection-formula maps for an H-module W and K-module V.

    Each is lax or oplax whiskered with the adjunction at W (Fausk-Hu-May,
    TAC 11, 2003):

    - lproj^{G-|F} = lax_{Res W,V} (unit^{G-|F}_W x id_{Ind V});
    - lproj^{F-|G} = (counit^{F-|G}_W x id_{Ind V}) oplax_{Res W,V};
    - rproj^{G-|F} = lax_{V,Res W} (id_{Ind V} x unit^{G-|F}_W);
    - rproj^{F-|G} = (id_{Ind V} x counit^{F-|G}_W) oplax_{V,Res W}.

    Checks mutual invertibility of each pair and the closed-form inverses
    built from the antipode and its inverse, returned as ``lproj_FG_inv``
    and ``rproj_FG_inv``.
    """
    incl = frob.incl
    H = incl.H
    r = frob.rank
    dW, dV = W.dim, V.dim
    conductor = lcm(incl.N, V.N, W.N)
    resW = restrict(incl, W)
    resWV = tensor_modules(resW, V)
    VresW = tensor_modules(V, resW)
    rep = Report("projection-morphisms")

    unit = unit_gf_at(frob, W)
    counit = counit_fg_at(frob, W)
    rV = r * dV
    lproj_GF = lax_pair(frob, resW, V) * kron_id(unit, rV)
    lproj_FG = kron_id(counit, rV) * oplax_pair(frob, resW, V)
    rproj_GF = lax_pair(frob, V, resW) * id_kron(rV, unit)
    rproj_FG = id_kron(rV, counit) * oplax_pair(frob, V, resW)

    right_inv = _mutually_inverse(rproj_GF, rproj_FG)
    rep.add("rproj-pair-mutually-inverse", right_inv, anchor="projection-formula")
    left_inv = _mutually_inverse(lproj_GF, lproj_FG)
    rep.add(
        "lproj-pair-mutually-inverse",
        left_inv,
        detail="expected iff central",
        anchor="projection-formula",
    )

    # closed-form inverses via the (inverse) antipode, summed over
    # Delta(h_i) = sum s e_p x e_q; column p of S^-1 and S gives the
    # coordinates of S^-1(e_p) and S(e_p).  iota(e_q) and the action of
    # S^-1(e_p) (resp. iota(e_p) and the action of S(e_q)) are formed once.
    dec = frob.right_decomp
    terms = comult_terms(dec)
    ps, qs = {p for _, p, _, _ in terms}, {q for _, _, q, _ in terms}
    Sinv = antipode_inverse(H).transpose().srows
    SinvW = {p: W.act_alg_vec(Sinv[p], H.N) for p in ps}
    SW = {q: W.act_alg_vec(dict(H.antipode_cols[q]), H.N) for q in qs}
    iota_WV = {q: _insertion(frob, resWV, [basis_parts(dec, q)]) for q in qs}
    iota_VW = {p: _insertion(frob, VresW, [basis_parts(dec, p)]) for p in ps}
    every_row = range(r * dW * dV)

    # w x (h_i x v) -> h_(2) x (S^-1(h_(1)) w x v)
    lproj_FG_inv = _assemble(conductor, r * dW * dV, dW * (r * dV), (
        (every_row, _pair_map(0, dW, i, dV, r),
         iota_WV[q] * kron_id(SinvW[p].scale(Cyclotomic(incl.N, s)), dV))
        for i, p, q, s in terms
    ))
    rep.add(
        "lproj-closed-form-inverse",
        _mutually_inverse(lproj_FG, lproj_FG_inv),
        anchor="projection-inverses",
    )

    # (h_i x v) x w -> h_(1) x (v x S(h_(2)) w)
    rproj_FG_inv = _assemble(conductor, r * dV * dW, (r * dV) * dW, (
        (every_row, _pair_map(i, dV, 0, dW, 1),
         iota_VW[p] * id_kron(dV, SW[q].scale(Cyclotomic(incl.N, s))))
        for i, p, q, s in terms
    ))
    rep.add(
        "rproj-closed-form-inverse",
        _mutually_inverse(rproj_FG, rproj_FG_inv),
        anchor="projection-inverses",
    )

    rep.add(
        "lproj-invertibility-matches-centrality",
        left_inv == is_central_extension(frob.incl),
        anchor="central-frobenius",
    )
    return ProjectionMorphisms(
        lproj_GF, lproj_FG, rproj_GF, rproj_FG, lproj_FG_inv, rproj_FG_inv, rep
    )
