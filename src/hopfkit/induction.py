"""The induction functor as concrete linear data.

Induced modules are coordinatized by a free basis h_1..h_r of H over K
(pairs (i, a) flattened as i*dim(V) + a), so every functorial structure map
(theta, adjunction units/counits, lax/oplax, projection-formula morphisms)
is an exact matrix and every coherence diagram is a matrix equality.
"""

from math import lcm

from . import _kernel as K
from .errors import PipelineError
from .exact_math import Cyclotomic, Matrix, _add, _axpy, _scale, _tensor
from .extension import bar_quotient, make_frobenius_data, rescale_frobenius_data, right_integral_bar_dual
from .hopf_core import antipode_inverse
from .module_theory import HModule, ModuleMap, tensor_modules, trivial_module, restrict
from .reports import Report


class InductionContext:
    """An inclusion together with a chosen Frobenius morphism and free basis.

    ``_cache`` holds what the context builds, so each structure is built once
    per context:

    - ``("ddec", i)``, ``("bdec", q)`` and ``("trp", p, i)``: decompositions
      of delta_i and of the basis element e_q, and tr_K(e_p h_i);
    - ``("ind", name, key(V))``: ``induce(self, V)``;
    - ``("lax", key(V), key(U))`` and ``("oplax", key(V), key(U))``:
      ``lax_pair`` and ``oplax_pair``;
    - ``("zind", name, key(M.module), M.coaction.key())``: ``z_induce(self, M)``;
    - ``("zten", zkey(M), zkey(N))``: ``yd_tensor`` of ZInd(M) and ZInd(N),
      which ``verify_braided_frobenius`` checks the braiding against;
      ``zkey(M)`` is the ``"zind"`` key of M without its first element.

    ``key(V)`` is the module's value, (algebra name, conductor, ``key()`` of
    each action matrix), so equal modules built separately (as
    ``tensor_modules`` does on every call) share an entry. Results that
    carry a name are keyed by the name too. The lax structure scales with
    the Frobenius morphism, so a rescaled context is a new object with a
    cache of its own.
    """

    __slots__ = ("incl", "frob", "central", "_cache")

    def __init__(self, incl, frob, central=None):
        self.incl = incl
        self.frob = frob
        self.central = central
        self._cache = {}

    @property
    def rank(self):
        return len(self.frob.free)

    @property
    def N(self):
        return self.incl.N

    def free_vec(self, i):
        return self.incl.H.basis_vec(self.frob.free[i])

    def delta_parts(self, i):
        """Right decomposition of delta_i: list over j of sparse K-coord vectors."""
        key = ("ddec", i)
        got = self._cache.get(key)
        if got is None:
            got = self.frob.right_decomp(self.frob.delta_vec(i))
            self._cache[key] = got
        return got

    def basis_parts(self, q):
        """Right decomposition of the basis element e_q of H."""
        key = ("bdec", q)
        got = self._cache.get(key)
        if got is None:
            got = self.frob.right_decomp({q: K.s_one(self.incl.ctx)})
            self._cache[key] = got
        return got

    def tr_prod(self, p, i):
        """tr_K coordinates of e_p * h_i as a sparse dict."""
        key = ("trp", p, i)
        got = self._cache.get(key)
        if got is None:
            H = self.incl.H
            got = self.frob.tr_vec(H.mult_vec(H.basis_vec(p), self.free_vec(i)))
            self._cache[key] = got
        return got


def induction_context(incl, lam_scale=1):
    """Build the context (bar quotient, integral, Frobenius data) for induction."""
    from .extension import is_central_extension, is_frobenius_extension

    bq = bar_quotient(incl)
    lam0 = right_integral_bar_dual(bq)
    decision = is_frobenius_extension(incl, bq, lam0)
    if not decision.frobenius:
        raise PipelineError("inclusion %r is not a Frobenius extension" % incl)
    frob = make_frobenius_data(incl, bq, lam0, lam_scale=lam_scale)
    central = is_central_extension(incl, bq, lam0, tr_K=frob.tr_K)
    return InductionContext(incl, frob, central=central)


def _module_key(V):
    """A module's value: equal modules built separately share the key."""
    return (V.H.name, V.N, tuple(a.key() for a in V.action))


def _act_K(V, kvec, conductor, ctxN):
    """Action matrix of a sparse K-vector whose scalars live at conductor ctxN."""
    return Matrix.lincomb(
        V.dim, V.dim, conductor, ((V.action[b], Cyclotomic(ctxN, c)) for b, c in kvec.items())
    )


def _at(t, d):
    """The indices of block t of size d."""
    return range(t * d, (t + 1) * d)


def _pair_map(i, dV, j, dU, rU):
    """Index of (i*dV + a) x (j*dU + b) in a tensor product whose right
    factor has dimension rU*dU, over a < dV and b < dU in row-major order."""
    return [(i * dV + a) * (rU * dU) + j * dU + b for a in range(dV) for b in range(dU)]


def _add_block(ctx, out, blk, rmap, cmap):
    """out[rmap[b]][cmap[a]] += blk[b][a] over the nonzero entries of the Matrix blk."""
    for b, row in enumerate(blk.srows):
        orow = out[rmap[b]]
        for a, v in row.items():
            _add(ctx, orow, cmap[a], v)


class InducedModule:
    """H (x)_K V with carrier basis (free index i, source index a) -> i*dimV + a."""

    __slots__ = ("context", "source", "module")

    def __init__(self, context, source, module):
        self.context = context
        self.source = source
        self.module = module

    @property
    def dim(self):
        return self.module.dim

    def __repr__(self):
        return "InducedModule(%s, dim=%d)" % (self.source.name, self.module.dim)


class CoinducedModule:
    """Hom_K(H, V) on the basis dual to the free basis; action (h.f)(g) = f(gh)."""

    __slots__ = ("context", "source", "module")

    def __init__(self, context, source, module):
        self.context = context
        self.source = source
        self.module = module

    @property
    def dim(self):
        return self.module.dim


def _conductor_for(ictx, *modules):
    N = ictx.N
    for m in modules:
        N = lcm(N, m.N)
    return N


def induce(ictx, V):
    """Explicit action matrices for H (x)_K V."""
    memo = ("ind", V.name, _module_key(V))
    got = ictx._cache.get(memo)
    if got is not None:
        return got
    incl = ictx.incl
    H = incl.H
    r = ictx.rank
    d = V.dim
    conductor = _conductor_for(ictx, V)
    ctx = K.make_ctx(conductor)
    mats = []
    for g in range(H.dim):
        out = [{} for _ in range(r * d)]
        for i in range(r):
            w = H.mult_vec(H.basis_vec(g), ictx.free_vec(i))
            for j, kv in enumerate(ictx.frob.right_decomp(w)):
                if kv:
                    _add_block(ctx, out, _act_K(V, kv, conductor, incl.N), _at(j, d), _at(i, d))
        mats.append(Matrix.from_sparse(conductor, r * d, out))
    mod = HModule(H, mats, name="Ind(%s)" % V.name, N=conductor)
    got = ictx._cache[memo] = InducedModule(ictx, V, mod)
    return got


def ind_morphism(ictx, phi, src_ind=None, tgt_ind=None):
    """Ind of a K-module map: block-diagonal over the free basis."""
    r = ictx.rank
    conductor = lcm(ictx.N, phi.N)
    if src_ind is not None:
        conductor = lcm(conductor, src_ind.module.N)
    if tgt_ind is not None:
        conductor = lcm(conductor, tgt_ind.module.N)
    p = phi.lift(conductor)
    ds = p.cols
    out = [{i * ds + a: v for a, v in row.items()} for i in range(r) for row in p.srows]
    return Matrix.from_sparse(conductor, r * ds, out)


def coinduce(ictx, V):
    """Hom_K(H, V) with (h.f)(g) = f(gh), on the dual free basis."""
    incl = ictx.incl
    H = incl.H
    r = ictx.rank
    d = V.dim
    conductor = _conductor_for(ictx, V)
    ctx = K.make_ctx(conductor)
    mats = []
    for g in range(H.dim):
        out = [{} for _ in range(r * d)]
        for j in range(r):
            w = H.mult_vec(ictx.free_vec(j), H.basis_vec(g))
            for i, kv in enumerate(ictx.frob.left_decomp(w)):
                if kv:
                    _add_block(ctx, out, _act_K(V, kv, conductor, incl.N), _at(j, d), _at(i, d))
        mats.append(Matrix.from_sparse(conductor, r * d, out))
    mod = HModule(H, mats, name="CoInd(%s)" % V.name, N=conductor)
    return CoinducedModule(ictx, V, mod)


def theta_iso(ictx, V):
    """theta_V(h x v) = (g -> tr(gh) v) and its closed-form inverse, both verified."""
    incl = ictx.incl
    r = ictx.rank
    d = V.dim
    conductor = _conductor_for(ictx, V)
    ctx = K.make_ctx(conductor)
    ind = induce(ictx, V)
    coind = coinduce(ictx, V)
    theta = [{} for _ in range(r * d)]
    for i in range(r):
        for j in range(r):
            kv = ictx.tr_prod(ictx.frob.free[j], i)
            if kv:
                _add_block(ctx, theta, _act_K(V, kv, conductor, incl.N), _at(j, d), _at(i, d))
    theta = Matrix.from_sparse(conductor, r * d, theta)

    inv = [{} for _ in range(r * d)]
    for j in range(r):
        for t, kv in enumerate(ictx.delta_parts(j)):
            if kv:
                _add_block(ctx, inv, _act_K(V, kv, conductor, incl.N), _at(t, d), _at(j, d))
    theta_inv = Matrix.from_sparse(conductor, r * d, inv)
    if not (theta * theta_inv).is_identity() or not (theta_inv * theta).is_identity():
        raise PipelineError("theta and its closed-form inverse do not compose to identity")
    tm = ModuleMap(ind.module, coind.module, theta)
    if not tm.intertwines():
        raise PipelineError("theta is not a module map")
    return ind, coind, tm, ModuleMap(coind.module, ind.module, theta_inv)


def adjunction_maps(ictx, V, W):
    """The four unit/counit maps and their triangle identities.

    V is a K-module, W an H-module.  Returns (report, dict of matrices).
    """
    incl = ictx.incl
    conductor = lcm(_conductor_for(ictx, V), W.N)
    rep = Report("adjunction-maps")

    indV = induce(ictx, V)
    resW = restrict(incl, W)
    ind_res_indV = induce(ictx, restrict(incl, indV.module))
    unit_GF = unit_gf_at(ictx, W, conductor)
    counit_GF = counit_gf_at(ictx, V, conductor)
    unit_FG = unit_fg_at(ictx, V, conductor)
    counit_FG = counit_fg_at(ictx, W, conductor)

    # triangles for F -| G (F = Ind left adjoint)
    F_unit_FG = ind_morphism(ictx, unit_FG, indV, ind_res_indV)
    t1 = counit_fg_at(ictx, indV.module, conductor) * F_unit_FG
    rep.add("triangle-FG-left", t1.is_identity(), anchor="adjunction")
    t2 = counit_FG * unit_fg_at(ictx, resW, conductor)
    rep.add("triangle-FG-right", t2.is_identity(), anchor="adjunction")

    # triangles for G -| F (F = Ind right adjoint)
    F_counit_GF = ind_morphism(ictx, counit_GF, ind_res_indV, indV)
    t3 = F_counit_GF * unit_gf_at(ictx, indV.module, conductor)
    rep.add("triangle-GF-left", t3.is_identity(), anchor="adjunction")
    t4 = counit_gf_at(ictx, resW, conductor) * unit_GF
    rep.add("triangle-GF-right", t4.is_identity(), anchor="adjunction")

    maps = {
        "unit_GF": unit_GF,
        "counit_GF": counit_GF,
        "unit_FG": unit_FG,
        "counit_FG": counit_FG,
    }
    return rep, maps


def counit_fg_at(ictx, W, conductor):
    """counit^{F -| G} at the H-module W: Ind Res W -> W, h_i x w -> h_i w."""
    r = ictx.rank
    dW = W.dim
    ctx = K.make_ctx(conductor)
    out = [{} for _ in range(dW)]
    for i in range(r):
        blk = W.act_alg_vec(ictx.free_vec(i)).lift(conductor)
        _add_block(ctx, out, blk, range(dW), _at(i, dW))
    return Matrix.from_sparse(conductor, r * dW, out)


def unit_fg_at(ictx, V, conductor):
    """unit^{F -| G} at the K-module V: V -> Res Ind V, v -> 1 x v."""
    incl = ictx.incl
    dV = V.dim
    ctx = K.make_ctx(conductor)
    out = [{} for _ in range(ictx.rank * dV)]
    for t, kv in enumerate(ictx.frob.right_decomp(incl.H.unit_vec())):
        if kv:
            _add_block(ctx, out, _act_K(V, kv, conductor, incl.N), _at(t, dV), range(dV))
    return Matrix.from_sparse(conductor, dV, out)


def unit_gf_at(ictx, W, conductor):
    """unit^{G -| F} at the H-module W: W -> Ind Res W, w -> sum_i delta_i x h_i w."""
    incl = ictx.incl
    r = ictx.rank
    dW = W.dim
    resW = restrict(incl, W)
    ctx = K.make_ctx(conductor)
    out = [{} for _ in range(r * dW)]
    for i in range(r):
        hi_act = W.act_alg_vec(ictx.free_vec(i)).lift(conductor)
        for t, kv in enumerate(ictx.delta_parts(i)):
            if kv:
                blk = _act_K(resW, kv, conductor, incl.N) * hi_act
                _add_block(ctx, out, blk, _at(t, dW), range(dW))
    return Matrix.from_sparse(conductor, dW, out)


def counit_gf_at(ictx, V, conductor):
    """counit^{G -| F} at the K-module V: Res Ind V -> V, h_i x v -> tr(h_i) v."""
    incl = ictx.incl
    r = ictx.rank
    dV = V.dim
    ctx = K.make_ctx(conductor)
    out = [{} for _ in range(dV)]
    for i in range(r):
        kv = ictx.frob.tr_vec(ictx.free_vec(i))
        _add_block(ctx, out, _act_K(V, kv, conductor, incl.N), range(dV), _at(i, dV))
    return Matrix.from_sparse(conductor, r * dV, out)


# ---------------------------------------------------------------------------
# lax / oplax monoidal structure
# ---------------------------------------------------------------------------


def lax_pair(ictx, V, U):
    """lax_{V,U}: Ind V x Ind U -> Ind(V x U) and lax_0: 1 -> Ind(1)."""
    memo = ("lax", _module_key(V), _module_key(U))
    got = ictx._cache.get(memo)
    if got is not None:
        return got
    incl = ictx.incl
    H = incl.H
    r = ictx.rank
    n, m = H.dim, incl.K.dim
    dV, dU = V.dim, U.dim
    conductor = lcm(_conductor_for(ictx, V), U.N)
    ctx = K.make_ctx(conductor)
    VU = tensor_modules(V, U)
    out = [{} for _ in range(r * dV * dU)]

    for l in range(r):
        parts = ictx.delta_parts(l)
        hl = ictx.frob.free[l]
        for i in range(r):
            for j in range(r):
                # sigma_{l,i,j} = sum over Delta(h_l) of tr(p h_i) x tr(q h_j) in KxK
                acc = {}
                for x, s in H.comult[hl]:
                    p, q = divmod(x, n)
                    tp = ictx.tr_prod(p, i)
                    if not tp:
                        continue
                    tq = ictx.tr_prod(q, j)
                    if tq:
                        _tensor(incl.ctx, acc, _scale(incl.ctx, tp, s), tq, m)
                if not acc:
                    continue
                mat = Matrix.lincomb(
                    dV * dU, dV * dU, conductor,
                    ((V.action[x // m].kron(U.action[x % m]), Cyclotomic(incl.N, c))
                     for x, c in acc.items()),
                )
                cmap = _pair_map(i, dV, j, dU, r)
                for t, kv in enumerate(parts):
                    if kv:
                        blk = _act_K(VU, kv, conductor, incl.N) * mat
                        _add_block(ctx, out, blk, _at(t, dV * dU), cmap)
    lax = Matrix.from_sparse(conductor, (r * dV) * (r * dU), out)

    # lax_0: 1 -> Ind(1_K): sum_i eps_H(h_i) delta_i, decomposed
    w = {}
    for i in range(r):
        _axpy(incl.ctx, w, ictx.frob.delta_vec(i), H.counit[ictx.frob.free[i]])
    lax0_col = []
    for kv in ictx.frob.right_decomp(w):
        acc = K.s_zero(incl.ctx)
        for b, c in kv.items():
            acc = K.s_add(incl.ctx, acc, K.s_mul(incl.ctx, incl.K.counit[b], c))
        lax0_col.append(acc)
    lax0 = Matrix(incl.N, [[v] for v in lax0_col]).lift(conductor)
    got = ictx._cache[memo] = (lax, lax0)
    return got


def oplax_pair(ictx, V, U):
    """oplax_{V,U}: Ind(V x U) -> Ind V x Ind U and oplax_0: Ind(1) -> 1."""
    memo = ("oplax", _module_key(V), _module_key(U))
    got = ictx._cache.get(memo)
    if got is not None:
        return got
    incl = ictx.incl
    H = incl.H
    r = ictx.rank
    n = H.dim
    dV, dU = V.dim, U.dim
    conductor = lcm(_conductor_for(ictx, V), U.N)
    ctx = K.make_ctx(conductor)
    out = [{} for _ in range((r * dV) * (r * dU))]
    for i in range(r):
        hi = ictx.frob.free[i]
        for x, s in H.comult[hi]:
            p, q = divmod(x, n)
            parts_q = ictx.basis_parts(q)
            for t, kvp in enumerate(ictx.frob.right_decomp({p: s})):
                if not kvp:
                    continue
                blkV = _act_K(V, kvp, conductor, incl.N)
                for u2, kvq in enumerate(parts_q):
                    if kvq:
                        blk = blkV.kron(_act_K(U, kvq, conductor, incl.N))
                        _add_block(ctx, out, blk, _pair_map(t, dV, u2, dU, r), _at(i, dV * dU))
    oplax = Matrix.from_sparse(conductor, r * dV * dU, out)
    oplax0 = Matrix(
        incl.N, [[H.counit[ictx.frob.free[i]] for i in range(r)]]
    ).lift(conductor)
    got = ictx._cache[memo] = (oplax, oplax0)
    return got


def verify_lax_coherence(ictx, modules):
    """Associativity and unitality of lax, coassociativity/counitality of oplax,
    over all triples/objects from the supplied module list."""
    incl = ictx.incl
    rep = Report("lax-oplax-coherence")
    one = trivial_module(incl.K, N=incl.N)
    for V in modules:
        laxV1, lax0 = lax_pair(ictx, V, one)
        lax1V, _ = lax_pair(ictx, one, V)
        r = ictx.rank
        dV = V.dim
        conductor = laxV1.N
        indV = induce(ictx, V)
        idV = Matrix.identity(r * dV, conductor)
        # lax_{V,1} (id x lax0) = id
        m1 = laxV1 * idV.kron(lax0.lift(conductor))
        rep.add("lax-right-unital[%s]" % V.name, m1 == idV, anchor="lax-unitality")
        m2 = lax1V * lax0.lift(conductor).kron(idV)
        rep.add("lax-left-unital[%s]" % V.name, m2 == idV, anchor="lax-unitality")
        # oplax counitality
        oplaxV1, oplax0 = oplax_pair(ictx, V, one)
        m3 = idV.kron(oplax0.lift(conductor)) * oplaxV1
        rep.add("oplax-right-counital[%s]" % V.name, m3 == idV, anchor="oplax-unitality")
        oplax1V, _ = oplax_pair(ictx, one, V)
        m4 = oplax0.lift(conductor).kron(idV) * oplax1V
        rep.add("oplax-left-counital[%s]" % V.name, m4 == idV, anchor="oplax-unitality")
    for V in modules:
        for U in modules:
            for W in modules:
                VU = tensor_modules(V, U)
                UW = tensor_modules(U, W)
                lax_VU, _ = lax_pair(ictx, V, U)
                lax_UW, _ = lax_pair(ictx, U, W)
                lax_VU_W, _ = lax_pair(ictx, VU, W)
                lax_V_UW, _ = lax_pair(ictx, V, UW)
                conductor = lax_VU_W.N
                idW = Matrix.identity(ictx.rank * W.dim, conductor)
                idV = Matrix.identity(ictx.rank * V.dim, conductor)
                lhs = lax_VU_W * lax_VU.lift(conductor).kron(idW)
                rhs = lax_V_UW * idV.kron(lax_UW.lift(conductor))
                rep.add(
                    "lax-associative[%s,%s,%s]" % (V.name, U.name, W.name),
                    lhs == rhs,
                    anchor="lax-associativity",
                )
                oplax_VU, _ = oplax_pair(ictx, V, U)
                oplax_UW, _ = oplax_pair(ictx, U, W)
                oplax_VU_W, _ = oplax_pair(ictx, VU, W)
                oplax_V_UW, _ = oplax_pair(ictx, V, UW)
                lhs = oplax_VU.lift(conductor).kron(idW) * oplax_VU_W
                rhs = idV.kron(oplax_UW.lift(conductor)) * oplax_V_UW
                rep.add(
                    "oplax-coassociative[%s,%s,%s]" % (V.name, U.name, W.name),
                    lhs == rhs,
                    anchor="oplax-coassociativity",
                )
    return rep


def verify_frobenius_monoidal(ictx, V, U, W):
    """The two Frobenius compatibility squares for the triple (V, U, W)."""
    rep = Report("frobenius-monoidal[%s,%s,%s]" % (V.name, U.name, W.name))
    UW = tensor_modules(U, W)
    VU = tensor_modules(V, U)
    lax_VU, _ = lax_pair(ictx, V, U)
    lax_V_UW, _ = lax_pair(ictx, V, UW)
    oplax_UW, _ = oplax_pair(ictx, U, W)
    oplax_VU_W, _ = oplax_pair(ictx, VU, W)
    conductor = lcm(lax_VU.N, lcm(lax_V_UW.N, lcm(oplax_UW.N, oplax_VU_W.N)))
    r = ictx.rank
    idV = Matrix.identity(r * V.dim, conductor)
    idW = Matrix.identity(r * W.dim, conductor)
    lhs = lax_VU.lift(conductor).kron(idW) * idV.kron(oplax_UW.lift(conductor))
    rhs = oplax_VU_W.lift(conductor) * lax_V_UW.lift(conductor)
    rep.add("frobenius-square-1", lhs == rhs, anchor="frobmon")

    lax_UW, _ = lax_pair(ictx, U, W)
    lax_VU_W, _ = lax_pair(ictx, VU, W)
    oplax_VU, _ = oplax_pair(ictx, V, U)
    oplax_V_UW, _ = oplax_pair(ictx, V, UW)
    conductor = lcm(lax_UW.N, lcm(lax_VU_W.N, lcm(oplax_VU.N, oplax_V_UW.N)))
    idV = Matrix.identity(r * V.dim, conductor)
    idW = Matrix.identity(r * W.dim, conductor)
    lhs = idV.kron(lax_UW.lift(conductor)) * oplax_VU.lift(conductor).kron(idW)
    rhs = oplax_V_UW.lift(conductor) * lax_VU_W.lift(conductor)
    rep.add("frobenius-square-2", lhs == rhs, anchor="frobmon")
    return rep


def is_separable_functor(ictx, pairs, verify_witness=True):
    """Separability of the induction functor over the sampled pairs.

    Computes lax o oplax on Ind(V x U) for each pair.  The functor counts as
    separable when the composite is the same nonzero scalar multiple c of the
    identity on every pair (the lax structure scales linearly with the choice
    of Frobenius morphism, so c depends on the normalization while
    separability itself does not).  When verify_witness is set, the witness
    normalization lam/c is rebuilt and lax o oplax = id is confirmed strictly
    on the first pair.
    """
    strict = True
    scalar = None
    consistent = True
    for V, U in pairs:
        lax, _ = lax_pair(ictx, V, U)
        oplax, _ = oplax_pair(ictx, V, U)
        conductor = lcm(lax.N, oplax.N)
        comp = lax.lift(conductor) * oplax.lift(conductor)
        c = comp.is_scalar_multiple_of_identity()
        if c is None:
            strict = False
            consistent = False
            continue
        if not comp.is_identity():
            strict = False
        if scalar is None:
            scalar = c
        elif scalar != c:
            consistent = False
    separable = consistent and scalar is not None and not scalar.is_zero()
    witness_ok = None
    if separable and verify_witness and pairs:
        rescaled = InductionContext(
            ictx.incl,
            rescale_frobenius_data(ictx.frob, Cyclotomic.promote(1) / scalar),
            central=ictx.central,
        )
        V, U = pairs[0]
        lax, _ = lax_pair(rescaled, V, U)
        oplax, _ = oplax_pair(rescaled, V, U)
        conductor = lcm(lax.N, oplax.N)
        witness_ok = (lax.lift(conductor) * oplax.lift(conductor)).is_identity()
        separable = separable and witness_ok
    return {
        "separable": separable,
        "scalar": scalar,
        "strict_at_current_scale": strict,
        "witness_verified": witness_ok,
    }


# ---------------------------------------------------------------------------
# projection formula morphisms
# ---------------------------------------------------------------------------


class ProjectionMorphisms:
    __slots__ = ("lproj_GF", "lproj_FG", "rproj_GF", "rproj_FG", "report")

    def __init__(self, lproj_GF, lproj_FG, rproj_GF, rproj_FG, report):
        self.lproj_GF = lproj_GF
        self.lproj_FG = lproj_FG
        self.rproj_GF = rproj_GF
        self.rproj_FG = rproj_FG
        self.report = report


def projection_morphisms(ictx, W, V):
    """The four projection-formula maps for an H-module W and K-module V.

    Checks mutual invertibility of each pair and the closed-form inverses
    built from the antipode and its inverse.
    """
    incl = ictx.incl
    H = incl.H
    r = ictx.rank
    n, m = H.dim, incl.K.dim
    dW, dV = W.dim, V.dim
    conductor = lcm(_conductor_for(ictx, V), W.N)
    ctx = K.make_ctx(conductor)
    resW = restrict(incl, W)
    resWV = tensor_modules(resW, V)
    VresW = tensor_modules(V, resW)
    rep = Report("projection-morphisms")

    Wact = [W.act_alg_vec(H.basis_vec(i)).lift(conductor) for i in range(n)]

    # lproj^{F,G-|F}: W x F(V) -> F(GW x V)
    out = [{} for _ in range(r * dW * dV)]
    for l in range(r):
        parts = ictx.delta_parts(l)
        hl = ictx.frob.free[l]
        for i in range(r):
            acc = {}
            for x, s in H.comult[hl]:
                p, q = divmod(x, n)
                _tensor(incl.ctx, acc, {p: s}, ictx.tr_prod(q, i), m)
            if not acc:
                continue
            mat = Matrix.lincomb(
                dW * dV, dW * dV, conductor,
                ((Wact[x // m].kron(V.action[x % m]), Cyclotomic(incl.N, c))
                 for x, c in acc.items()),
            )
            cmap = _pair_map(0, dW, i, dV, r)
            for t, kv in enumerate(parts):
                if kv:
                    blk = _act_K(resWV, kv, conductor, incl.N) * mat
                    _add_block(ctx, out, blk, _at(t, dW * dV), cmap)
    lproj_GF = Matrix.from_sparse(conductor, dW * (r * dV), out)

    # lproj^{F,F-|G}: F(GW x V) -> W x F(V): h_i x (w x v) -> h_i(1) w x (h_i(2) x v)
    out = [{} for _ in range(dW * (r * dV))]
    for i in range(r):
        hi = ictx.frob.free[i]
        for x, s in H.comult[hi]:
            p, q = divmod(x, n)
            Wp = Wact[p].scale(Cyclotomic(incl.N, s))
            for t, kv in enumerate(ictx.basis_parts(q)):
                if kv:
                    blk = Wp.kron(_act_K(V, kv, conductor, incl.N))
                    _add_block(ctx, out, blk, _pair_map(0, dW, t, dV, r), _at(i, dW * dV))
    lproj_FG = Matrix.from_sparse(conductor, r * dW * dV, out)

    # rproj^{F,G-|F}: F(V) x W -> F(V x GW)
    out = [{} for _ in range(r * dV * dW)]
    for l in range(r):
        parts = ictx.delta_parts(l)
        hl = ictx.frob.free[l]
        for i in range(r):
            acc = {}
            for x, s in H.comult[hl]:
                p, q = divmod(x, n)
                _tensor(incl.ctx, acc, ictx.tr_prod(p, i), {q: s}, n)
            if not acc:
                continue
            mat = Matrix.lincomb(
                dV * dW, dV * dW, conductor,
                ((V.action[x // n].kron(Wact[x % n]), Cyclotomic(incl.N, c))
                 for x, c in acc.items()),
            )
            cmap = _pair_map(i, dV, 0, dW, 1)
            for t, kv in enumerate(parts):
                if kv:
                    blk = _act_K(VresW, kv, conductor, incl.N) * mat
                    _add_block(ctx, out, blk, _at(t, dV * dW), cmap)
    rproj_GF = Matrix.from_sparse(conductor, (r * dV) * dW, out)

    # rproj^{F,F-|G}: F(V x GW) -> F(V) x W: h_i x (v x w) -> (h_i(1) x v) x h_i(2) w
    out = [{} for _ in range((r * dV) * dW)]
    for i in range(r):
        hi = ictx.frob.free[i]
        for x, s in H.comult[hi]:
            p, q = divmod(x, n)
            for t, kv in enumerate(ictx.frob.right_decomp({p: s})):
                if kv:
                    blk = _act_K(V, kv, conductor, incl.N).kron(Wact[q])
                    _add_block(ctx, out, blk, _pair_map(t, dV, 0, dW, 1), _at(i, dV * dW))
    rproj_FG = Matrix.from_sparse(conductor, r * dV * dW, out)

    right_inv = (rproj_GF * rproj_FG).is_identity() and (rproj_FG * rproj_GF).is_identity()
    rep.add("rproj-pair-mutually-inverse", right_inv, anchor="projection-formula")
    left_inv = (lproj_GF * lproj_FG).is_identity() and (lproj_FG * lproj_GF).is_identity()
    rep.add(
        "lproj-pair-mutually-inverse",
        "pass" if left_inv else "fail",
        detail="expected iff central",
        anchor="projection-formula",
    )

    # closed-form inverses via the (inverse) antipode; column p of S^-1 and S
    # gives the coordinates of S^-1(e_p) and S(e_p)
    Sinv_cols = antipode_inverse(H).lift(conductor).transpose().srows
    S_cols = H.antipode_matrix().lift(conductor).transpose().srows
    idV = Matrix.identity(dV, conductor)
    SinvW = [None] * n
    SW = [None] * n

    # h_(2) x (S^-1(h_(1)) w x v): S^-1(h_(1)) acts on the W leg of each column
    out = [{} for _ in range(r * dW * dV)]
    for i in range(r):
        hi = ictx.frob.free[i]
        cmap = _pair_map(0, dW, i, dV, r)
        for x, s in H.comult[hi]:
            p, q = divmod(x, n)
            if SinvW[p] is None:
                SinvW[p] = Matrix.lincomb(
                    dW, dW, conductor,
                    ((Wact[t], Cyclotomic(conductor, c)) for t, c in Sinv_cols[p].items()),
                )
            Wp_id = SinvW[p].scale(Cyclotomic(incl.N, s)).kron(idV)
            for t, kv in enumerate(ictx.basis_parts(q)):
                if kv:
                    blk = _act_K(resWV, kv, conductor, incl.N) * Wp_id
                    _add_block(ctx, out, blk, _at(t, dW * dV), cmap)
    lproj_FG_inv = Matrix.from_sparse(conductor, dW * (r * dV), out)
    rep.add(
        "lproj-closed-form-inverse",
        (lproj_FG * lproj_FG_inv).is_identity() and (lproj_FG_inv * lproj_FG).is_identity(),
        anchor="projection-inverses",
    )

    # h_(1) x (v x S(h_(2)) w): S(h_(2)) acts on the W leg of each column
    out = [{} for _ in range(r * dV * dW)]
    for i in range(r):
        hi = ictx.frob.free[i]
        cmap = _pair_map(i, dV, 0, dW, 1)
        for x, s in H.comult[hi]:
            p, q = divmod(x, n)
            if SW[q] is None:
                SW[q] = Matrix.lincomb(
                    dW, dW, conductor,
                    ((Wact[t], Cyclotomic(conductor, c)) for t, c in S_cols[q].items()),
                )
            id_Wq = idV.kron(SW[q].scale(Cyclotomic(incl.N, s)))
            for t, kv in enumerate(ictx.basis_parts(p)):
                if kv:
                    blk = _act_K(VresW, kv, conductor, incl.N) * id_Wq
                    _add_block(ctx, out, blk, _at(t, dV * dW), cmap)
    rproj_FG_inv = Matrix.from_sparse(conductor, (r * dV) * dW, out)
    rep.add(
        "rproj-closed-form-inverse",
        (rproj_FG * rproj_FG_inv).is_identity() and (rproj_FG_inv * rproj_FG).is_identity(),
        anchor="projection-inverses",
    )

    if ictx.central is not None:
        rep.add(
            "lproj-invertibility-matches-centrality",
            left_inv == ictx.central,
            anchor="central-frobenius",
        )
    return ProjectionMorphisms(lproj_GF, lproj_FG, rproj_GF, rproj_FG, rep)
