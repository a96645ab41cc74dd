"""Yetter-Drinfeld modules, their braiding, and the lift of induction to
Yetter-Drinfeld categories over a central Frobenius extension."""

from math import lcm

from . import _kernel as K
from .errors import PipelineError, ShapeError
from .exact_math import Matrix, _add, id_kron, kron_id
from .extension import is_central_extension
from .induction import _insertion, basis_parts, induce, ind_morphism, lax_pair, oplax_pair
from .hopf_core import _first_defect, algebra_generators, cached
from .module_theory import HModule, intertwines, tensor_modules
from .reports import Report


class YDModule(HModule):
    """A module with a compatible coaction; coaction matrix rows indexed
    (H-index)*dim + v-index.  It is named, keyed and compared by its module:
    ``key()`` and ``==`` read the action only."""

    __slots__ = ("coaction", "_terms")

    def __init__(self, module, coaction):
        n = module.H.dim
        if coaction.rows != n * module.dim or coaction.cols != module.dim:
            raise ShapeError(
                "coaction must be %dx%d, got %dx%d"
                % (n * module.dim, module.dim, coaction.rows, coaction.cols)
            )
        HModule.__init__(self, module.H, module.action, name=module.name,
                         N=lcm(module.N, coaction.N))
        self.coaction = coaction.lift(self.N)
        d = self.dim
        self._terms = [
            {divmod(row, d): v for row, v in col.items()} for col in self.coaction.transpose().srows
        ]

    def coaction_terms(self, a):
        """Coaction of the a-th basis vector as {(h_index, v_index): raw}."""
        return self._terms[a]

    def __repr__(self):
        return "YDModule(%s over %s, dim=%d)" % (self.name, self.H.name, self.dim)


def trivial_yd(H, N=1):
    from .module_theory import trivial_module

    mod = trivial_module(H, N=N)
    return YDModule(mod, Matrix(H.N, [[v] for v in H.unit]))


def yd_line(H, degree_index, char_values, name=None):
    """One-dimensional YD module over a group algebra: a graded character line."""
    mats = [Matrix.from_rows([[v]]) for v in char_values]
    mod = HModule(H, mats, name=name or "line")
    return YDModule(mod, Matrix.from_rows([[int(i == degree_index)] for i in range(H.dim)]))


def _yd_defect(M, lefts=None):
    """The first (i, a), i in lefts (all of H by default), with
    delta(e_i v_a) != h_1 v_a(-1) S(h_3) x h_2 v_a(0) for h = e_i; the twist
    h_1 g S(h_3) x h_2 is read from H.yd_twist (H is lifted to the module's
    conductor)."""
    H = M.H
    ctx = K.make_ctx(M.N)
    cols = [m.transpose().srows for m in M.action]
    for i in range(H.dim) if lefts is None else lefts:
        for a in range(M.dim):
            lhs = {}
            for b, cb in cols[i][a].items():
                for key, v in M.coaction_terms(b).items():
                    _add(ctx, lhs, key, K.s_mul(ctx, cb, v))
            rhs = {}
            for (g, a0), v in M.coaction_terms(a).items():
                for (k, q), t in H.yd_twist(i, g):
                    tv = K.s_mul(ctx, t, v)
                    for b, vb in cols[q][a0].items():
                        _add(ctx, rhs, (k, b), K.s_mul(ctx, tv, vb))
            if lhs != rhs:
                return (i, a)
    return None


def verify_yd(M):
    """Comodule axioms plus the Yetter-Drinfeld compatibility.

    The compatibility is scanned for h in ``algebra_generators(H)`` only
    (see ``HModule``): the h for which it holds on every v contain 1 and are
    closed under products, since the action is multiplicative, Delta is
    multiplicative and S anti-multiplicative.  A defect found there is looked
    up again by the full scan."""
    H = M.H
    n = H.dim
    d = M.dim
    conductor = M.N
    ctx = K.make_ctx(conductor)
    rep = Report("verify-yd %s" % M.name)

    # counit axiom: (eps x id) delta = id
    ok = True
    for a in range(d):
        acc = [K.s_zero(ctx)] * d
        for (h, b), v in M.coaction_terms(a).items():
            acc[b] = K.s_add(ctx, acc[b], K.s_mul(ctx, H.counit[h], v))
        for b in range(d):
            expected = K.s_one(ctx) if b == a else K.s_zero(ctx)
            if acc[b] != expected:
                ok = False
    rep.add("comodule-counital", ok, anchor="comodule-axioms")

    # coassociativity: (Delta x id) delta = (id x delta) delta
    w = None
    for a in range(d):
        lhs = {}
        rhs = {}
        for (h, b), v in M.coaction_terms(a).items():
            for x, s in H.comult[h]:
                _add(ctx, lhs, divmod(x, n) + (b,), K.s_mul(ctx, v, s))
            for (h2, c2), v2 in M.coaction_terms(b).items():
                _add(ctx, rhs, (h, h2, c2), K.s_mul(ctx, v, v2))
        if lhs != rhs:
            w = a
            break
    rep.add("comodule-coassociative", w is None, witness=w, anchor="comodule-axioms")

    w = _first_defect(_yd_defect, algebra_generators(H), M)
    rep.add("yd-compatibility", w is None, witness=w, anchor="yd-condition")
    return rep


def yd_tensor(M, N_mod):
    """Tensor product: diagonal action, coaction via the multiplication."""
    if M.H.name != N_mod.H.name:
        raise ShapeError("tensor of YD modules over different algebras")
    return YDModule(tensor_modules(M, N_mod), yd_coaction(M, N_mod))


def yd_coaction(M, N_mod):
    """The coaction of M (x) N_mod: v x w -> v(-1) w(-1) x v(0) x w(0), over
    Q(zeta_lcm(M.N, N_mod.N))."""
    conductor = lcm(M.N, N_mod.N)
    ctx = K.make_ctx(conductor)
    H = M.H.lifted(conductor)
    n = H.dim
    dM, dN = M.dim, N_mod.dim
    rows = [{} for _ in range(n * dM * dN)]
    Mcols = M.coaction.lift(conductor).transpose().srows
    Ncols = N_mod.coaction.lift(conductor).transpose().srows
    for a in range(dM):
        for b in range(dN):
            for row_a, v in Mcols[a].items():
                g, a0 = divmod(row_a, dM)
                for row_b, u in Ncols[b].items():
                    h, b0 = divmod(row_b, dN)
                    vu = K.s_mul(ctx, v, u)
                    for k2, s in H.mult[g * n + h]:
                        row = rows[k2 * dM * dN + a0 * dN + b0]
                        _add(ctx, row, a * dN + b, K.s_mul(ctx, vu, s))
    return Matrix.from_sparse(conductor, dM * dN, rows)


def yd_braiding(M, N_mod):
    """Psi(v x w) = (v^(-1) . w) x v^(0), the braiding M (x) N -> N (x) M.

    It is an invertible YD map for any two YD modules over a finite-dimensional
    Hopf algebra (the YD category is braided), so it is built, not checked."""
    conductor = lcm(M.N, N_mod.N)
    ctx = K.make_ctx(conductor)
    dM, dN = M.dim, N_mod.dim
    rows = [{} for _ in range(dN * dM)]
    Mcols = M.coaction.lift(conductor).transpose().srows
    act = N_mod._action_rows(conductor)
    for a in range(dM):
        for row, v in Mcols[a].items():
            g, a0 = divmod(row, dM)
            for b0, arow in enumerate(act[g]):
                for b, u in arow.items():
                    _add(ctx, rows[b0 * dM + a0], a * dN + b, K.s_mul(ctx, v, u))
    return Matrix.from_sparse(conductor, dM * dN, rows)


def is_yd_map(H, src, tgt, mat):
    """mat intertwines the actions of src and tgt, each given as (actions by
    basis element of H, coaction or None for a plain module), and their
    coactions when src has one: a morphism of H-modules, or of YD modules."""
    (src_act, src_coact), (tgt_act, tgt_coact) = src, tgt
    if not intertwines(H, src_act, tgt_act, mat):
        return False
    return src_coact is None or tgt_coact * mat == id_kron(H.dim, mat) * src_coact


def yd_hexagons(A, B, C):
    """Both braided hexagon identities on the triple (A, B, C)."""
    psi_ab = yd_braiding(A, B)
    psi_ac = yd_braiding(A, C)
    psi_bc = yd_braiding(B, C)
    AB = yd_tensor(A, B)
    BC = yd_tensor(B, C)
    psi_a_bc = yd_braiding(A, BC)
    psi_ab_c = yd_braiding(AB, C)
    # Psi_{A, B x C} = (id_B x Psi_{A,C}) (Psi_{A,B} x id_C)
    ok1 = psi_a_bc == id_kron(B.dim, psi_ac) * kron_id(psi_ab, C.dim)
    # Psi_{A x B, C} = (Psi_{A,C} x id_B) (id_A x Psi_{B,C})
    ok2 = psi_ab_c == kron_id(psi_ac, B.dim) * id_kron(A.dim, psi_bc)
    return ok1 and ok2


def yd_braiding_natural(f_src, f_tgt, g_src, g_tgt, f_mat, g_mat):
    """Naturality square of the braiding for YD maps f: f_src->f_tgt, g: g_src->g_tgt."""
    psi1 = yd_braiding(f_src, g_src)
    psi2 = yd_braiding(f_tgt, g_tgt)
    return psi2 * f_mat.kron(g_mat) == g_mat.kron(f_mat) * psi1


# ---------------------------------------------------------------------------
# the lift of induction to YD categories
# ---------------------------------------------------------------------------


@cached(key=lambda M: (M.name, M.key(), M.coaction.key()))
def z_induce(frob, M):
    """Induce a YD module over K to one over H along a central Frobenius extension.

    delta(h x v) = h_(1) v^(-1) S(h_(3)) x (h_(2) x v^(0)), with the twist
    h_(1) g S(h_(3)) x h_(2) read from ``H.yd_twist`` over H lifted to the
    induced module's conductor.  The result is built once per Frobenius data
    and YD module value.  It is a YD module by theorem whenever K is a Hopf
    subalgebra of H and M a YD module over K, with no Frobenius or centrality
    hypothesis (notes/decisions.md, "ZInd(M) is a Yetter-Drinfeld module by
    theorem"), so it is not verified again.
    """
    incl = frob.incl
    if not is_central_extension(incl):
        raise PipelineError("z_induce requires a central Frobenius extension")
    r = frob.rank
    ind = induce(frob, M)
    H = ind.H
    conductor = ind.N
    ctx = K.make_ctx(conductor)
    d = M.dim
    dim = r * d
    coact = M.coaction.lift(conductor).transpose().srows
    embed = incl.embed.lift(conductor).transpose().srows
    iota = {}
    rows = [{} for _ in range(H.dim * dim)]
    for i in range(r):
        hi = frob.free[i]
        for a in range(d):
            for row, v in coact[a].items():
                g, a0 = divmod(row, d)
                for j, e in embed[g].items():
                    ev = K.s_mul(ctx, e, v)
                    for (k, q), tw in H.yd_twist(hi, j):
                        cols = iota.get(q)
                        if cols is None:
                            # the columns of iota_M(e_q): v -> e_q (x)_K v
                            cols = iota[q] = _insertion(
                                frob, M, [basis_parts(frob.right_decomp, q)]
                            ).transpose().srows
                        c = K.s_mul(ctx, tw, ev)
                        for tb, w in cols[a0].items():
                            _add(ctx, rows[k * dim + tb], i * d + a, K.s_mul(ctx, c, w))
    return YDModule(ind, Matrix.from_sparse(conductor, dim, rows))


def verify_braided_frobenius(frob, M, N_mod):
    """Both braided compatibility squares for the pair (M, N) of K-YD modules.

    Only ZInd(M) and ZInd(N) are built; ZInd(M (x) N) is not, since no
    square reads it.  ZInd(M) and ZInd(N) are YD modules, and the braidings
    of M, N and of ZInd(M), ZInd(N) YD isomorphisms, by theorem, so neither
    is checked and no tensor product of YD modules is built.
    """
    rep = Report("braided-frobenius[%s,%s]" % (M.name, N_mod.name))
    FM = z_induce(frob, M)
    FN = z_induce(frob, N_mod)

    psi_K = yd_braiding(M, N_mod)
    F_psi = ind_morphism(frob, psi_K)
    psi_H = yd_braiding(FM, FN)

    lhs = lax_pair(frob, N_mod, M) * psi_H
    rhs = F_psi * lax_pair(frob, M, N_mod)
    rep.add("lax-braided", lhs == rhs, anchor="braided-lax")
    lhs = oplax_pair(frob, N_mod, M) * F_psi
    rhs = psi_H * oplax_pair(frob, M, N_mod)
    rep.add("oplax-braided", lhs == rhs, anchor="braided-oplax")
    return rep


def yd_as_double_module(D, H, yd):
    """Convert a YD module over H into a module over Drin(H) = H* x H.

    Action: (f x h) . v = (f x id)(delta(h . v)).
    """
    n = H.dim
    conductor = lcm(D.N, yd.N)
    d = yd.dim
    coact = yd.coaction.lift(conductor)
    mats = []
    for c in range(n):
        Pc = Matrix.from_sparse(conductor, d, coact.srows[c * d : (c + 1) * d])
        for dd in range(n):
            mats.append(Pc * yd.action[dd])
    return HModule(D, mats, name="Drin(%s)" % yd.name, N=conductor)
