"""Hopf subalgebra inclusions and their Frobenius-extension analysis.

For an inclusion K -> H the pipeline computes the quotient coalgebra
Hbar = H/HK+, the right integral of Hbar*, the relative modular function
chi, the Frobenius decision (chi = eps), the Frobenius morphism tr, a free
basis with its dual basis, centrality and normality tests.  Everything is
exact.  What carries information is checked: chi's defining identity, that
tr lands in K, and that the dual-basis system is nonsingular; the rest of
the Frobenius system holds by theorem (notes/decisions.md, "The Frobenius
system holds by chi and by rank").
"""

from math import gcd, lcm

from . import _kernel as K
from .errors import HopfkitError, InconsistentSystemError, PipelineError, ShapeError
from .exact_math import (
    Cyclotomic,
    Matrix,
    RowSpace,
    _add,
    _apply,
    _axpy,
    _clean,
    _dense,
    _dot,
    _scale,
    _tensor,
    rref_raw,
)
from .hopf_core import (
    _first_defect,
    algebra_generators,
    cached,
    integral_space,
    is_dual_unimodular,
    is_symmetric,
    right_integral_of_dual,
)
from .reports import Report


class HopfInclusion:
    """An embedding K -> H given by the matrix of images of K's basis.

    The derived checks take it to be a Hopf algebra map: a catalogue
    constructor builds one by construction, and the command line refuses an
    inclusion bundle that fails ``verify_inclusion``."""

    __slots__ = ("K", "H", "embed", "ctx", "_cache")

    def __init__(self, sub, big, embed):
        N = lcm(sub.N, big.N)
        N = lcm(N, embed.N)
        self.K = sub.lifted(N)
        self.H = big.lifted(N)
        self.embed = embed.lift(N)
        if self.embed.rows != self.H.dim or self.embed.cols != self.K.dim:
            raise ShapeError(
                "embed must be %dx%d, got %dx%d"
                % (self.H.dim, self.K.dim, self.embed.rows, self.embed.cols)
            )
        self.ctx = self.H.ctx
        self._cache = {}

    @property
    def N(self):
        return self.H.N

    @cached()
    def embed_cols(self):
        """The column table of embed: the images of K's basis vectors as
        sparse H-vectors."""
        return self.embed.transpose().srows

    def embed_col(self, b):
        """Image of the b-th K-basis vector as a sparse H-vector."""
        return self.embed_cols()[b]

    def embed_vec(self, kvec):
        return _apply(self.ctx, self.embed_cols(), kvec)

    @cached()
    def image_space(self):
        return rref_raw(self.embed_cols(), self.H.dim, self.ctx)

    def __repr__(self):
        return "HopfInclusion(%s -> %s)" % (self.K.name, self.H.name)


def trivial_inclusion(H):
    """The identity inclusion H -> H."""
    return HopfInclusion(H, H, Matrix.identity(H.dim, H.N))


def unit_inclusion(H, base_field_hopf):
    """The inclusion of the ground field (as a one-dimensional Hopf algebra)."""
    embed = Matrix(H.N, [[v] for v in H.unit])
    return HopfInclusion(base_field_hopf, H, embed)


# ---------------------------------------------------------------------------
# inclusion verification
# ---------------------------------------------------------------------------


def _mult_defect(incl, lefts=None):
    """The first (a, b), a in lefts (all of K by default), where
    embed(k_a k_b) = embed(k_a) embed(k_b) fails."""
    Kk, H = incl.K, incl.H
    m = Kk.dim
    for a in range(m) if lefts is None else lefts:
        for b in range(m):
            lhs = incl.embed_vec(dict(Kk.mult[a * m + b]))
            if lhs != H.mult_vec(incl.embed_col(a), incl.embed_col(b)):
                return (a, b)
    return None


@cached()
def verify_inclusion(incl):
    """Injectivity plus all five Hopf-map intertwining conditions.

    Once embed(1_K) = 1_H holds, multiplicativity is scanned for left factors
    in G_K (notes/decisions.md, "Identities K-linear in h are decided on a
    K-basis of H"); a defect found there is looked up again by the full scan,
    whose first witness the report names.  The other conditions are scanned
    over every basis element of K.  The report is formed once per inclusion
    and kept in its cache, so the command line's check of a bundle and
    ``analyze_extension`` share it."""
    Kk, H = incl.K, incl.H
    ctx = incl.ctx
    n, m = H.dim, Kk.dim
    rep = Report("verify-inclusion %s -> %s" % (Kk.name, H.name))

    rep.add("embed-injective", incl.embed.rank() == m, anchor="hopf-map")

    unital = incl.embed_vec(Kk.unit_vec()) == H.unit_vec()
    w = _first_defect(_mult_defect, algebra_generators(Kk) if unital else None, incl)
    rep.add("mult-intertwines", w is None, witness=w, anchor="hopf-map")
    rep.add("unit-intertwines", unital, anchor="hopf-map")

    w = None
    for a in range(m):
        lhs = {}
        for x, s in Kk.comult[a]:
            p, q = divmod(x, m)
            _tensor(ctx, lhs, _scale(ctx, incl.embed_col(p), s), incl.embed_col(q), n)
        if lhs != H.comult_vec(incl.embed_col(a)):
            w = a
            break
    rep.add("comult-intertwines", w is None, witness=w, anchor="hopf-map")

    w = None
    for a in range(m):
        if _dot(ctx, H.counit, incl.embed_col(a)) != Kk.counit[a]:
            w = a
            break
    rep.add("counit-intertwines", w is None, witness=w, anchor="hopf-map")

    w = None
    for a in range(m):
        lhs = incl.embed_vec(dict(Kk.antipode_cols[a]))
        if lhs != H.antipode_vec(incl.embed_col(a)):
            w = a
            break
    rep.add("antipode-intertwines", w is None, witness=w, anchor="hopf-map")
    return rep


# ---------------------------------------------------------------------------
# the quotient coalgebra Hbar = H / HK+
# ---------------------------------------------------------------------------


class BarQuotient:
    """H/HK+ with deterministic coset representatives (lex-first H-basis
    vectors) and ``proj_cols[i]`` = proj(e_i), the remainder of e_i modulo
    HK+ written on them; a coalgebra under FinHopf's field names ``dim``,
    ``comult`` and ``unit`` (the image of 1_H), so ``right_integral_of_dual``
    and ``is_symmetric`` run on it as on H."""

    __slots__ = ("incl", "reps", "dim", "N", "ctx", "proj_cols", "comult", "unit", "_cache")
    name = "Hbar"

    def __init__(self, incl, reps, proj_cols):
        self.incl = incl
        self.reps = tuple(reps)
        self.dim = len(self.reps)
        self.N = incl.N
        self.ctx = incl.ctx
        self.proj_cols = tuple(proj_cols)
        self.comult = tuple(tuple(sorted(self.proj_comult(i).items())) for i in self.reps)
        self.unit = tuple(_dense(self.ctx, self.proj_vec(incl.H.unit_vec()), self.dim))
        self._cache = {}

    def proj_vec(self, hvec):
        """Image of a sparse H-vector in Hbar coordinates."""
        return _apply(self.ctx, self.proj_cols, hvec)

    def proj_comult(self, i):
        """(proj x proj) Delta_H(h_i) in Hbar x Hbar coordinates."""
        ctx = self.ctx
        n = self.incl.H.dim
        out = {}
        for x, s in self.incl.H.comult[i]:
            j, k = divmod(x, n)
            _tensor(ctx, out, _scale(ctx, self.proj_cols[j], s), self.proj_cols[k], self.dim)
        return out

    def __repr__(self):
        return "BarQuotient(dim=%d of %s)" % (self.dim, self.incl.H.name)


@cached()
def bar_quotient(incl):
    """Hbar = H/HK+ with its coalgebra structure; a function of the
    inclusion, so it is built once and kept in the inclusion's cache.  Hbar
    is a coalgebra and proj a coalgebra map by theorem, so nothing is
    checked here (notes/decisions.md, "Hbar is a coalgebra by theorem").  HK+ is
    spanned by the products h(g - eps(g)1), g in G_K (notes/decisions.md,
    "HK+ and the K-linear checks run on generators of K"): the row space of
    h w over a basis of K+, so it has the same reduced echelon form.

    The rows are added with the column order reversed, c -> n-1-c, so a
    row's pivot is its last H-column.  Then e_t is not in HK+ +
    span(e_s : s < t) exactly when no row of HK+ ends at t: the lex-first
    representatives are the non-pivot columns, and the remainder of e_i
    modulo HK+, written on them, is proj(e_i) (notes/decisions.md, "Hbar and
    the left K-coordinates are read off eliminations already made")."""
    H, Kk = incl.H, incl.K
    ctx = incl.ctx
    n = H.dim
    last = n - 1

    sub = RowSpace(n, ctx)
    for g in algebra_generators(Kk):
        wimg = incl.embed_vec(_axpy(ctx, Kk.basis_vec(g), Kk.unit_vec(), K.s_neg(Kk.counit[g])))
        for i in range(n):
            sub.add({last - c: s for c, s in H.mult_vec(H.basis_vec(i), wimg).items()})

    pivots = set(sub.pivots)
    reps = [t for t in range(n) if last - t not in pivots]
    pos = {last - t: k for k, t in enumerate(reps)}
    one = K.s_one(ctx)
    proj_cols = [{pos[c]: s for c, s in sub.reduce({last - i: one}).items()} for i in range(n)]
    return BarQuotient(incl, reps, proj_cols)


# ---------------------------------------------------------------------------
# integrals, modular function, Frobenius decision
# ---------------------------------------------------------------------------


def right_integral_bar_dual(bq):
    """The right integral of Hbar* (unique up to scale), first-nonzero normalized."""
    return right_integral_of_dual(bq)


@cached()
def lift_bar_functional(bq):
    """lambda o proj as a functional on H, the tuple of its raw values, for
    the right integral lambda of Hbar*; cached on bq."""
    lam = right_integral_of_dual(bq)
    return tuple(_dot(bq.ctx, lam, col) for col in bq.proj_cols)


def _lambda_products(H, lamH, lefts, rights):
    """{a: row} for each a in lefts, where row is the sparse vector
    {j: lambda(bar(h_a h_j))} over the j in rights, read off H's
    multiplication table and the lifted values lamH of lambda."""
    ctx = H.ctx
    n = H.dim
    lam = {k: v for k, v in enumerate(lamH) if not K.s_is_zero(v)}
    out = {}
    for a in lefts:
        row = {}
        for j in rights:
            for k, s in H.mult[a * n + j]:
                v = lam.get(k)
                if v is not None:
                    _add(ctx, row, j, K.s_mul(ctx, v, s))
        out[a] = row
    return out


def _k_lambda_rows(incl, lamH, hs):
    """[{i: lambda(bar(k_b h_i)) for i in hs} for each embedded K-basis
    vector k_b], from the products of the H-basis vectors in its support."""
    cols = incl.embed_cols()
    prods = _lambda_products(incl.H, lamH, sorted({a for col in cols for a in col}), hs)
    return [_apply(incl.ctx, prods, col) for col in cols]


def _modular_defect(incl, lamH, chi, hs=None):
    """The first (b, i), i in hs (all of H by default), where
    lambda(bar(k_b h_i)) = chi(k_b) lambda(bar(h_i)) fails."""
    ctx = incl.ctx
    z = ctx[3]
    hs = range(incl.H.dim) if hs is None else hs
    for b, row in enumerate(_k_lambda_rows(incl, lamH, hs)):
        cb = chi[b]
        for i in hs:
            if row.get(i, z) != K.s_mul(ctx, cb, lamH[i]):
                return (b, i)
    return None


def relative_modular_function(incl):
    """chi on K with lambda(bar(k h)) = chi(k) lambda(bar(h)), as the tuple
    of its raw values chi(k_b); verified globally.

    Both sides vanish on HK+, so the identity is scanned on the coset
    representatives (notes/decisions.md, "Identities K-linear in h are
    decided on a K-basis of H"); a defect found there is looked up again by
    the full scan, whose first pair the error names.  Once the identity
    holds, chi is an algebra map by theorem.  This scan is what the
    Frobenius decision and the K-linearity of tr rest on
    (notes/decisions.md, "The Frobenius system holds by chi and by rank")."""
    bq = bar_quotient(incl)
    lamH = lift_bar_functional(bq)
    # the first representative where lambda o proj does not vanish; lambda is
    # normalized to 1 there, so chi(k) = lambda(bar(k h0))
    h0 = next(r for r in bq.reps if not K.s_is_zero(lamH[r]))
    z = K.s_zero(incl.ctx)
    chi = tuple(row.get(h0, z) for row in _k_lambda_rows(incl, lamH, [h0]))
    w = _first_defect(_modular_defect, bq.reps, incl, lamH, chi)
    if w is not None:
        raise PipelineError("no relative modular function: condition fails at (k=%d, h=%d)" % w)
    return chi


def check_integral_type(incl):
    """An element Lambda in H with lambda(bar(Lambda h)) = eps(h) for all h, or None.

    Both sides vanish on HK+, so only the equations at the coset
    representatives are imposed: d rows, whose row space is that of all n,
    hence the same reduced system and the same particular solution
    (notes/decisions.md, "Identities K-linear in h are decided on a K-basis
    of H")."""
    H = incl.H
    n = H.dim
    bq = bar_quotient(incl)
    reps = bq.reps
    prods = _lambda_products(H, lift_bar_functional(bq), range(n), reps)
    # row j, column t: lambda(bar(h_t h_j)), for j in reps
    rows = {j: {} for j in reps}
    for t in range(n):
        for j, v in prods[t].items():
            rows[j][t] = v
    A = Matrix.from_sparse(incl.N, n, [rows[j] for j in reps])
    b = Matrix(incl.N, [[H.counit[j]] for j in reps])
    try:
        sol = A.solve(b)
    except InconsistentSystemError:
        return None
    return sol.particular


class FrobeniusDecision:
    __slots__ = ("frobenius", "chi")

    def __init__(self, frobenius, chi):
        self.frobenius = frobenius
        self.chi = chi

    def __repr__(self):
        return "FrobeniusDecision(frobenius=%s)" % self.frobenius


@cached()
def is_frobenius_extension(incl):
    """Decide by chi = eps_K, for the verified relative modular function chi;
    a value of the inclusion, kept in its cache.

    By Fischman-Montgomery-Schneider this is equivalent to alpha_H|_K =
    alpha_K for the distinguished grouplikes, and chi = (alpha_H|_K) *
    (alpha_K o S_K) always holds, so neither is computed here
    (notes/decisions.md, "The Frobenius system holds by chi and by rank").
    """
    chi = relative_modular_function(incl)
    return FrobeniusDecision(chi == tuple(incl.K.counit), chi)


# ---------------------------------------------------------------------------
# free basis, Frobenius morphism, dual bases
# ---------------------------------------------------------------------------


def _added_rank(space, rows):
    """dim(space + span(rows)) - dim(space): the rank of the remainders of
    rows modulo space, counted in a scratch RowSpace."""
    return rref_raw(map(space.reduce, rows), space.ncols, space.ctx).rank


@cached()
def free_basis(incl):
    """Greedy free-basis scan over H's basis in declared order; a function
    of the inclusion, so it is built once and kept in its cache.

    Returns the index sequence h_1..h_r with K*h_1 + ... + K*h_r = H and
    h_1*K + ... + h_r*K = H: h_t is taken only if both K*h_t and h_t*K add
    dim K dimensions to the spans so far.  The products h_t * embed(k_b),
    t outer, come with it, in the order ``Decomposer`` takes; the left
    K-coordinates need no products, as they are read off the dual bases
    (``induction.coinduce``).
    """
    H, Kk = incl.H, incl.K
    n, m = H.dim, Kk.dim
    if n % m != 0:
        raise HopfkitError("dim H = %d not divisible by dim K = %d" % (n, m))
    one = K.s_one(incl.ctx)
    cols = incl.embed_cols()
    left = RowSpace(n, incl.ctx)
    right = RowSpace(n, incl.ctx)
    free = []
    images = []
    for t in range(n):
        if left.rank == n:
            break
        et = {t: one}
        if left.contains(et) or right.contains(et):
            continue
        lrows = [H.mult_vec(col, et) for col in cols]
        if _added_rank(left, lrows) != m:
            continue
        rrows = [H.mult_vec(et, col) for col in cols]
        if _added_rank(right, rrows) != m:
            continue
        free.append(t)
        images.extend(rrows)
        for row in lrows:
            left.add(row)
        for row in rrows:
            right.add(row)
    if left.rank != n or len(free) != n // m:
        raise HopfkitError("free basis not found along declared order")
    return free, images


class Decomposer:
    """Decompose H-vectors over a free basis as x = sum_i h_i * embed(k_i),
    from the products h_i * embed(k_b), i outer, that ``free_basis`` forms;
    ``_cache`` holds the tables of the free basis alone (``induction``)."""

    __slots__ = ("incl", "free", "inv_cols", "m", "_cache")

    def __init__(self, incl, free, images):
        # coordinates solve A x = h for the matrix A whose columns are the
        # products; the columns of A^-1 are the rows of (A^T)^-1, and A^T has
        # the products as rows.  A is invertible: free_basis returns only
        # after n/m steps, each adding m to the span of the products
        self.incl = incl
        self.free = free
        self.inv_cols = Matrix.from_sparse(incl.N, incl.H.dim, images).inverse().srows
        self.m = incl.K.dim
        self._cache = {}

    def __call__(self, hvec):
        """List (per free index) of sparse K-coordinate vectors."""
        parts = [{} for _ in self.free]
        for x, c in _apply(self.incl.ctx, self.inv_cols, hvec).items():
            i, b = divmod(x, self.m)
            parts[i][b] = c
        return parts


class FrobeniusData:
    """What induction reads of a chosen Frobenius morphism: lambda as the
    tuple ``lam`` of its raw values on the basis of Hbar, tr as its
    column table ``tr`` (tr(e_j) as a sparse K-vector), the free basis h_i
    with its dual basis ``deltas`` (delta_i as sparse H-vectors), and the
    right decomposer over that free basis.

    The data fixes the induction functor, so it is what ``induction`` and
    ``yetter_drinfeld`` take: ``_cache`` holds what they build from it (see
    ``hopf_core.cached``), once per object.  The canonical data is a value of
    the inclusion, cached on it by ``make_frobenius_data``;
    ``rescale_frobenius_data`` builds a new object, not kept on the
    inclusion, whose cache starts empty: the lax structure scales with tr.
    It shares ``right_decomp``, which caches the tables of the free basis."""

    __slots__ = ("incl", "lam", "tr", "free", "deltas", "right_decomp", "_cache")

    def __init__(self, incl, lam, tr, free, deltas, right_decomp):
        self.incl = incl
        self.lam = lam
        self.tr = tr
        self.free = free
        self.deltas = deltas
        self.right_decomp = right_decomp
        self._cache = {}

    @property
    def rank(self):
        return len(self.free)

    def tr_vec(self, hvec):
        """tr of a sparse H-vector, as a sparse K-vector."""
        return _apply(self.incl.ctx, self.tr, hvec)


def frobenius_morphism(incl):
    """tr(h) = lambda(bar(h_(1))) h_(2), rewritten in K-coordinates; returned
    as its column table, tr(e_j) at j.

    The solve checks that tr lands in K.  tr is then a K-bimodule map and a
    map of right H-comodules by theorem, once chi = eps (notes/decisions.md,
    "The Frobenius system holds by chi and by rank")."""
    H = incl.H
    ctx = incl.ctx
    n = H.dim
    lamH = lift_bar_functional(bar_quotient(incl))
    images = []
    for i in range(n):
        acc = {}
        for x, s in H.comult[i]:
            j, k2 = divmod(x, n)
            _axpy(ctx, acc, {k2: s}, lamH[j])
        images.append(acc)
    # the K-coordinates X of tr solve embed * X = [tr(e_0) ... tr(e_(n-1))]
    try:
        X = incl.embed.solve(Matrix.from_sparse(incl.N, n, images).transpose()).particular
    except InconsistentSystemError:
        raise PipelineError("image of tr is not contained in K") from None
    return X.transpose().srows


def dual_bases(incl, tr_cols, free):
    """Solve tr(h_j delta_i) = delta_ij 1_K for the dual basis delta_i, as
    sparse H-vectors.

    The system is square, n equations in n unknowns, and it must be
    nonsingular: a null vector x has tr(h_j x) = 0 for every j, so tr is
    degenerate.  Once it is injective, both dual-basis identities hold on H
    by theorem (notes/decisions.md, "The Frobenius system holds by chi and
    by rank")."""
    H, Kk = incl.H, incl.K
    ctx = incl.ctx
    n, m = H.dim, Kk.dim
    # row j*m + b, column t: the b-th K-coordinate of tr(h_j e_t)
    rows = []
    for j in free:
        trs = [_apply(ctx, tr_cols, dict(H.mult[j * n + t])) for t in range(n)]
        rows.extend({t: tr[b] for t, tr in enumerate(trs) if b in tr} for b in range(m))
    A = Matrix.from_sparse(incl.N, n, rows)
    # row i*m + b, column i: the b-th K-coordinate of 1_K
    r = len(free)
    B = Matrix.from_sparse(incl.N, r, [_clean(ctx, [(i, u)]) for i in range(r) for u in Kk.unit])
    try:
        sol = A.solve(B)
    except InconsistentSystemError:
        raise PipelineError("dual-basis system inconsistent (extension not Frobenius?)") from None
    if sol.null_basis:
        raise PipelineError("dual-basis system is singular: tr is degenerate")
    return sol.particular.transpose().srows


# ---------------------------------------------------------------------------
# centrality / normality
# ---------------------------------------------------------------------------


@cached()
def is_central_extension(incl):
    """Central Frobenius test for a Frobenius extension: the lambda symmetry
    lambda(bar h_(1)) h_(2) = h_(1) lambda(bar h_(2)) for all basis h.

    It is equivalent to tr being a map of H-bicomodules (notes/decisions.md,
    "The Frobenius system holds by chi and by rank").  The answer is a value
    of the inclusion, kept in its cache: it does not change under
    tr -> c tr, so all Frobenius data over the inclusion, rescaled or not,
    reads the same entry.
    """
    return is_symmetric(incl.H, lift_bar_functional(bar_quotient(incl)))


def is_normal_subalgebra(incl):
    """Closure of embed(K) under left and right adjoint actions of H, for a
    verified inclusion.

    There dim K = 1 means K = k1, closed since ad_h(1) = eps(h)1, and
    dim K = dim H means K = H; both are normal without the closure.
    Otherwise only h in ``algebra_generators(H)`` are tried: ad_(gh) =
    ad_g ad_h for the left and ad_(gh) = ad_h ad_g for the right adjoint
    action, and ad_1 is the identity, so a subspace closed under ad_g for g
    in G is closed under ad_h for every h in H.
    """
    H, Kk = incl.H, incl.K
    if Kk.dim in (1, H.dim):
        return True
    ctx = incl.ctx
    n, m = H.dim, Kk.dim
    image = incl.image_space()
    one = K.s_one(ctx)
    # per g in G, (a, S(s e_c), s e_c) for each term s e_a x e_c of Delta(e_g)
    terms = [[(x // n, H.antipode_vec({x % n: s}), {x % n: s}) for x, s in H.comult[i]]
             for i in algebra_generators(H)]
    for b in range(m):
        col = incl.embed_col(b)
        sides = {}  # a -> (e_a col, S(e_a) col), formed once per (a, b)
        for g_terms in terms:
            acc_l, acc_r = {}, {}
            for a, sc, ec in g_terms:
                if a not in sides:
                    sides[a] = (H.mult_vec(H.basis_vec(a), col),
                                H.mult_vec(dict(H.antipode_cols[a]), col))
                _axpy(ctx, acc_l, H.mult_vec(sides[a][0], sc), one)
                _axpy(ctx, acc_r, H.mult_vec(sides[a][1], ec), one)
            if not image.contains(acc_l) or not image.contains(acc_r):
                return False
    return True


# ---------------------------------------------------------------------------
# the full analysis pipeline
# ---------------------------------------------------------------------------


class ExtensionAnalysis:
    __slots__ = (
        "incl",
        "report",
        "decision",
        "frob",
        "central",
        "normal",
        "bar_dual_unimodular",
    )

    def __init__(self, **kw):
        for k2 in self.__slots__:
            setattr(self, k2, kw.get(k2))


@cached()
def make_frobenius_data(incl):
    """Assemble FrobeniusData with the canonical normalization of lambda; a
    value of the inclusion, built once and kept in its cache.

    The deterministic solver representative lambda0 is rescaled so that the
    unit constraint sum_i eps(delta_i) eps(h_i) = 1 holds (when the sum is
    nonzero); this makes the induced lax/oplax pair strictly separable
    whenever separability-up-to-scalar holds, and reproduces the reference
    values tr(1) = dim(H)/dim(K) on the worked examples.

    Only a Frobenius extension has the data: tr is a Frobenius morphism by
    theorem once chi = eps, and the decision is read from the cache.
    """
    if not is_frobenius_extension(incl).frobenius:
        raise PipelineError("inclusion %r is not a Frobenius extension" % incl)
    H = incl.H
    ctx = incl.ctx
    free, right_images = free_basis(incl)
    tr0 = frobenius_morphism(incl)
    deltas0 = dual_bases(incl, tr0, free)

    frob0 = FrobeniusData(incl, right_integral_of_dual(bar_quotient(incl)), tr0, free, deltas0,
                          Decomposer(incl, free, right_images))
    s = K.s_zero(ctx)
    for i, t in enumerate(free):
        s = K.s_add(ctx, s, K.s_mul(ctx, _dot(ctx, H.counit, deltas0[i]), H.counit[t]))
    factor = Cyclotomic(incl.N, s) if not K.s_is_zero(s) else Cyclotomic.rational(1)
    return rescale_frobenius_data(frob0, factor)


def rescale_frobenius_data(frob, c):
    """A new FrobeniusData with lambda (hence tr) multiplied by the scalar c.

    c may be stored at a conductor M that incl.N does not divide (a scalar
    read off modules over a larger field).  Q(zeta_M) meets Q(zeta_N) in
    Q(zeta_gcd(M, N)), so c is lowered there exactly when it lies in it;
    otherwise PipelineError is raised."""
    incl = frob.incl
    c = Cyclotomic.promote(c)
    if incl.N % c.N:
        try:
            c = c.lower(gcd(c.N, incl.N))
        except ValueError:
            raise PipelineError("scalar %s does not lie in Q(zeta_%d)" % (c, incl.N)) from None
    c = c.lift(incl.N)
    ctx = incl.ctx
    cinv = K.s_inv(ctx, c.data)
    return FrobeniusData(
        incl, tuple(K.s_mul(ctx, c.data, v) for v in frob.lam),
        [_scale(ctx, col, c.data) for col in frob.tr], frob.free,
        [_scale(ctx, dv, cinv) for dv in frob.deltas], frob.right_decomp
    )


def analyze_extension(incl):
    """Run the full pipeline; returns an ExtensionAnalysis with a Report."""
    rep = Report("analyze %s -> %s" % (incl.K.name, incl.H.name))
    vrep = verify_inclusion(incl)
    rep.extend(vrep, prefix="inclusion/")
    if not vrep.ok:
        return ExtensionAnalysis(incl=incl, report=rep)

    bq = bar_quotient(incl)
    rep.add("bar-quotient-dim", True, detail="dim Hbar = %d" % bq.dim, anchor="bar-quotient")
    right_integral_bar_dual(bq)
    rep.add("bar-dual-integral-1dim", True, anchor="integral-type")

    decision = is_frobenius_extension(incl)
    rep.add(
        "frobenius",
        True,
        # the alpha criterion agrees by the theorem of Fischman-Montgomery-Schneider
        detail="frobenius=%s (chi and alpha criteria agree)" % decision.frobenius,
        anchor="schneider-criterion",
    )
    Lambda = check_integral_type(incl)
    rep.add(
        "integral-type-element",
        Lambda is not None,
        detail="Lambda exists" if Lambda is not None else "no Lambda",
        anchor="integral-type",
    )
    bdu = is_dual_unimodular(bq)
    rep.add("bar-dual-unimodular", True, detail=str(bdu), anchor="bar-dual-unimodularity")
    normal = is_normal_subalgebra(incl)
    rep.add("normal-subalgebra", True, detail=str(normal), anchor="normality")

    frob = None
    central = None
    if decision.frobenius:
        frob = make_frobenius_data(incl)
        rep.add("frobenius-morphism", True, anchor="good-frob-morphism")
        rep.add("dual-bases", True, anchor="dual-generators")
        central = is_central_extension(incl)
        rep.add("central", True, detail=str(central), anchor="central-frobenius")
        if central and not bdu:
            rep.add("central-implies-bar-dual-unimodular", False, anchor="bar-dual-unimodularity")
        else:
            rep.add("central-implies-bar-dual-unimodular", True, anchor="bar-dual-unimodularity")

    return ExtensionAnalysis(
        incl=incl,
        report=rep,
        decision=decision,
        frob=frob,
        central=central,
        normal=normal,
        bar_dual_unimodular=bdu,
    )


def fms_lambda_construction(incl):
    """lambda'(bar h) := lambda_H(h Lambda_K) from a right integral of H* and a
    left integral of K; returns the functional on H as the tuple of its raw
    values (for proportionality checks)."""
    H, Kk = incl.H, incl.K
    ctx = incl.ctx
    lamH_dual = right_integral_of_dual(H)
    LamK = integral_space(Kk, "left")
    if len(LamK) != 1:
        raise PipelineError("left integral space of K not one-dimensional")
    lk = LamK[0].col(0)
    lk_H = incl.embed_vec(lk)
    return tuple(_dot(ctx, lamH_dual, H.mult_vec(H.basis_vec(i), lk_H)) for i in range(H.dim))
