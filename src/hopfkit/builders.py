"""Constructors for the example Hopf algebras and inclusions.

All builders produce exact structure constants.  Where an algebra is
presented by generators and relations (Kac-Paljutkin, Taft, small quantum
sl2, Drinfeld doubles), each product table is computed once from a closed
form of the relations: a product of two normal-form words of H8 or of a Taft
algebra is one word times a scalar (or, for z^2 in H8, four words); a product
in small quantum sl2 is a q-power rescaling of the PBW expansion of some
e^i f^j; a product in a double sums a middle functional, built once per pair
of outer factors, over the iterated coproduct.  The labels, coproducts,
counits and antipodes of the monomial bases of H8, Taft and small quantum
sl2 come from one helper, ``_pbw``: each monomial multiplies the images of
its first generator with those of the shorter monomial, in the
tensor-square algebra for coproducts.  Every builder writes FinHopf's raw
tables, except that the coproduct and antipode tables of these three, and
the product table of small quantum sl2, compute each row on its first read
(``_LazyRows``): the scans of u_q(sl2) and its subalgebras read only a few
percent of its l^6 products, and ``scan-sl2`` 45 of the 125 coproducts of
u_5(sl2).  verify_hopf then certifies the result.
Each catalogue Hopf subalgebra is named by its generators
(``generated_inclusion``).

Each constructor builds a Hopf algebra by construction, so the derived
checks run on generating sets of its result (see ``hopf_core``);
``group_algebra`` first checks its table associative in ``_check_group``, and
``drinfeld_double`` takes a Hopf algebra.  The inclusions they build are Hopf
algebra maps by construction.  The tests run verify_hopf on every catalogue
algebra.
"""

from bisect import bisect_left
from math import gcd, inf

from . import _kernel as K
from .errors import HopfkitError
from .exact_math import (
    Matrix,
    _add,
    _apply,
    _axpy,
    _clean,
    _table_mul,
    _tensor,
    _tensor_square_mul,
)
from .extension import HopfInclusion
from .hopf_core import (
    FinHopf,
    antipode_inverse,
    basis_closure,
    dual_hopf,
    is_unimodular,
    subhopf_from_basis,
)


class _LazyRows(dict):
    """A table of ``size`` rows, each computed by ``row(r)`` on its first
    read and then kept as a plain dict entry.

    Otherwise it reads as the tuple of its rows: ``len`` is ``size``,
    iteration runs in index order after filling every missing row in one
    loop, ``==`` and ``!=`` compare every row, and an index outside
    0..size-1 raises IndexError."""

    __slots__ = ("size", "row")

    def __init__(self, size, row):
        super().__init__()
        self.size = size
        self.row = row

    def __missing__(self, r):
        if not 0 <= r < self.size:
            raise IndexError("row %d out of range 0..%d" % (r, self.size - 1))
        got = self[r] = self.row(r)
        return got

    def __len__(self):
        return self.size

    def __iter__(self):
        if dict.__len__(self) < self.size:
            row = self.row
            for r in range(self.size):
                if r not in self:
                    self[r] = row(r)
        return map(self.__getitem__, range(self.size))

    def __eq__(self, other):
        return tuple(self) == (tuple(other) if isinstance(other, _LazyRows) else other)

    def __ne__(self, other):
        return not self == other


def _pbw(ctx, mult, names, words, gens):
    """Labels, coproduct rows, counit and antipode columns of a monomial
    basis.

    Basis element t is the monomial of the exponent tuple words[t] in the
    generators named by ``names``; the empty word comes first, and each
    other word after the word with its first nonzero exponent lowered by
    one.  gens[s] = (Delta(g_s), eps(g_s), S(g_s)), Delta keyed i*n + j.
    Each monomial peels its first generator off that shorter word w:
    Delta(g_s w) = Delta(g_s)Delta(w), eps(g_s w) = eps(g_s)eps(w) and
    S(g_s w) = S(w)S(g_s).  The coproduct rows and antipode columns are
    tables that compute each entry on its first read (``_LazyRows``).
    """
    n = len(words)
    one = K.s_one(ctx)
    index = {w: t for t, w in enumerate(words)}
    labels = ["1"]
    counit = [one]
    steps = []
    for w in words[1:]:
        s = next(s for s, e in enumerate(w) if e)
        r = index[w[:s] + (w[s] - 1,) + w[s + 1:]]
        labels.append("".join(name if e == 1 else "%s^%d" % (name, e)
                              for name, e in zip(names, w) if e))
        counit.append(K.s_mul(ctx, gens[s][1], counit[r]))
        steps.append((s, r))

    def peeled(product):
        # row t = product(s, row r) for the word g_s w_r of t; row 0 is 1
        def row(t):
            s, r = steps[t - 1]
            return tuple(sorted(product(s, table[r]).items()))

        table = _LazyRows(n, row)
        table[0] = ((0, one),)
        return table

    delta = peeled(lambda s, w: _tensor_square_mul(ctx, mult, n, gens[s][0].items(), w))
    S = peeled(lambda s, w: _table_mul(ctx, mult, n, dict(w), gens[s][2]))
    return labels, delta, tuple(counit), S


def generated_inclusion(H, labels, name):
    """The inclusion in H, named ``name``, of the Hopf subalgebra spanned by
    the ``basis_closure`` of the basis elements with the given labels."""
    gens = [H.label_index(label) for label in labels]
    Kk, embed = subhopf_from_basis(H, basis_closure(H, gens), name=name)
    return HopfInclusion(Kk, H, embed)


# ---------------------------------------------------------------------------
# group algebras
# ---------------------------------------------------------------------------


def cyclic_table(n):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def product_table(t1, t2):
    n1, n2 = len(t1), len(t2)
    n = n1 * n2
    out = [[0] * n for _ in range(n)]
    for a1 in range(n1):
        for a2 in range(n2):
            for b1 in range(n1):
                for b2 in range(n2):
                    out[a1 * n2 + a2][b1 * n2 + b2] = t1[a1][b1] * n2 + t2[a2][b2]
    return out


def klein_table():
    return product_table(cyclic_table(2), cyclic_table(2))


def _check_group(table):
    n = len(table)
    for row in table:
        if len(row) != n or any(not 0 <= v < n for v in row):
            raise HopfkitError("multiplication table is not square over 0..n-1")
    # identity
    e = None
    for i in range(n):
        if all(table[i][j] == j for j in range(n)) and all(table[j][i] == j for j in range(n)):
            e = i
            break
    if e is None:
        raise HopfkitError("table has no identity element")
    # associativity and inverses
    for a in range(n):
        if e not in table[a]:
            raise HopfkitError("element %d has no inverse" % a)
        for b in range(n):
            for c in range(n):
                if table[table[a][b]][c] != table[a][table[b][c]]:
                    raise HopfkitError("table is not associative at (%d,%d,%d)" % (a, b, c))
    return e


def group_algebra(table, name="kG", labels=None):
    """The group algebra of a finite group given by its multiplication table."""
    e = _check_group(table)
    if e != 0:
        raise HopfkitError("identity must be element 0 of the table")
    n = len(table)
    ctx = K.make_ctx(1)
    one = K.s_one(ctx)
    z = K.s_zero(ctx)
    return FinHopf(
        name,
        labels or ["g%d" % i for i in range(n)],
        1,
        tuple(((table[i][j], one),) for i in range(n) for j in range(n)),
        tuple(one if i == 0 else z for i in range(n)),
        tuple(((i * n + i, one),) for i in range(n)),
        (one,) * n,
        tuple(((table[j].index(0), one),) for j in range(n)),
    )


def trivial_hopf():
    """The ground field as a one-dimensional Hopf algebra."""
    return group_algebra(cyclic_table(1), name="k", labels=["1"])


# ---------------------------------------------------------------------------
# Kac-Paljutkin algebra H8
# ---------------------------------------------------------------------------

_H8_WORDS = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1)]
_H8_INDEX = {w: i for i, w in enumerate(_H8_WORDS)}


def kac_paljutkin():
    """The 8-dimensional Kac-Paljutkin algebra and the Klein-four inclusion.

    Relations: x^2 = y^2 = 1, xy = yx, zx = yz, zy = xz,
    z^2 = (1 + x + y - xy)/2, with Delta(x) = x x x, Delta(y) = y x y and
    Delta(z) = (1x1 + 1xx + yx1 - yxx)(zxz)/2; eps(x) = eps(y) = eps(z) = 1;
    S fixes x, y and z (S swaps the x/y exponents on words containing z).
    """
    n = 8
    ctx = K.make_ctx(1)
    one = K.s_one(ctx)
    half = K.s_from_ratio(ctx, 1, 2)
    # z^2 = (1 + x + y - xy)/2, as the signed x/y exponent shifts
    z2 = (((0, 0), half), ((1, 0), half), ((0, 1), half), ((1, 1), K.s_neg(half)))
    mult = []
    for a, b, c in _H8_WORDS:
        for a2, b2, c2 in _H8_WORDS:
            if c:
                # z x^a2 y^b2 = x^b2 y^a2 z
                a2, b2 = b2, a2
            if c + c2 < 2:
                mult.append(((_H8_INDEX[(a ^ a2, b ^ b2, c + c2)], one),))
            else:
                mult.append(tuple(sorted(
                    (_H8_INDEX[(a ^ a2 ^ da, b ^ b2 ^ db, 0)], s) for (da, db), s in z2)))
    mult = tuple(mult)

    x, y, z, xz, yz = (_H8_INDEX[w]
                       for w in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 0, 1), (0, 1, 1)))
    # Delta(z) = 1/2 (z x z + z x xz + yz x z - yz x xz)
    dz = {z * n + z: half, z * n + xz: half, yz * n + z: half, yz * n + xz: K.s_neg(half)}
    gens = [({g * n + g: one}, one, {g: one}) for g in (x, y)] + [(dz, one, {z: one})]
    labels, comult, counit, Scols = _pbw(ctx, mult, "xyz", _H8_WORDS, gens)
    H8 = FinHopf("H8", labels, 1, mult, (one,) + (K.s_zero(ctx),) * (n - 1), comult, counit, Scols)

    return H8, generated_inclusion(H8, ("x", "y"), "kK")


# ---------------------------------------------------------------------------
# Taft algebras
# ---------------------------------------------------------------------------


def taft(l, q_power=1):
    """The Taft algebra T_l(q) with q = zeta_l^q_power, and kC_l -> T_l(q).

    Basis g^a x^b; relations g^l = 1, x^l = 0, g x = q x g;
    Delta(g) = g x g, Delta(x) = x x 1 + g x x.
    """
    if l < 2:
        raise HopfkitError("Taft algebra needs l >= 2")
    if gcd(q_power, l) != 1:
        raise HopfkitError("q = zeta_%d^%d is not a primitive root of unity" % (l, q_power))
    ctx = K.make_ctx(l)
    q = [K.zeta_power(ctx, (q_power * t) % l) for t in range(l)]
    n = l * l

    def idx(a, b):
        return a * l + b

    # x^b g^a2 = q^(-a2 b) g^a2 x^b
    mult = tuple(
        ((idx((a + a2) % l, b + b2), q[(-a2 * b) % l]),) if b + b2 < l else ()
        for a in range(l) for b in range(l) for a2 in range(l) for b2 in range(l)
    )

    one = K.s_one(ctx)
    z = K.s_zero(ctx)
    g, x = idx(1, 0), idx(0, 1)
    gens = [
        ({g * n + g: one}, one, {idx(l - 1, 0): one}),
        # S(x) = -g^(l-1) x
        ({x * n: one, g * n + x: one}, z, {idx(l - 1, 1): K.s_neg(one)}),
    ]
    words = [(a, b) for a in range(l) for b in range(l)]
    labels, comult, counit, Scols = _pbw(ctx, mult, "gx", words, gens)
    unit = (one,) + (z,) * (n - 1)
    T = FinHopf("T%d(z^%d)" % (l, q_power), labels, l, mult, unit, comult, counit, Scols)
    return T, generated_inclusion(T, ("g",), "kC%d" % l)


# ---------------------------------------------------------------------------
# small quantum sl2
# ---------------------------------------------------------------------------


# The Hopf subalgebras u_eps(<k>, I+, I-) of u_q(sl2) that ``builtin:uqsl2``
# names by ``sub=``: the prefix of each name, which ends in l, and the
# generators, in the (I+, I-) order of ``unimodularity_scan_sl2``.
UQSL2_SUBALGEBRAS = {"cartan": ("kC", ("k",)), "borel-": ("borel-", ("k", "f")),
                     "borel+": ("borel+", ("k", "e"))}


def _uq_products(ctx, l, q, ef):
    """The product table of small_quantum_sl2(l), each row computed on its
    first read (``_LazyRows``).

    (f^j k^m e^i)(f^j1 k^m1 e^i1) = f^j k^m (e^i f^j1) k^m1 e^i1
      = sum c q^(-2m j2 - 2m1 i2) f^(j+j2) k^(m+m2+m1) e^(i2+i1)
    over the terms c f^j2 k^m2 e^i2 of e^i f^j1 (ef[j1*l + i] lists them as
    (j2, m2, i2, c)), dropping those with j + j2 >= l or i2 + i1 >= l.  For
    fixed (j1, i, m, m1) the row at any (j, i1) is the sorted row at
    j = i1 = 0, kept once per key, cut and shifted by j l^2 + i1.  Sorting
    by key sorts by j2, and i2 = j2 + i - j1, so the kept terms are a
    prefix."""
    n = l ** 3
    # cuts[j1*l + i][j*l + i1]: how many terms of e^i f^j1 have j + j2 < l
    # and i2 + i1 < l
    cuts = []
    for j1 in range(l):
        for i in range(l):
            j2s = sorted(j2 for j2, _, _, _ in ef[j1 * l + i])
            cuts.append([bisect_left(j2s, min(l - j, l - i1 - i + j1))
                         for j in range(l) for i1 in range(l)])
    # scaled[((j1*l + i)*l + m)*l + m1]: the sorted row at j = i1 = 0
    scaled_rows = [None] * l ** 4

    # exponents[t] = (j, m, i) of the monomial t = f^j k^m e^i
    exponents = [(j, m, i) for j in range(l) for m in range(l) for i in range(l)]

    def row(r):
        a, b = divmod(r, n)
        j, m, i = exponents[a]
        j1, m1, i1 = exponents[b]
        ji = j1 * l + i
        cut = cuts[ji][j * l + i1]
        if not cut:
            return ()
        key = (ji * l + m) * l + m1
        scaled = scaled_rows[key]
        if scaled is None:
            scaled = scaled_rows[key] = sorted(
                (j2 * l * l + (m + m2 + m1) % l * l + i2,
                 K.s_mul(ctx, c, q[(-2 * m * j2 - 2 * m1 * i2) % l]))
                for j2, m2, i2, c in ef[ji])
        shift = j * l * l + i1
        return tuple([(t + shift, c) for t, c in scaled[:cut]])

    return _LazyRows(n * n, row)


def small_quantum_sl2(l):
    """Build u_eps(sl2), dim l^3, from the generator relations.

    Conventions (recorded in the bundle header): q = zeta_l,
    k e k^-1 = q^2 e, k f k^-1 = q^-2 f, [e,f] = (k - k^-1)/(q - q^-1),
    e^l = f^l = 0, k^l = 1, Delta(e) = 1 x e + e x k,
    Delta(f) = k^-1 x f + f x 1, Delta(k) = k x k,
    S(e) = -e k^-1, S(f) = -k f, S(k) = k^-1.
    PBW basis f^j k^m e^i ordered by (j, m, i).

    Only the l^2 products e^i f^j need the commutator [e, f]; they are
    expanded once.  Every other product is one of them rescaled by a power
    of q and shifted, and is computed on its first read (``_uq_products``).
    Coproducts, counit and antipode come from those of f, k and e
    (``_pbw``).
    """
    if l < 3 or l % 2 == 0:
        raise HopfkitError("small_quantum_sl2 needs odd l >= 3")
    ctx = K.make_ctx(l)
    n = l ** 3
    q = [K.zeta_power(ctx, t % l) for t in range(l)]

    def idx(j, m, i):
        return (j * l + m) * l + i

    ll = l * l
    one = K.s_one(ctx)
    z = K.s_zero(ctx)
    # [e, f] = (k - k^-1)/(q - q^-1)
    qm_inv = K.s_inv(ctx, K.s_sub(ctx, q[1], q[l - 1]))

    # e_left[t] = e * (basis monomial t), in order of rising f-degree j:
    # e f^j k^m e^i = f (e f^(j-1) k^m e^i) + [e, f] f^(j-1) k^m e^i, where
    # k f^(j-1) = q^(-2(j-1)) f^(j-1) k and e k^m = q^(-2m) k^m e
    e_left = []
    for t in range(n):
        j, rest = divmod(t, ll)
        m, i = divmod(rest, l)
        if j == 0:
            e_left.append({t + 1: q[(-2 * m) % l]} if i + 1 < l else {})
            continue
        out = {s + ll: c for s, c in e_left[t - ll].items()}
        _add(ctx, out, idx(j - 1, (m + 1) % l, i), K.s_mul(ctx, qm_inv, q[(-2 * (j - 1)) % l]))
        _add(ctx, out, idx(j - 1, (m - 1) % l, i), K.s_neg(K.s_mul(ctx, qm_inv, q[(2 * (j - 1)) % l])))
        e_left.append(out)

    # e^i f^j1 for i, j1 < l, each term f^j2 k^m2 e^i2 as (j2, m2, i2, c)
    ef = []
    for j1 in range(l):
        w = {idx(j1, 0, 0): one}
        for i in range(l):
            ef.append([(t // ll, t // l % l, t % l, c) for t, c in w.items()])
            w = _apply(ctx, e_left, w)
    mult = _uq_products(ctx, l, q, ef)

    e_1 = idx(0, 0, 0)
    e_e = idx(0, 0, 1)
    e_f = idx(1, 0, 0)
    e_k = idx(0, 1, 0)
    e_kinv = idx(0, l - 1, 0)
    gens = [
        # Delta(f) = k^-1 x f + f x 1, S(f) = -k f
        ({e_kinv * n + e_f: one, e_f * n + e_1: one}, z,
         _table_mul(ctx, mult, n, {e_k: K.s_neg(one)}, {e_f: one})),
        ({e_k * n + e_k: one}, one, {e_kinv: one}),
        # Delta(e) = 1 x e + e x k, S(e) = -e k^-1
        ({e_1 * n + e_e: one, e_e * n + e_k: one}, z,
         _table_mul(ctx, mult, n, {e_e: K.s_neg(one)}, {e_kinv: one})),
    ]
    words = [(j, m, i) for j in range(l) for m in range(l) for i in range(l)]
    labels, comult_rows, counit, Scols = _pbw(ctx, mult, "fke", words, gens)
    unit = (one,) + (z,) * (n - 1)

    return FinHopf(
        "u%d(sl2)" % l,
        labels,
        l,
        mult,
        unit,
        comult_rows,
        counit,
        Scols,
        convention="kassel: Delta(e)=1xe+exk, Delta(f)=k^-1xf+fx1, ke=q^2ek",
    )


# ---------------------------------------------------------------------------
# Drinfeld double
# ---------------------------------------------------------------------------


def drinfeld_double(H):
    """The Drinfeld double Drin(H) on H* x H, and the inclusion H -> Drin(H).

    Multiplication (f x h)(f' x h') = f (h_(1) -> f' <- S^-1(h_(3))) x h_(2) h',
    coproduct Delta(f x h) = (f_(2) x h_(1)) x (f_(1) x h_(2)),
    where (h -> f)(a) = f(a h) and (f <- h)(a) = f(h a).

    On the basis f_c x e_d this reads
    (f_c x e_d)(f_c' x e_d') = sum s f_c phi x e_q e_d' over the terms
    s e_p x e_q x e_r of Delta^2(e_d), where phi is the middle functional
    u -> f_c'(S^-1(e_r) e_u e_p).  It depends on (r, p, c') only, so it is
    built once per (r, p), and the terms sharing e_q are summed before the
    loops over c and d'.  The nonzero products e_q e_d' are listed once per
    q, and each term of f_c Phi_q x e_q e_d' is added straight into the
    entry of its d'.
    """
    n = H.dim
    ctx = H.ctx
    N = H.N
    Hd = dual_hopf(H)
    Sinv = antipode_inverse(H)
    nn = n * n

    one = K.s_one(ctx)
    sinv_cols = Sinv.transpose().srows

    # phis[(r, p)][c']: the middle functional phi, as {u: raw}
    phis = {}

    def phi_of(r, p):
        got = phis.get((r, p))
        if got is None:
            got = [{} for _ in range(n)]
            for u in range(n):
                w = H.mult_vec(H.mult_vec(sinv_cols[r], {u: one}), {p: one})
                for cp, cu in w.items():
                    got[cp][u] = cu
            phis[(r, p)] = got
        return got

    # by_second[u]: (k, c, s) for each term s e_c x e_u of Delta(e_k)
    by_second = [[] for _ in range(n)]
    for k in range(n):
        for x, s in H.comult[k]:
            c, u = divmod(x, n)
            by_second[u].append((k, c, s))

    def times_every_f(v):
        """[f_c v for c in range(n)] in H*: (f_c v)(e_k) sums s v(e_u) over
        the terms s e_c x e_u of Delta(e_k), for the u where v is nonzero."""
        out = [{} for _ in range(n)]
        for u, vu in v.items():
            for k, c, s in by_second[u]:
                _add(ctx, out[c], k, K.s_mul(ctx, s, vu))
        return out

    # right[q]: (d', e_q e_d') for each d' where the product is nonzero
    right = [[(dp, dict(row)) for dp in range(n) if (row := H.mult[q * n + dp])] for q in range(n)]

    # (f_c x e_d)(f_c' x e_d') = sum_q f_c Phi_q x e_q e_d', where Phi_q sums
    # s phi over the Delta^2 terms (p, q, r), s of e_d; each term of
    # f_c Phi_q x e_q e_d' is added straight into the row of its d'
    mult = [()] * (nn * nn)
    for d in range(n):
        d2 = H.comult2(d)
        for cp in range(n):
            Phi = {}
            for (p, qq, r), s in d2:
                _axpy(ctx, Phi.setdefault(qq, {}), phi_of(r, p)[cp], s)
            fPhi = [(times_every_f(v), qq) for qq, v in Phi.items() if v]
            for c in range(n):
                rows = {}
                for fv, qq in fPhi:
                    a = fv[c]
                    if not a:
                        continue
                    for dp, prod in right[qq]:
                        _tensor(ctx, rows.setdefault(dp, {}), a, prod, n)
                base = (c * n + d) * nn + cp * n
                for dp, row in rows.items():
                    if row:
                        mult[base + dp] = tuple(sorted(row.items()))
    mult = tuple(mult)

    comult = [None] * nn
    for c in range(n):
        for d in range(n):
            acc = {}
            for xf, sf in Hd.comult[c]:
                u, v = divmod(xf, n)
                for xh, sh in H.comult[d]:
                    h1, h2 = divmod(xh, n)
                    # (f_(2) x h_(1)) x (f_(1) x h_(2))
                    _add(ctx, acc, (v * n + h1) * nn + (u * n + h2), K.s_mul(ctx, sf, sh))
            comult[c * n + d] = tuple(sorted(acc.items()))
    comult = tuple(comult)

    unit = []
    for c in range(n):
        for d in range(n):
            unit.append(K.s_mul(ctx, H.counit[c], H.unit[d]))
    counit = []
    for c in range(n):
        for d in range(n):
            counit.append(K.s_mul(ctx, H.unit[c], H.counit[d]))

    # S_D(f_c x e_d) = (eps x S(e_d)) * (f_c o S^-1 x 1)
    eps_coords = _clean(ctx, enumerate(H.counit))
    unit_coords = H.unit_vec()
    Scols = []
    for c in range(n):
        # f_c o S^-1 has dual coords u -> Sinv[c][u]
        right = _tensor(ctx, {}, Sinv.srows[c], unit_coords, n)
        for d in range(n):
            left = _tensor(ctx, {}, eps_coords, dict(H.antipode_cols[d]), n)
            Scols.append(tuple(sorted(_table_mul(ctx, mult, nn, left, right).items())))

    labels = []
    for c in range(n):
        for d in range(n):
            labels.append("d:%s|%s" % (H.basis_labels[c], H.basis_labels[d]))

    D = FinHopf(
        "Drin(%s)" % H.name,
        labels,
        N,
        mult,
        tuple(unit),
        comult,
        tuple(counit),
        tuple(Scols),
        convention="double: (fxh)(f'xh') = f (h1->f'<-S^-1 h3) x h2 h'",
    )

    # embed(e_d) = sum_c eps(e_c) f_c x e_d
    embed = Matrix.from_sparse(N, n, [{d: H.counit[c]} if not K.s_is_zero(H.counit[c]) else {}
                                      for c in range(n) for d in range(n)])
    return D, HopfInclusion(H, D, embed)


def double_r_matrix(H):
    """The canonical element sum_c (f_c x 1) x (eps x e_c) of Drin(H)^{x2}."""
    n = H.dim
    ctx = H.ctx
    nn = n * n
    unit = H.unit_vec()
    counit = _clean(ctx, enumerate(H.counit))
    out = {}
    for c in range(n):
        left = {c * n + u: s for u, s in unit.items()}
        right = {v * n + c: s for v, s in counit.items()}
        _tensor(ctx, out, left, right, nn)
    return out


# ---------------------------------------------------------------------------
# Cartan row-sum combinatorics
# ---------------------------------------------------------------------------

# the least and greatest rank of each finite type
_RANKS = {"A": (1, inf), "B": (2, inf), "C": (2, inf), "D": (4, inf),
          "E": (6, 8), "F": (4, 4), "G": (2, 2)}


def cartan_matrix(type_label, rank):
    """Standard finite-type Cartan matrix (B_n: last simple root short)."""
    t = type_label.upper()
    r = rank
    if t not in _RANKS:
        raise HopfkitError("unknown Cartan type %r" % type_label)
    lo, hi = _RANKS[t]
    if not lo <= r <= hi:
        raise HopfkitError("invalid rank %d for type %s" % (rank, t))

    C = [[2 if i == j else 0 for j in range(r)] for i in range(r)]

    def edge(i, j, a=1, b=1):
        C[i][j] = -a
        C[j][i] = -b

    if t in ("A", "B", "C"):
        for i in range(r - 1):
            edge(i, i + 1)
        if t == "B":
            edge(r - 2, r - 1, 2, 1)
        elif t == "C":
            edge(r - 2, r - 1, 1, 2)
    elif t == "D":
        for i in range(r - 2):
            edge(i, i + 1)
        edge(r - 3, r - 1)
    elif t == "G":
        edge(0, 1, 1, 3)
    elif t == "F":
        edge(0, 1)
        edge(1, 2, 2, 1)
        edge(2, 3)
    elif t == "E":
        # chain 0-1-2-3-...(r-2), with node r-1 attached to node 2
        for i in range(r - 2):
            edge(i, i + 1)
        edge(2, r - 1)
    return C


def cartan_row_sum_witness(C, l):
    """The first sign subset J, in mask order, for which every row sum of C
    with the columns in J negated vanishes mod l, or None.  Mask 0 is J = (),
    so the row sums of C itself vanish exactly when the witness is ()."""
    r = len(C)
    for mask in range(1 << r):
        if all(sum(-v if mask >> j & 1 else v for j, v in enumerate(row)) % l == 0 for row in C):
            return tuple(j for j in range(r) if mask >> j & 1)
    return None


def unimodularity_scan_sl2(l):
    """is_unimodular over the four (I+, I-) subsets of {1}^2 with Sigma = <k>.

    Returns a list of dicts; 'expected' is the prediction I+ == I- (meaningful
    for l > 3, where the converse direction of the classification applies).
    The row I+ = I- = {1} is u_q(sl2) itself.
    """
    H = small_quantum_sl2(l)
    rows = [(gens, generated_inclusion(H, gens, prefix + str(l)).K)
            for prefix, gens in UQSL2_SUBALGEBRAS.values()]
    out = []
    for gens, sub in rows + [(("k", "e", "f"), H)]:
        i_plus, i_minus = "e" in gens, "f" in gens
        out.append({"I+": {1} if i_plus else set(), "I-": {1} if i_minus else set(),
                    "dim": sub.dim, "unimodular": is_unimodular(sub), "expected": i_plus == i_minus})
    return out
