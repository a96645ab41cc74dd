"""Finite-dimensional Hopf algebras as exact structure-constant tensors.

A FinHopf stores the multiplication, the comultiplication and the antipode
as sparse rows over a cyclotomic field, and the unit and counit as exact
vectors.  Axiom verification scans basis tuples in the scalar kernel.
Associativity, Delta(ab) = Delta(a)Delta(b) and eps(ab) = eps(a)eps(b) are
scanned with one index on an algebra generating set only: the middle
nucleus {a : (xa)y = x(ay)} is a unital subalgebra for any unital bilinear
product (Teichmueller identity), and so is
{a : Delta(ab) = Delta(a)Delta(b) for all b} once the product is associative
and Delta(1) = 1 x 1, and {a : eps(ab) = eps(a)eps(b) for all b} once it is
associative and eps(1) = 1.  Coassociativity is scanned on the generating
set once Delta is multiplicative as well, since (Delta x id)Delta and
(id x Delta)Delta are then algebra maps that agree on 1.  The antipode axiom
is scanned on it once every bialgebra axiom holds, S(1) = 1 and
S(ab) = S(b)S(a) holds for a in the set and every b: the a with
S(ab) = S(b)S(a) for all b, and then the h with S(h1)h2 = eps(h)1 = h1S(h2),
form subalgebras.  When a premise fails, or a reduced scan finds a defect,
the full scan runs, so every failure carries the first witness in basis
order.  The antipode of a finite-dimensional Hopf algebra is bijective
(Larson-Sweedler), so its rank is computed only when another check fails.
All instances are immutable after construction and all operations are pure.

Every FinHopf that reaches the derived checks is a Hopf algebra: a catalogue
constructor (``builders``) builds one by construction, and the command line
runs ``verify_hopf`` on every bundle it reads and refuses one that fails.  So
the checks of derived data that rest on H being an associative algebra
(integrals, the distinguished grouplike, and in ``extension`` and
``module_theory`` the dual bases, normality and module multiplicativity) run
on a generating set.  So, between modules whose action is known to be
multiplicative (see ``module_theory.HModule``), do the H-linearity of module
maps, hom spaces, the invariants of ``frob_objects`` and the
Yetter-Drinfeld condition of ``yetter_drinfeld.verify_yd``.
"""

from collections import deque
from functools import wraps

from . import _kernel as K
from .errors import HopfkitError, PipelineError, ShapeError, SingularAntipodeError
from .exact_math import (
    Matrix,
    RowSpace,
    _add,
    _apply,
    _axpy,
    _clean,
    _column,
    _dense,
    _dot,
    _normalize_first_one,
    _scale,
    _table_apply,
    _table_mul,
    _tensor,
    nullspace_raw,
)
from .reports import Report


def cached(key=None):
    """Memoize a derived value on its subject: ``fn(obj, *args)`` is computed
    once per object and kept in ``obj._cache`` under
    ``(fn.__name__, *key(*args))``, by default ``(fn.__name__, *args)``.  A
    call that raises stores nothing.  No decorated function returns None,
    which marks a missing entry."""

    def decorate(fn):
        name = fn.__name__

        @wraps(fn)
        def memo(obj, *args):
            k = (name, *(args if key is None else key(*args)))
            got = obj._cache.get(k)
            if got is None:
                got = obj._cache[k] = fn(obj, *args)
            return got

        return memo

    return decorate


class FinHopf:
    """A finite-dimensional Hopf algebra given by exact structure constants.

    The constructor is the only way in, and takes raw tables over
    Q(zeta_N): ``mult[i*n + j]``, ``comult[i]`` and ``antipode_cols[j]`` are
    tuples of ``(k, raw)`` pairs sorted by k with no zero scalar, for
    e_i e_j, Delta(e_i) (k = a*n + b for e_a x e_b) and S(e_j); ``unit``
    and ``counit`` are dense tuples of n raw scalars.  Every table is read
    by index or as a whole, never by slice, so a builder may pass a table
    that computes each row on its first read and otherwise reads as the
    tuple of its rows (``builders._LazyRows``)."""

    __slots__ = (
        "name",
        "dim",
        "basis_labels",
        "N",
        "mult",
        "unit",
        "comult",
        "counit",
        "antipode_cols",
        "convention",
        "ctx",
        "_cache",
    )

    def __init__(self, name, basis_labels, N, mult, unit, comult, counit, antipode_cols, convention=""):
        self.name = name
        self.basis_labels = tuple(basis_labels)
        self.dim = len(self.basis_labels)
        self.N = N
        self.mult = mult
        self.unit = unit
        self.comult = comult
        self.counit = counit
        self.antipode_cols = antipode_cols
        self.convention = convention
        self.ctx = K.make_ctx(N)
        self._cache = {}

    # -- views -------------------------------------------------------------

    @cached()
    def antipode_matrix(self):
        n = self.dim
        z = K.s_zero(self.ctx)
        data = [[z] * n for _ in range(n)]
        for j, col in enumerate(self.antipode_cols):
            for i, s in col:
                data[i][j] = s
        return Matrix(self.N, data)

    def lifted(self, M):
        """The same Hopf algebra with scalars re-expressed at conductor M."""
        # H itself is not cached on H, which would make a reference cycle
        return self if M == self.N else self._lifted(M)

    @cached()
    def _lifted(self, M):
        if M % self.N != 0:
            raise ShapeError("conductor %d does not divide %d" % (self.N, M))
        N = self.N
        return FinHopf(
            self.name,
            self.basis_labels,
            M,
            tuple(tuple((k, K.s_lift(s, N, M)) for k, s in row) for row in self.mult),
            tuple(K.s_lift(s, N, M) for s in self.unit),
            tuple(tuple((x, K.s_lift(s, N, M)) for x, s in row) for row in self.comult),
            tuple(K.s_lift(s, N, M) for s in self.counit),
            tuple(tuple((i, K.s_lift(s, N, M)) for i, s in col) for col in self.antipode_cols),
            convention=self.convention,
        )

    def label_index(self, label):
        try:
            return self.basis_labels.index(label)
        except ValueError:
            raise KeyError("no basis label %r in %s" % (label, self.name)) from None

    # -- sparse-vector calculus --------------------------------------------

    def basis_vec(self, i):
        return {i: self.ctx[4]}

    def unit_vec(self):
        return _clean(self.ctx, enumerate(self.unit))

    def mult_vec(self, u, v):
        """Product of two sparse vectors {index: raw}."""
        return _table_mul(self.ctx, self.mult, self.dim, u, v)

    def comult_vec(self, u):
        """Coproduct of a sparse vector, keys flattened as j*dim + k."""
        return _table_apply(self.ctx, self.comult, u)

    @cached()
    def comult2(self, i):
        """Cached (Delta x id)Delta(e_i) as tuple of ((a,b,c), raw)."""
        ctx = self.ctx
        n = self.dim
        acc = {}
        for x, s in self.comult[i]:
            a, b = divmod(x, n)
            for y, t in self.comult[a]:
                _add(ctx, acc, divmod(y, n) + (b,), K.s_mul(ctx, s, t))
        return tuple(sorted(acc.items()))

    @cached()
    def yd_twist(self, i, g):
        """Cached sum of s * (e_p e_g S(e_r)) x e_q over (Delta x id)Delta(e_i)
        = sum s e_p x e_q x e_r, as a tuple of ((k, q), raw) for the term
        e_k x e_q.  This is h_1 g S(h_3) x h_2 for h = e_i, the twist in the
        Yetter-Drinfeld condition delta(h v) = h_1 v_(-1) S(h_3) x h_2 v_(0)."""
        ctx = self.ctx
        one = K.s_one(ctx)
        acc = {}
        for (p, q, r), s in self.comult2(i):
            u = self.mult_vec(self.mult_vec({p: s}, {g: one}), self.antipode_vec({r: one}))
            for k, c in u.items():
                _add(ctx, acc, (k, q), c)
        return tuple(sorted(acc.items()))

    def antipode_vec(self, u):
        return _table_apply(self.ctx, self.antipode_cols, u)

    def __repr__(self):
        return "FinHopf(%s, dim=%d, conductor=%d)" % (self.name, self.dim, self.N)


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


def _check_shapes(H):
    n = H.dim
    if len(H.mult) != n * n or len(H.comult) != n:
        raise ShapeError("structure tensor arity mismatch for %s" % H.name)
    if len(H.unit) != n or len(H.counit) != n or len(H.antipode_cols) != n:
        raise ShapeError("unit/counit/antipode size mismatch for %s" % H.name)
    for rows, bound, what in ((H.mult, n, "mult"), (H.comult, n * n, "comult"),
                              (H.antipode_cols, n, "antipode")):
        for row in rows:
            for k, _ in row:
                if not 0 <= k < bound:
                    raise ShapeError("%s output index %d out of range" % (what, k))


@cached()
def algebra_generators(H):
    """Basis indices G such that 1 and the products of elements of G span H;
    cached on H.

    Greedy in basis order: i joins G when e_i lies outside the span S of 1
    and the e_g, g in G, closed under right multiplication by every e_g;
    then S is closed again.  Once S is H, no product is formed.  Only
    meaningful when 1 is a two-sided unit.

    S is span{e_r : r in R} for a set R of reached indices, plus the span
    of the vectors of a ``RowSpace`` whose rows have no entry in R except
    at their own pivot.  For r in R and g in G the row e_r e_g is looked
    up, the newest g's first, in the order r was reached: one index k
    outside R puts k in R, and more are reduced to a new vector.  Once
    there is one, a reached k also puts e_k in the RowSpace, which clears
    column k from its rows.  Only the vectors are multiplied by
    generators, after their entries in R are dropped."""
    n, mult, one = H.dim, H.mult, H.ctx[4]
    space = RowSpace(n, H.ctx)
    reached = [False] * n
    size = 0  # dim S
    gens, vectors = [], []
    newest = deque()  # r of the rows e_r e_g still to read for the newest g, oldest first
    rows, products = [], []  # (r, g) of the other rows to read, (v, g) of products v e_g to form

    def reach(k):
        nonlocal size
        reached[k] = True
        size += space.add({k: one}) if vectors else 1
        newest.append(k)
        rows.extend((k, g) for g in gens[:-1])

    def take(terms):
        # a vector of S, given as (index, raw) pairs
        nonlocal size
        out = [(k, s) for k, s in terms if not reached[k]]
        if len(out) == 1:
            reach(out[0][0])
        elif out:
            rem = space.reduce(dict(out))
            if len(rem) == 1:
                reach(min(rem))
            elif rem:
                size += space.add(rem)
                vectors.append(rem)
                products.extend((rem, g) for g in gens)

    take(H.unit_vec().items())
    for i in range(n):
        if size == n:
            break
        if reached[i] or vectors and space.contains({i: one}):
            continue
        newest = deque(r for r in range(n) if reached[r])
        gens.append(i)
        products.extend((v, i) for v in vectors)
        reach(i)
        while size < n and (newest or rows or products):
            if newest or rows:
                r, g = (newest.popleft(), i) if newest else rows.pop()
                row = mult[r * n + g]
                if len(row) > 1 or row and not reached[row[0][0]]:
                    take(row)
            else:
                v, g = products.pop()
                v = {k: s for k, s in v.items() if not reached[k]}
                # a v left as c e_k puts k in R, since only the rows of k form v e_g
                take(H.mult_vec(v, H.basis_vec(g)).items() if len(v) > 1 else v.items())
    return tuple(gens)


def _first_defect(scan, restrict, *args):
    """The full scan's first defect; None without a full scan when the
    restricted scan finds none (the restriction must then prove the axiom)."""
    if restrict is not None and scan(*args, restrict) is None:
        return None
    return scan(*args)


def _multiplicative_defect(H, values, lefts=None):
    """The first (i, j), i in lefts (all of H by default), with
    f(e_i e_j) != f(e_i) f(e_j) for the functional f with raw values."""
    n, ctx = H.dim, H.ctx
    zero = ctx[3]
    for i in range(n) if lefts is None else lefts:
        fi = values[i]
        for j in range(n):
            acc = zero
            # a term where f vanishes adds f(e_k) s = 0
            for k, s in H.mult[i * n + j]:
                fk = values[k]
                if fk != zero:
                    acc = K.s_add(ctx, acc, K.s_mul(ctx, fk, s))
            if acc != K.s_mul(ctx, fi, values[j]):
                return (i, j)
    return None


def _counit_defect(H, lefts=None):
    """The first (i, j), i in lefts (all of H by default), with
    eps(e_i e_j) != eps(e_i) eps(e_j)."""
    return _multiplicative_defect(H, H.counit, lefts)


def verify_hopf(H):
    """Check every Hopf axiom; failures carry the first witness in basis order.

    Associativity and multiplicativity of the coproduct and the counit are
    scanned on a generating set G only (see ``algebra_generators``) once the
    axioms the reduction rests on hold: the unit axiom for the middle index
    of associativity, and in addition associativity and Delta(1) = 1 x 1
    (eps(1) = 1) for the left index of Delta(ab) = Delta(a)Delta(b)
    (eps(ab) = eps(a)eps(b)).  Coassociativity is scanned on G once Delta is
    multiplicative as well.  The antipode axiom is scanned on G once every
    other axiom holds, S(1) = 1 and S(ab) = S(b)S(a) for a in G and every b.
    Otherwise, or when a reduced scan finds a defect, the scan runs over all
    basis tuples.  The antipode is invertible exactly when its matrix has
    full rank; when every other check passes, H is a Hopf algebra and its
    antipode is bijective (Larson-Sweedler), so the rank is not computed.
    """
    _check_shapes(H)
    n = H.dim
    ctx = H.ctx
    rep = Report("verify-hopf %s" % H.name)

    unit = H.unit_vec()
    w_unit = next((i for i in range(n) if H.mult_vec(unit, H.basis_vec(i)) != H.basis_vec(i)
                   or H.mult_vec(H.basis_vec(i), unit) != H.basis_vec(i)), None)
    gens = algebra_generators(H) if w_unit is None else None
    w_assoc = _first_defect(K.assoc_first_defect, gens, n, H.mult, ctx)
    rep.add("mult-associative", w_assoc is None, witness=w_assoc, anchor="hopf-axioms")
    rep.add("mult-unital", w_unit is None, witness=w_unit, anchor="hopf-axioms")

    unit_grouplike = H.comult_vec(unit) == _tensor(ctx, {}, unit, unit, n)
    lefts = gens if w_assoc is None and unit_grouplike else None
    w_bialg = _first_defect(K.bialg_first_defect, lefts, n, H.mult, H.comult, ctx)
    # (Delta x id)Delta and (id x Delta)Delta are then algebra maps that agree on 1
    w = _first_defect(K.coassoc_first_defect, lefts if w_bialg is None else None, n, H.comult, ctx)
    rep.add("comult-coassociative", w is None, witness=w, anchor="hopf-axioms")

    w = counital_defect(H)
    rep.add("comult-counital", w is None, witness=w, anchor="hopf-axioms")

    rep.add("comult-multiplicative", w_bialg is None, witness=w_bialg, anchor="bialgebra")
    rep.add("comult-of-unit", unit_grouplike, anchor="bialgebra")

    counit_of_unit = _dot(ctx, H.counit, unit) == K.s_one(ctx)
    lefts = gens if w_assoc is None and counit_of_unit else None
    w = _first_defect(_counit_defect, lefts, H)
    rep.add("counit-multiplicative", w is None, witness=w, anchor="bialgebra")
    rep.add("counit-of-unit", counit_of_unit, anchor="bialgebra")

    # with S(1) = 1, {a : S(ab) = S(b)S(a) for all b} is a subalgebra, and so
    # then is the set where the antipode axiom holds
    args = (n, H.mult, H.comult, H.antipode_cols, H.unit, H.counit, ctx)
    reduced = (gens is not None and rep.ok and H.antipode_vec(unit) == unit
               and K.antimult_first_defect(n, H.mult, H.antipode_cols, ctx, gens) is None
               and K.antipode_first_defects(*args, gens) == (None, None))
    w_left, w_right = (None, None) if reduced else K.antipode_first_defects(*args)
    rep.add("antipode-left", w_left is None, witness=w_left, anchor="antipode-axiom")
    rep.add("antipode-right", w_right is None, witness=w_right, anchor="antipode-axiom")

    # a finite-dimensional Hopf algebra has a bijective antipode (Larson-Sweedler)
    invertible = rep.ok or H.antipode_matrix().rank() == n
    rep.add("antipode-invertible", invertible, anchor="antipode-axiom")
    return rep


@cached()
def antipode_inverse(H):
    """S^{-1} as an exact matrix; raises SingularAntipodeError if singular."""
    inv = H.antipode_matrix().inverse()
    if inv is None:
        raise SingularAntipodeError("antipode of %s is singular" % H.name)
    return inv


def dual_hopf(H):
    """The dual Hopf algebra on the dual basis (tensors transposed)."""
    n = H.dim
    dual_mult = [[] for _ in range(n * n)]
    for k in range(n):
        for x, s in H.comult[k]:
            dual_mult[x].append((k, s))
    dual_comult = [[] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k, s in H.mult[i * n + j]:
                dual_comult[k].append((i * n + j, s))
    dual_cols = [[] for _ in range(n)]
    for i, col in enumerate(H.antipode_cols):
        for j, s in col:
            dual_cols[j].append((i, s))
    return FinHopf(
        H.name + "*",
        tuple("d:%s" % l for l in H.basis_labels),
        H.N,
        tuple(tuple(sorted(r)) for r in dual_mult),
        tuple(H.counit),
        tuple(tuple(sorted(r)) for r in dual_comult),
        tuple(H.unit),
        tuple(tuple(sorted(c)) for c in dual_cols),
        convention=H.convention,
    )


def _integral_rows(H, side, js=None):
    """Constraint rows of Lambda h_j = eps(h_j) Lambda (right) or
    h_j Lambda = eps(h_j) Lambda (left), for j in js (default: every basis
    index), yielded sparsely."""
    n = H.dim
    ctx = H.ctx
    for j in range(n) if js is None else js:
        eps_j = H.counit[j]
        rows = [dict() for _ in range(n)]
        for i in range(n):
            pair = i * n + j if side == "right" else j * n + i
            for k, s in H.mult[pair]:
                _add(ctx, rows[k], i, s)
        if eps_j != ctx[3]:
            for i in range(n):
                _add(ctx, rows[i], i, K.s_neg(eps_j))
        for r in rows:
            if r:
                yield r


@cached()
def integral_space(H, side):
    """Exact basis of left or right integrals, first coordinate normalized to 1.

    Right integrals solve Lambda h = eps(h) Lambda, left integrals
    h Lambda = eps(h) Lambda.  As H is associative and eps multiplicative
    with eps(1) = 1, the equations for a and b give those for ab, so h runs
    over a generating set G only (see ``algebra_generators``), one generator
    at a time: the n rows of the one with fewest table terms give a basis
    v_1..v_d, and each further g keeps the sums sum_t c_t v_t it fixes,
    solved in d unknowns.  The integrals of a Hopf algebra form a line
    (Larson-Sweedler), whose normalized basis is the full system's.
    """
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    n, ctx = H.dim, H.ctx
    right = side == "right"
    gens = sorted(algebra_generators(H), key=lambda j: (sum(
        len(H.mult[i * n + j] if right else H.mult[j * n + i]) for i in range(n)), j))
    basis = nullspace_raw(_integral_rows(H, side, gens[:1]), n, ctx)
    for j in gens[1:]:
        e_j, neg_eps = H.basis_vec(j), K.s_neg(H.counit[j])
        rows = {}  # output coordinate -> {t: coefficient of v_t}
        for t, v in enumerate(basis):
            w = H.mult_vec(v, e_j) if right else H.mult_vec(e_j, v)
            for k, s in _axpy(ctx, w, v, neg_eps).items():
                rows.setdefault(k, {})[t] = s
        basis = [_apply(ctx, basis, c) for c in nullspace_raw(rows.values(), len(basis), ctx)]
    return [_column(H.N, _normalize_first_one(ctx, v), n) for v in basis]


def right_integral_element(H):
    basis = integral_space(H, "right")
    if len(basis) != 1:
        raise PipelineError(
            "right integral space of %s has dimension %d, expected 1" % (H.name, len(basis))
        )
    return basis[0]


@cached()
def distinguished_grouplike(H):
    """The algebra map alpha with a*Lambda = alpha(a)*Lambda for the right
    integral, as the tuple of its raw values alpha(e_a).

    The a with a*Lambda in k*Lambda contain 1 and are closed under products
    and sums, so a*Lambda in k*Lambda is checked for a in G only (see
    ``algebra_generators``).  Then alpha(e_a), for every a, is the
    coordinate of e_a*Lambda at Lambda's first nonzero index, where Lambda
    is 1.
    """
    Lam = right_integral_element(H)
    ctx = H.ctx
    zero = ctx[3]
    lam_vec = Lam.col(0)
    pivot = min(lam_vec)  # normalized so lam_vec[pivot] == 1
    # right_integral_element has cached G through integral_space
    gens = algebra_generators(H)
    for a in gens:
        w = H.mult_vec(H.basis_vec(a), lam_vec)
        if w != _scale(ctx, lam_vec, w.get(pivot, zero)):
            raise PipelineError("left action on the right integral of %s is not scalar" % H.name)
    alpha = tuple(H.mult_vec(H.basis_vec(a), lam_vec).get(pivot, zero) for a in range(H.dim))
    _assert_algebra_map(H, alpha, "distinguished grouplike", gens)
    return alpha


def _assert_algebra_map(H, f, what, lefts=None):
    """Raise unless f(1) = 1 and f(ab) = f(a) f(b), for the functional f
    with the raw values f(e_a).  With lefts = G (see
    ``algebra_generators``), a in G suffices: once f(1) = 1,
    {a : f(ab) = f(a) f(b) for all b} contains 1 and, as H is associative,
    is closed under products, so it is H.  A defect found on G is looked
    up again by the full scan, whose first witness the error names."""
    if _dot(H.ctx, f, H.unit_vec()) != K.s_one(H.ctx):
        raise PipelineError("%s of %s does not send 1 to 1" % (what, H.name))
    w = _first_defect(_multiplicative_defect, lefts, H, f)
    if w is not None:
        raise PipelineError("%s of %s is not an algebra map at (%d,%d)" % ((what, H.name) + w))


def is_unimodular(H):
    """True iff the right integral Lambda is a left integral, that is
    g*Lambda = eps(g)*Lambda for g in G (see ``algebra_generators``): the h
    with h*Lambda = eps(h)*Lambda form a subalgebra, as eps is an algebra
    map.  The integrals of a Hopf algebra form a line (Larson-Sweedler), so
    then the left and right integrals coincide."""
    lam_vec = right_integral_element(H).col(0)
    return all(H.mult_vec(H.basis_vec(g), lam_vec) == _scale(H.ctx, lam_vec, H.counit[g])
               for g in algebra_generators(H))


def counital_defect(H):
    """The first basis index t of the FinHopf H where
    (eps x id)Delta(e_t) = e_t = (id x eps)Delta(e_t) fails, or None."""
    n, ctx = H.dim, H.ctx
    one = K.s_one(ctx)
    for t in range(n):
        lacc = {}
        racc = {}
        for x, s in H.comult[t]:
            j, k = divmod(x, n)
            _axpy(ctx, lacc, {k: s}, H.counit[j])
            _axpy(ctx, racc, {j: s}, H.counit[k])
        if lacc != {t: one} or racc != {t: one}:
            return t
    return None


@cached()
def right_integral_of_dual(C):
    """Right integral lambda of C* as a functional on the coalgebra C (a
    FinHopf or a BarQuotient), the tuple of its raw values lambda(c_i),
    without materializing C*; cached on C."""
    n = C.dim
    ctx = C.ctx
    unit = _clean(ctx, enumerate(C.unit))
    space = RowSpace(n, ctx)
    # lambda(c_(1)) c_(2) = lambda(c) 1 for all basis c
    for i in range(n):
        rows = [dict() for _ in range(n)]
        for x, s in C.comult[i]:
            j, k = divmod(x, n)
            _add(ctx, rows[k], j, s)
        for k, u in unit.items():
            _add(ctx, rows[k], i, K.s_neg(u))
        for r in rows:
            if r:
                space.add(r)
    basis = space.nullspace()
    if len(basis) != 1:
        raise PipelineError(
            "right integral space of %s* has dimension %d, expected 1" % (C.name, len(basis))
        )
    return tuple(_dense(ctx, _normalize_first_one(ctx, basis[0]), n))


def is_symmetric(C, lam):
    """True iff lam(c_(1)) c_(2) == c_(1) lam(c_(2)) for every basis c of C,
    for the functional lam with the raw values lam(c_i)."""
    n = C.dim
    ctx = C.ctx
    for i in range(n):
        left = {}
        right = {}
        for x, s in C.comult[i]:
            j, k = divmod(x, n)
            _axpy(ctx, left, {k: s}, lam[j])
            _axpy(ctx, right, {j: s}, lam[k])
        if left != right:
            return False
    return True


def is_dual_unimodular(C):
    """True iff the right integral of C* is symmetric (see ``is_symmetric``)."""
    return is_symmetric(C, right_integral_of_dual(C))


def basis_closure(H, gens):
    """The least set of basis indices, ascending, that holds ``gens`` and the
    support of 1 and holds the supports of e_i e_j, e_j e_i, both legs of
    Delta(e_i) and S(e_i) for all i, j in it.  The span of some basis vectors
    is closed under the product, Delta or S exactly when their values on
    those vectors have their supports in it, so this spans the least Hopf
    subalgebra that holds the e_g and is spanned by basis vectors."""
    n = H.dim
    found, todo, done = set(), [], []

    def reach(keys):
        for k in keys:
            if k not in found:
                found.add(k)
                todo.append(k)

    reach(gens)
    reach(H.unit_vec())
    while todo:
        i = todo.pop()
        done.append(i)
        # each product of two reached elements is read once, when the later is
        for j in done:
            reach(k for k, _ in H.mult[i * n + j] + H.mult[j * n + i])
        reach(y for x, _ in H.comult[i] for y in divmod(x, n))
        reach(k for k, _ in H.antipode_cols[i])
    return sorted(found)


def subhopf_from_basis(H, indices, name=None):
    """The Hopf subalgebra spanned by the given basis indices.

    The span must be closed under multiplication, comultiplication, unit and
    antipode; raises HopfkitError otherwise.  Returns (sub, embed_matrix).
    """
    indices = list(indices)
    pos = {b: t for t, b in enumerate(indices)}
    n = H.dim
    m = len(indices)
    ctx = H.ctx
    mult = [[] for _ in range(m * m)]
    for a, i in enumerate(indices):
        for b, j in enumerate(indices):
            for k, s in H.mult[i * n + j]:
                if k not in pos:
                    raise HopfkitError("multiplication leaves the span at (%d,%d)" % (i, j))
                mult[a * m + b].append((pos[k], s))
    comult = [[] for _ in range(m)]
    for a, i in enumerate(indices):
        for x, s in H.comult[i]:
            j, k = divmod(x, n)
            if j not in pos or k not in pos:
                raise HopfkitError("comultiplication leaves the span at %d" % i)
            comult[a].append((pos[j] * m + pos[k], s))
    unit = [K.s_zero(ctx)] * m
    for i, s in H.unit_vec().items():
        if i not in pos:
            raise HopfkitError("unit not in span")
        unit[pos[i]] = s
    counit = [H.counit[i] for i in indices]
    cols = []
    for i in indices:
        if any(k not in pos for k, _ in H.antipode_cols[i]):
            raise HopfkitError("antipode leaves the span at %d" % i)
        cols.append(tuple(sorted((pos[k], s) for k, s in H.antipode_cols[i])))
    sub = FinHopf(
        name or ("%s[%s]" % (H.name, ",".join(H.basis_labels[i] for i in indices[:4]) + ("..." if m > 4 else ""))),
        tuple(H.basis_labels[i] for i in indices),
        H.N,
        tuple(tuple(sorted(r)) for r in mult),
        tuple(unit),
        tuple(tuple(sorted(r)) for r in comult),
        tuple(counit),
        tuple(cols),
        convention=H.convention,
    )
    o = K.s_one(ctx)
    embed_rows = [{} for _ in range(n)]
    for b, i in enumerate(indices):
        embed_rows[i][b] = o
    return sub, Matrix.from_sparse(H.N, m, embed_rows)
