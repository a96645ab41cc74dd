"""Exact arithmetic in cyclotomic fields Q(zeta_N) and exact linear algebra.

Scalars are elements of Q(zeta_N) held as the kernel's raw scalars, one per
value (``_kernel``), so equality is exact.  Mixed conductors are lifted to
the lcm; there is no automatic conductor minimization.  All values are
immutable and all operations are pure.

Every elimination (rank, inverse, solve, null spaces) runs on one
incrementally maintained sparse reduced row echelon form, ``RowSpace``.  A
row space has exactly one RREF, so all outputs are deterministic.
"""

import re
from bisect import insort
from fractions import Fraction
from math import gcd, lcm

from . import _kernel as K
from .errors import InconsistentSystemError, ShapeError


def _coerce_ratio(value):
    """(p, q) for an int or a Fraction; raises TypeError for anything else."""
    if isinstance(value, int):
        return value, 1
    if isinstance(value, Fraction):
        return value.numerator, value.denominator
    raise TypeError("cannot coerce %r to a cyclotomic scalar" % (value,))


class Cyclotomic:
    """An element of Q(zeta_N), canonically reduced mod the N-th cyclotomic polynomial."""

    __slots__ = ("N", "data")
    __hash__ = None  # cross-conductor equality makes hashing unreliable

    def __init__(self, N, data):
        self.N = N
        self.data = data

    # -- constructors ------------------------------------------------------

    @classmethod
    def rational(cls, value, N=1):
        p, q = _coerce_ratio(value)
        return cls(N, K.s_from_ratio(K.make_ctx(N), p, q))

    @classmethod
    def from_coeffs(cls, N, fracs):
        ctx = K.make_ctx(N)
        fracs = [Fraction(f) for f in fracs]
        if len(fracs) != ctx[1]:
            raise ShapeError("expected %d coefficients for conductor %d" % (ctx[1], N))
        return cls(N, K.s_from_fractions(ctx, fracs))

    @classmethod
    def promote(cls, value):
        if isinstance(value, Cyclotomic):
            return value
        return cls.rational(value)

    # -- structure ---------------------------------------------------------

    def coeffs(self):
        """Coefficients over the power basis 1, z, ..., z^(phi(N)-1), as Fractions."""
        return K.s_to_fractions(self.data)

    def is_zero(self):
        return K.s_is_zero(self.data)

    def as_fraction(self):
        f = K.s_rational_part(self.data)
        if f is None:
            raise ValueError("%s is not rational" % self)
        return f

    def lift(self, M):
        """The same value viewed in Q(zeta_M); N must divide M."""
        if M == self.N:
            return self
        if M % self.N != 0:
            raise ValueError("conductor %d does not divide %d" % (self.N, M))
        return Cyclotomic(M, K.s_lift(self.data, self.N, M))

    def lower(self, M):
        """The same value viewed in Q(zeta_M), for M dividing N; raises
        ValueError when the value does not lie in that subfield."""
        if M == self.N:
            return self
        if self.N % M != 0:
            raise ValueError("conductor %d does not divide %d" % (M, self.N))
        # column j of A holds the coefficients of zeta_M**j at conductor N
        A = Matrix.from_rows(list(zip(*K.lift_table(M, self.N))))
        try:
            x = A.solve(Matrix.column(self.coeffs())).particular
        except InconsistentSystemError:
            raise ValueError("%s does not lie in Q(zeta_%d)" % (self, M)) from None
        return Cyclotomic.from_coeffs(M, [x.entry(j, 0).as_fraction() for j in range(x.rows)])

    # -- arithmetic --------------------------------------------------------

    def _pair(self, other):
        other = Cyclotomic.promote(other)
        if other.N == self.N:
            return self, other
        M = lcm(self.N, other.N)
        return self.lift(M), other.lift(M)

    def __add__(self, other):
        a, b = self._pair(other)
        return Cyclotomic(a.N, K.s_add(K.make_ctx(a.N), a.data, b.data))

    __radd__ = __add__

    def __sub__(self, other):
        a, b = self._pair(other)
        return Cyclotomic(a.N, K.s_sub(K.make_ctx(a.N), a.data, b.data))

    def __rsub__(self, other):
        return Cyclotomic.promote(other).__sub__(self)

    def __neg__(self):
        return Cyclotomic(self.N, K.s_neg(self.data))

    def __mul__(self, other):
        a, b = self._pair(other)
        return Cyclotomic(a.N, K.s_mul(K.make_ctx(a.N), a.data, b.data))

    __rmul__ = __mul__

    def inverse(self):
        return Cyclotomic(self.N, K.s_inv(K.make_ctx(self.N), self.data))

    def __truediv__(self, other):
        a, b = self._pair(other)
        return a * b.inverse()

    def __rtruediv__(self, other):
        return Cyclotomic.promote(other).__truediv__(self)

    def __pow__(self, k):
        if k < 0:
            return self.inverse().__pow__(-k)
        ctx = K.make_ctx(self.N)
        out = K.s_one(ctx)
        base = self.data
        while k:
            if k & 1:
                out = K.s_mul(ctx, out, base)
            base = K.s_mul(ctx, base, base)
            k >>= 1
        return Cyclotomic(self.N, out)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Cyclotomic.rational(other)
        elif not isinstance(other, Cyclotomic):
            return NotImplemented
        a, b = self._pair(other)
        return a.data == b.data

    # -- formatting --------------------------------------------------------

    def __str__(self):
        return format_scalar(self)

    def __repr__(self):
        return "Cyclotomic(%d, %s)" % (self.N, format_scalar(self))


def root_of_unity(N, k=1):
    """zeta_N**k in canonical reduced form at conductor N."""
    if N < 1:
        raise ValueError("conductor must be positive")
    return Cyclotomic(N, K.zeta_power(K.make_ctx(N), k))


def format_raw(a):
    """Render the raw scalar a, whose parts are (den, c_0, ..., c_(phi-1)),
    den > 0, as "p/q" or a sum of "p/q*z^k" terms (z denotes zeta_N).  Each
    c_k/den is written in lowest terms by its gcd with den, which is the
    normal form Fraction(c_k, den) prints; the text does not depend on N."""
    a = K.s_parts(a)
    den = a[0]
    terms = []
    for k, c in enumerate(a[1:]):
        if not c:
            continue
        g = gcd(c, den)
        num = str(c // g) if g == den else "%d/%d" % (c // g, den // g)
        terms.append(num if k == 0 else "%s*z^%d" % (num, k))
    return " + ".join(terms) or "0"


def format_scalar(a):
    """``format_raw`` of a Cyclotomic, int or Fraction."""
    return format_raw(Cyclotomic.promote(a).data)


# Coefficient and exponent tokens of the bundle scalar grammar.  Fraction and
# int accept more (exponent, decimal and underscore forms, inner spaces), and
# Fraction("1e999999999") builds a billion-digit integer, so a token is
# matched here before either sees it.
_COEFF = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")
_POWER = re.compile(r"[+-]?[0-9]+")


def _token(pattern, token, text):
    if pattern.fullmatch(token) is None:
        raise ValueError("bad token %r in scalar %r" % (token, text))
    return token


def _ratio(token):
    """(p, q) with q > 0 of a matched coefficient token, read as Fraction
    reads it: a zero denominator raises the ZeroDivisionError Fraction does."""
    num, _, den = token.partition("/")
    p = int(num)
    q = int(den) if den else 1
    if q == 0:
        raise ZeroDivisionError("Fraction(%s, 0)" % p)
    return p, q


def parse_scalar(text, N):
    """Inverse of format_scalar for a declared conductor N.  Coefficients are
    integers ``p`` or ratios ``p/q``; any other token raises ValueError.  The
    terms are summed as integers over their common denominator; a power
    z^k outside 0..phi(N)-1 is folded through ``zeta_power``."""
    text = text.strip()
    ctx = K.make_ctx(N)
    phi = ctx[1]
    if text in ("0", "+0", "-0"):
        return Cyclotomic(N, ctx[3])
    terms = []  # (p, q, k) for the term p/q*z^k
    den = 1
    for term in text.split("+"):
        term = term.strip()
        if not term:
            raise ValueError("empty term in scalar %r" % text)
        if "*" in term:
            coeff_s, _, pow_s = term.partition("*")
            pow_s = pow_s.strip()
            if pow_s == "z":
                k = 1
            elif pow_s.startswith("z^"):
                k = int(_token(_POWER, pow_s[2:], text))
            else:
                raise ValueError("bad power %r in scalar %r" % (pow_s, text))
            p, q = _ratio(_token(_COEFF, coeff_s.strip(), text))
        elif term == "z" or term.startswith("z^"):
            p = q = 1
            k = 1 if term == "z" else int(_token(_POWER, term[2:], text))
        else:
            p, q = _ratio(_token(_COEFF, term, text))
            k = 0
        terms.append((p, q, k))
        den = lcm(den, q)
    coeffs = [0] * phi
    for p, q, k in terms:
        c = p * (den // q)
        if 0 <= k < phi:
            coeffs[k] += c
        else:
            # zeta_power is canonical with denominator 1: integer coefficients
            for j, z in enumerate(K.s_parts(K.zeta_power(ctx, k))[1:]):
                coeffs[j] += c * z
    return Cyclotomic(N, K.s_from_ints(den, coeffs))


# ---------------------------------------------------------------------------
# raw helpers (module-internal but shared with the sibling modules)
# ---------------------------------------------------------------------------


def mat_mul_raw(A, B, ctx):
    """Gustavson product of sparse rows (dicts {col: raw} holding no zero):
    row i of A*B is the sum of a*B[k] over the entries (k, a) of A[i]."""
    return [_apply(ctx, B, row) for row in A]


# ---------------------------------------------------------------------------
# sparse vectors
#
# A sparse vector is a dict {index: raw scalar} that stores no zero value;
# indices are ints or tuples.  Only the helpers below build or add into one,
# so only they know this convention.  Each helper takes sparse vectors,
# except ``_clean``, which takes (index, raw) pairs such as
# ``enumerate(dense)``, and the three that read a structure table, whose rows
# list (index, raw) pairs: ``_table_apply``, ``_table_mul`` and
# ``_tensor_square_mul``, which takes its factors as such pairs too.
#
# The kernel never computes a product with the canonical one (``K.s_mul``
# returns the other factor), so a skip of a factor one here changes no
# value: it is for speed, saving the call and the memo lookup on the tens
# of thousands of products with one that these loops make per benchmark
# pass.  Code above this module multiplies plainly.
# ---------------------------------------------------------------------------


def _add(ctx, acc, k, s):
    """acc[k] += s for a nonzero raw s; a key whose sum is zero is dropped."""
    prev = acc.get(k)
    if prev is None:
        acc[k] = s
    else:
        s = K.s_add(ctx, prev, s)
        if s == ctx[3]:
            del acc[k]
        else:
            acc[k] = s


def _axpy(ctx, acc, vec, c):
    """acc += c*vec in place; returns acc.  A factor 1 skips ``K.s_mul``, for
    speed."""
    zero, one = ctx[3], ctx[4]
    if c == zero:
        return acc
    if c == one:
        for k, s in vec.items():
            _add(ctx, acc, k, s)
    else:
        for k, s in vec.items():
            _add(ctx, acc, k, c if s == one else K.s_mul(ctx, c, s))
    return acc


def _scale(ctx, vec, c):
    """c*vec as a new sparse vector.  A factor 1 skips ``K.s_mul``, for speed."""
    zero, one = ctx[3], ctx[4]
    if c == zero:
        return {}
    if c == one:
        return dict(vec)
    return {k: c if s == one else K.s_mul(ctx, c, s) for k, s in vec.items()}


def _normalize_first_one(ctx, vec):
    """The nonzero sparse vector vec scaled so that its first entry is 1."""
    return _scale(ctx, vec, K.s_inv(ctx, vec[min(vec)]))


def _clean(ctx, terms):
    """The nonzero entries of terms (e.g. ``enumerate(dense)``) as a sparse vector."""
    zero = ctx[3]
    return {k: s for k, s in terms if s != zero}


def _dense(ctx, vec, n):
    """vec as a dense list of n raw scalars."""
    out = [K.s_zero(ctx)] * n
    for k, s in vec.items():
        out[k] = s
    return out


def _column(N, vec, n):
    """The sparse vector vec over Q(zeta_N) as an n x 1 Matrix."""
    return Matrix.from_sparse(N, 1, [{0: vec[i]} if i in vec else {} for i in range(n)])


def _tensor(ctx, acc, u, v, n):
    """acc += u (x) v in place, the pair (i, j) at index i*n + j; returns acc.
    A factor 1 skips ``K.s_mul``, for speed."""
    one = ctx[4]
    for i, a in u.items():
        base = i * n
        for j, b in v.items():
            _add(ctx, acc, base + j, b if a == one else a if b == one else K.s_mul(ctx, a, b))
    return acc


def _kron_act(ctx, out, A, B, m, terms, row0, rs, col0, cs):
    """out += sum c*(A[x // m] (x) B[x % m]) over the (x, c) of terms, an
    element of X (x) X acting through the actions A and B of X, tables of
    ``Matrix.srows`` at ctx: c*a*b, for entries (i, j, a) and (k, l, b), at
    row row0 + i*rs + k and column col0 + j*cs + l.  A factor 1 skips
    ``K.s_mul``, for speed."""
    zero, one = ctx[3], ctx[4]
    for x, c in terms:
        if c == zero:
            continue
        brows = [(row0 + k, r.items()) for k, r in enumerate(B[x % m]) if r]
        for i, arow in enumerate(A[x // m]):
            base = i * rs
            for j, a in arow.items():
                a = a if c == one else c if a == one else K.s_mul(ctx, c, a)
                col = col0 + j * cs
                for k, brow in brows:
                    acc = out[base + k]
                    for l, b in brow:
                        _add(ctx, acc, col + l,
                             b if a == one else a if b == one else K.s_mul(ctx, a, b))


def _act_blocks(ctx, out, A, d, blocks):
    """out += the actions of algebra vectors through A, in place: for each
    (s, t, terms) of blocks, c*A[x] is added into block (s, t) of size d,
    rows s*d.. and columns t*d.., over the (x, c) of terms.  A is a table of
    ``Matrix.srows`` of d x d matrices at ctx, such as a module's action
    matrices.  Zero coefficients are skipped, and a factor 1 skips
    ``K.s_mul``, for speed."""
    zero, one = ctx[3], ctx[4]
    for s, t, terms in blocks:
        rows, col0 = out[s * d:(s + 1) * d], t * d
        for x, c in terms:
            if c == zero:
                continue
            for acc, row in zip(rows, A[x]):
                for j, v in row.items():
                    _add(ctx, acc, col0 + j,
                         v if c == one else c if v == one else K.s_mul(ctx, c, v))


def _dot(ctx, values, vec):
    """The functional with the dense raw values applied to the sparse vector
    vec: the sum of values[k]*c over the entries (k, c) of vec.  A factor 1
    skips ``K.s_mul``, for speed."""
    acc, one = ctx[3], ctx[4]
    for k, c in vec.items():
        v = values[k]
        acc = K.s_add(ctx, acc, c if v == one else v if c == one else K.s_mul(ctx, v, c))
    return acc


def _apply(ctx, cols, vec):
    """Sum of c*cols[k] over the entries (k, c) of the sparse vector vec: the
    linear map with column table cols, a sequence of sparse vectors, applied
    to vec.  For a Matrix M, M*vec is ``_apply(ctx, M.transpose().srows, vec)``."""
    out = {}
    for k, c in vec.items():
        _axpy(ctx, out, cols[k], c)
    return out


def _table_apply(ctx, table, vec):
    """``_apply`` for a structure table, whose rows list (index, raw) pairs,
    such as ``FinHopf.comult``.  Zero entries of vec are skipped, and a
    factor 1 skips ``K.s_mul``, for speed."""
    zero, one = ctx[3], ctx[4]
    out = {}
    for k, c in vec.items():
        if c != zero:
            for x, s in table[k]:
                _add(ctx, out, x, s if c == one else c if s == one else K.s_mul(ctx, c, s))
    return out


def _table_mul(ctx, table, n, u, v):
    """Product of sparse vectors u and v, where table[i*n + j] lists the
    (k, raw) terms of e_i e_j.  Zero entries of u and v are skipped, and a
    factor 1 skips ``K.s_mul``, for speed.  A product of two one-term vectors
    is a copy of one table row, scaled unless its coefficient is 1; the rows
    store no zero and no repeated index, so the general sum gives the same."""
    zero, one = ctx[3], ctx[4]
    if len(u) == 1 == len(v):
        (i, a), = u.items()
        (j, b), = v.items()
        ab = b if a == one else a if b == one else K.s_mul(ctx, a, b)
        if ab == zero:
            return {}
        row = table[i * n + j]
        return dict(row) if ab == one else {k: ab if s == one else K.s_mul(ctx, ab, s)
                                            for k, s in row}
    v = [(j, b) for j, b in v.items() if b != zero]
    out = {}
    for i, a in u.items():
        if a == zero:
            continue
        base = i * n
        for j, b in v:
            ab = b if a == one else a if b == one else K.s_mul(ctx, a, b)
            for k, s in table[base + j]:
                _add(ctx, out, k, s if ab == one else ab if s == one else K.s_mul(ctx, ab, s))
    return out


def _tensor_square_mul(ctx, mult, n, u, v):
    """Product in X (x) X of sparse vectors, given as (i*n + j, raw) pairs,
    from the product table mult of X (dimension n).  A factor 1 skips
    ``K.s_mul``, for speed."""
    one = ctx[4]
    out = {}
    for x1, c1 in u:
        i1, j1 = divmod(x1, n)
        for x2, c2 in v:
            i2, j2 = divmod(x2, n)
            c = c2 if c1 == one else c1 if c2 == one else K.s_mul(ctx, c1, c2)
            right = mult[j1 * n + j2]
            for k1, s1 in mult[i1 * n + i2]:
                a = s1 if c == one else c if s1 == one else K.s_mul(ctx, c, s1)
                for k2, s2 in right:
                    _add(ctx, out, k1 * n + k2,
                         s2 if a == one else a if s2 == one else K.s_mul(ctx, a, s2))
    return out


def rref_raw(rows, ncols, ctx):
    """The reduced row echelon form of sparse (dict) rows of width ncols, as
    a RowSpace.  A row space has exactly one RREF, so the result does not
    depend on the order of the rows."""
    space = RowSpace(ncols, ctx)
    for row in rows:
        space.add(row)
    return space


def nullspace_raw(rows, ncols, ctx):
    """Null-space basis (list of sparse raw vectors) of stacked constraint rows."""
    return rref_raw(rows, ncols, ctx).nullspace()


class RowSpace:
    """Incrementally maintained RREF of a set of rows (sparse dict rows).

    ``pivots`` lists the pivot columns in increasing order and ``rows`` the
    rows in the same order; ``_row_at`` maps each pivot to its row, so that a
    reduction looks up only the pivots the vector touches.  ``_rows_with``
    maps each non-pivot column c to the set of pivots whose rows hold an
    entry at c, so that a new pivot rewrites only the rows that hold it."""

    def __init__(self, ncols, ctx):
        self.ncols = ncols
        self.ctx = ctx
        self.pivots = []  # sorted pivot columns
        self._row_at = {}  # pivot column -> its row, pivot coefficient 1
        self._rows_with = {}  # non-pivot column -> pivots of the rows holding it

    @property
    def rows(self):
        row_at = self._row_at
        return [row_at[p] for p in self.pivots]

    def reduce(self, vec):
        """Remainder of a sparse (dict) vector modulo the row space; zero
        values in vec are dropped.

        Row p is zero at every other pivot column, so subtracting it leaves the
        vector's entries at the other pivots as they were: the multiplier of
        row p is the vector's own entry at p, and only the pivots present in
        the vector are visited, in increasing order.  A vector of one nonzero
        entry c is looked up: it is its own remainder when c is no pivot, and
        has remainder 0 when row c is the bare pivot."""
        ctx = self.ctx
        row_at = self._row_at
        if len(vec) == 1:
            (c, a), = vec.items()
            if a == ctx[3]:
                return {}
            row = row_at.get(c)
            if row is None:
                return {c: a}
            if len(row) == 1:
                return {}
        elif not vec:
            return {}
        vec = _clean(ctx, vec.items())
        for piv in sorted(p for p in vec if p in row_at):
            _axpy(ctx, vec, row_at[piv], K.s_neg(vec[piv]))
        return vec

    def add(self, vec):
        """Insert a row; returns True if the rank grew."""
        rem = self.reduce(vec)
        if not rem:
            return False
        ctx = self.ctx
        piv = min(rem)
        # rem is a fresh vector, kept as it is when its pivot entry is 1
        row = rem if rem[piv] == ctx[4] else _scale(ctx, rem, K.s_inv(ctx, rem[piv]))
        row_at, rows_with = self._row_at, self._rows_with
        # clear the new pivot column from the rows that hold it; a rewritten
        # row changes only at the columns of the new row
        for p in rows_with.pop(piv, ()):
            old = row_at[p]
            new = row_at[p] = _axpy(ctx, dict(old), row, K.s_neg(old[piv]))
            for c in row:
                if c in new:
                    if c not in old:
                        rows_with.setdefault(c, set()).add(p)
                elif c in old and c != piv:
                    rows_with[c].discard(p)
        for c in row:
            if c != piv:
                rows_with.setdefault(c, set()).add(piv)
        insort(self.pivots, piv)
        row_at[piv] = row
        return True

    @property
    def rank(self):
        return len(self.pivots)

    def contains(self, vec):
        return not self.reduce(vec)

    def nullspace(self, ncols=None):
        """Sparse basis of the solution set of (rows) x = 0 in the first ncols
        columns (all by default), one vector per free column in increasing
        order: 1 at its own free column, 0 at the other free columns."""
        ncols = self.ncols if ncols is None else ncols
        one = K.s_one(self.ctx)
        row_at = self._row_at
        basis = []
        for free in range(ncols):
            if free in row_at:
                continue
            vec = {free: one}
            for piv in sorted(self._rows_with.get(free, ())):
                vec[piv] = K.s_neg(row_at[piv][free])
            basis.append(vec)
        return basis


# ---------------------------------------------------------------------------
# public Matrix
# ---------------------------------------------------------------------------


class LinearSolution:
    """Exact solution set of A x = b: one particular solution + null basis."""

    def __init__(self, particular, null_basis):
        self.particular = particular
        self.null_basis = null_basis


class Matrix:
    """Immutable sparse matrix over a cyclotomic field.

    ``srows[i]`` is row i as a dict {col: raw scalar} that stores no zero.
    Scalars are canonical, so two matrices of one shape at one conductor are
    equal exactly when their row dicts are.  Rows may be shared between
    matrices and are never mutated.
    """

    __slots__ = ("rows", "cols", "N", "ctx", "srows")
    __hash__ = None

    def __init__(self, N, data):
        """From dense rows of raw scalars."""
        data = list(data)
        cols = len(data[0]) if data else 0
        if any(len(r) != cols for r in data):
            raise ShapeError("ragged matrix rows")
        self.N = N
        self.rows = len(data)
        self.cols = cols
        self.ctx = K.make_ctx(N)
        self.srows = tuple(_clean(self.ctx, enumerate(r)) for r in data)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_sparse(cls, N, cols, srows):
        """From sparse rows that hold no zero; the row dicts are taken, not copied."""
        self = cls.__new__(cls)
        self.N = N
        self.ctx = K.make_ctx(N)
        self.srows = tuple(srows)
        self.rows = len(self.srows)
        self.cols = cols
        return self

    @classmethod
    def from_rows(cls, entries):
        vals = [[Cyclotomic.promote(x) for x in row] for row in entries]
        N = 1
        for row in vals:
            for x in row:
                N = lcm(N, x.N)
        return cls(N, [[x.lift(N).data for x in row] for row in vals])

    @classmethod
    def identity(cls, n, N=1):
        one = K.s_one(K.make_ctx(N))
        return cls.from_sparse(N, n, [{i: one} for i in range(n)])

    @classmethod
    def zeros(cls, r, c, N=1):
        return cls.from_sparse(N, c, [{} for _ in range(r)])

    @classmethod
    def column(cls, entries):
        return cls.from_rows([[x] for x in entries])

    # -- access ------------------------------------------------------------

    def entry(self, i, j):
        if not 0 <= i < self.rows:
            raise IndexError("row %d of a %dx%d matrix" % (i, self.rows, self.cols))
        if not 0 <= j < self.cols:
            raise IndexError("column %d of a %dx%d matrix" % (j, self.rows, self.cols))
        return Cyclotomic(self.N, self.srows[i].get(j) or K.s_zero(self.ctx))

    def raw(self):
        """Dense rows of raw scalars."""
        return [_dense(self.ctx, row, self.cols) for row in self.srows]

    def col_raw(self, j):
        z = K.s_zero(self.ctx)
        return [row.get(j, z) for row in self.srows]

    def col(self, j):
        """Column j as a sparse vector."""
        return {i: row[j] for i, row in enumerate(self.srows) if j in row}

    def key(self):
        """A hashable value: equal matrices at one conductor have equal keys,
        whatever order their rows were filled in."""
        return (self.cols,) + tuple(tuple(sorted(row.items())) for row in self.srows)

    def lift(self, M):
        if M == self.N:
            return self
        N = self.N
        return Matrix.from_sparse(
            M, self.cols, [{j: K.s_lift(x, N, M) for j, x in row.items()} for row in self.srows]
        )

    def _pair(self, other):
        if not isinstance(other, Matrix):
            raise TypeError("expected a Matrix")
        M = lcm(self.N, other.N)
        return self.lift(M), other.lift(M)

    # -- algebra -----------------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Cyclotomic)):
            return self.scale(other)
        if isinstance(other, IdKron):
            return NotImplemented
        a, b = self._pair(other)
        if a.cols != b.rows:
            raise ShapeError("cannot multiply %dx%d by %dx%d" % (a.rows, a.cols, b.rows, b.cols))
        return Matrix.from_sparse(a.N, b.cols, mat_mul_raw(a.srows, b.srows, a.ctx))

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, Cyclotomic)):
            return self.scale(other)
        return NotImplemented

    def scale(self, c):
        c = Cyclotomic.promote(c)
        M = lcm(self.N, c.N)
        a = self.lift(M)
        cd = c.lift(M).data
        ctx = a.ctx
        return Matrix.from_sparse(M, a.cols, [_scale(ctx, row, cd) for row in a.srows])

    def __add__(self, other):
        a, b = self._pair(other)
        if (a.rows, a.cols) != (b.rows, b.cols):
            raise ShapeError("matrix addition shape mismatch")
        ctx = a.ctx
        one = K.s_one(ctx)
        return Matrix.from_sparse(
            a.N, a.cols, [_axpy(ctx, dict(ra), rb, one) for ra, rb in zip(a.srows, b.srows)]
        )

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return Matrix.from_sparse(
            self.N, self.cols, [{j: K.s_neg(x) for j, x in row.items()} for row in self.srows]
        )

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        a, b = self._pair(other)
        return (a.rows, a.cols) == (b.rows, b.cols) and a.srows == b.srows

    def transpose(self):
        out = [{} for _ in range(self.cols)]
        for i, row in enumerate(self.srows):
            for j, x in row.items():
                out[j][i] = x
        return Matrix.from_sparse(self.N, self.rows, out)

    def kron(self, other):
        """Kronecker product with row-major pair indexing (iA*rowsB + iB)."""
        a, b = self._pair(other)
        ctx = a.ctx
        cb = b.cols
        out = []
        for ra in a.srows:
            for rb in b.srows:
                out.append({
                    ja * cb + jb: K.s_mul(ctx, x, y) for ja, x in ra.items() for jb, y in rb.items()
                })
        return Matrix.from_sparse(a.N, a.cols * cb, out)

    def is_zero(self):
        return not any(self.srows)

    def is_identity(self):
        if self.rows != self.cols:
            return False
        one = K.s_one(self.ctx)
        return all(row == {i: one} for i, row in enumerate(self.srows))

    def is_scalar_multiple_of_identity(self):
        """The scalar c with self == c*I, or None."""
        if self.rows != self.cols or self.rows == 0:
            return None
        c = self.srows[0].get(0)
        if any(row != ({} if c is None else {i: c}) for i, row in enumerate(self.srows)):
            return None
        return Cyclotomic(self.N, c or K.s_zero(self.ctx))

    # -- elimination -------------------------------------------------------

    def rank(self):
        return rref_raw(self.srows, self.cols, self.ctx).rank

    def inverse(self):
        """Exact inverse, or None if singular: the RREF of [A | I] is
        [I | A^-1] exactly when its pivots are the columns of A."""
        if self.rows != self.cols:
            return None
        n = self.rows
        one = K.s_one(self.ctx)
        aug = ({**row, n + i: one} for i, row in enumerate(self.srows))
        space = rref_raw(aug, 2 * n, self.ctx)
        if space.pivots != list(range(n)):
            return None
        return Matrix.from_sparse(
            self.N, n, [{j - n: x for j, x in row.items() if j >= n} for row in space.rows]
        )

    def solve(self, rhs):
        """Solve self * x = rhs exactly.

        Returns a LinearSolution (particular solution with free variables set
        to zero, plus a null-space basis of columns); raises
        InconsistentSystemError when no solution exists.
        """
        a, b = self._pair(rhs)
        if b.rows != a.rows:
            raise ShapeError("solve: rhs has %d rows, expected %d" % (b.rows, a.rows))
        n = a.cols
        aug = (
            {**ra, **{n + j: x for j, x in rb.items()}} for ra, rb in zip(a.srows, b.srows)
        )
        space = rref_raw(aug, n + b.cols, a.ctx)
        # a pivot in the rhs block is a row 0 = nonzero
        if space.pivots and space.pivots[-1] >= n:
            raise InconsistentSystemError("linear system has no solution")
        part = [{} for _ in range(n)]
        for p, row in zip(space.pivots, space.rows):
            part[p] = {j - n: x for j, x in row.items() if j >= n}
        null = [_column(a.N, vec, n) for vec in space.nullspace(n)]
        return LinearSolution(Matrix.from_sparse(a.N, b.cols, part), null)

    def __repr__(self):
        body = "; ".join(
            ", ".join(format_scalar(self.entry(i, j)) for j in range(self.cols))
            for i in range(self.rows)
        )
        return "Matrix(%dx%d over Q(z_%d): %s)" % (self.rows, self.cols, self.N, body)


class IdKron:
    """A (x) I_m or I_m (x) A, applied in products without being formed.

    ``kron_id(A, m)`` and ``id_kron(m, A)`` build one.  As I_p (x) A (x) I_q
    it has p = 1 or q = 1, and a Matrix A counts as I_1 (x) A (x) I_1.  A
    product of two such factors is one loop over the entries of their A's
    (see ``_kron_product``): each entry adds the same products of entries as
    the product of the formed matrices, less the identities' zeros, so the
    result is the same exact matrix.
    """

    __slots__ = ("A", "p", "q", "N", "rows", "cols")

    def __init__(self, A, p, q):
        self.A = A
        self.p = p
        self.q = q
        self.N = A.N
        self.rows = p * A.rows * q
        self.cols = p * A.cols * q

    def __mul__(self, other):
        return _kron_product(self, other)

    def __rmul__(self, other):
        return _kron_product(other, self)


def kron_id(A, m):
    """A (x) I_m, not formed (see ``IdKron``)."""
    return IdKron(A, 1, m)


def id_kron(m, A):
    """I_m (x) A, not formed (see ``IdKron``)."""
    return IdKron(A, m, 1)


def _kron_product(P, Q):
    """P*Q for Matrix or IdKron factors, one of them an IdKron, in one loop
    over the entries of one factor, k = cols(A)/p or rows(A)/p:

    - (A (x) I_m)(I_p (x) B): x = A[i, v*k + u] adds x*B[u*m + w, c] at
      row i*m + w, column v*cols(B) + c;
    - (I_p (x) B)(A (x) I_m): y = B[j, u*m + w] adds A[v*k + u, c]*y at
      row v*rows(B) + j, column c*m + w.

    The nonempty rows u*m + w of B (v*k + u of A) of each slice u are listed
    once, and only they are paired.  A factor 1 skips ``K.s_mul``, for
    speed."""
    P, Q = (IdKron(X, 1, 1) if isinstance(X, Matrix) else X for X in (P, Q))
    if not isinstance(P, IdKron) or not isinstance(Q, IdKron):
        raise TypeError("expected a Matrix")
    if P.cols != Q.rows:
        raise ShapeError("cannot multiply %dx%d by %dx%d" % (P.rows, P.cols, Q.rows, Q.cols))
    N = lcm(P.N, Q.N)
    if P.p == Q.q == 1:
        A, m, p, B = P.A.lift(N), P.q, Q.p, Q.A.lift(N)
        k, rest = divmod(A.cols, p)
    elif P.q == Q.p == 1:
        B, p, A, m = P.A.lift(N), P.p, Q.A.lift(N), Q.q
        k, rest = divmod(A.rows, p)
    else:
        raise TypeError("only (A x I)(I x B) and (I x B)(A x I) are applied unformed")
    if rest:
        raise ShapeError("the identity factors of a %dx%d by %dx%d product do not align"
                         % (P.rows, P.cols, Q.rows, Q.cols))
    ctx = K.make_ctx(N)
    one = ctx[4]
    out = [{} for _ in range(P.rows)]
    if P.p == Q.q == 1:
        cb, rows = B.cols, B.srows
        slices = [[(w, r.items()) for w, r in enumerate(rows[u * m:(u + 1) * m]) if r]
                  for u in range(k)]
        for i, row in enumerate(A.srows):
            base = i * m
            for c, x in row.items():
                v, u = divmod(c, k)
                col = v * cb
                for w, brow in slices[u]:
                    acc = out[base + w]
                    for l, y in brow:
                        _add(ctx, acc, col + l,
                             y if x == one else x if y == one else K.s_mul(ctx, x, y))
    else:
        rb, rows = B.rows, A.srows
        slices = [[(v * rb, rows[v * k + u].items()) for v in range(p) if rows[v * k + u]]
                  for u in range(k)]
        for j, row in enumerate(B.srows):
            for c, y in row.items():
                u, w = divmod(c, m)
                for base, arow in slices[u]:
                    acc = out[base + j]
                    for l, x in arow:
                        _add(ctx, acc, l * m + w,
                             y if x == one else x if y == one else K.s_mul(ctx, x, y))
    return Matrix.from_sparse(N, Q.cols, out)
