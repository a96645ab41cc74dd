"""Exact arithmetic in cyclotomic fields Q(zeta_N) and exact linear algebra.

Scalars are elements of Q(zeta_N) in canonical reduced form, so equality is
coefficient-wise.  Mixed conductors are lifted to the lcm; there is no
automatic conductor minimization.  All values are immutable and all
operations are pure.

Every elimination (rank, inverse, solve, null spaces) runs on one
incrementally maintained sparse reduced row echelon form, ``RowSpace``.  A
row space has exactly one RREF, so all outputs are deterministic.
"""

import re
from fractions import Fraction
from math import lcm

from . import _kernel as K
from .errors import InconsistentSystemError, ShapeError


def _coerce_ratio(value):
    """(p, q) for ints, Fractions and rational strings."""
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
        p, q = _coerce_ratio(value if not isinstance(value, Cyclotomic) else 0)
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

    def is_rational(self):
        return K.s_rational_part(self.data) is not None

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


def scalar_invert(a):
    """Inverse of a nonzero scalar; raises ZeroDivisionError on zero."""
    return Cyclotomic.promote(a).inverse()


def format_scalar(a):
    """Render as "p/q" or a sum of "p/q*z^k" terms (z denotes zeta_N)."""
    a = Cyclotomic.promote(a)
    fracs = a.coeffs()
    terms = []
    for k, f in enumerate(fracs):
        if f == 0:
            continue
        num = str(f.numerator) if f.denominator == 1 else "%d/%d" % (f.numerator, f.denominator)
        terms.append(num if k == 0 else "%s*z^%d" % (num, k))
    if not terms:
        return "0"
    return " + ".join(terms)


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


def parse_scalar(text, N):
    """Inverse of format_scalar for a declared conductor N.  Coefficients are
    integers ``p`` or ratios ``p/q``; any other token raises ValueError."""
    text = text.strip()
    phi = K.euler_phi(N)
    fracs = [Fraction(0)] * phi
    if text in ("0", "+0", "-0"):
        return Cyclotomic.from_coeffs(N, fracs)
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
            coeff = Fraction(_token(_COEFF, coeff_s.strip(), text))
        elif term in ("z",) or term.startswith("z^"):
            coeff = Fraction(1)
            k = 1 if term == "z" else int(_token(_POWER, term[2:], text))
        else:
            coeff = Fraction(_token(_COEFF, term, text))
            k = 0
        if not 0 <= k < phi:
            # allow higher powers of z; fold via multiplication
            extra = root_of_unity(N, k) * Cyclotomic.rational(coeff, N)
            fracs = [f + g for f, g in zip(fracs, extra.coeffs())]
            continue
        fracs[k] += coeff
    return Cyclotomic.from_coeffs(N, fracs)


# ---------------------------------------------------------------------------
# raw helpers (module-internal but shared with the sibling modules)
# ---------------------------------------------------------------------------


def lift_raw(data, N, M):
    return K.s_lift(data, N, M) if N != M else data


def mat_mul_raw(A, B, ctx):
    """Gustavson product of sparse rows (dicts {col: raw} holding no zero):
    row i of A*B is the sum of a*B[k] over the entries (k, a) of A[i]."""
    out = []
    for row in A:
        acc = {}
        for k, a in row.items():
            _axpy(ctx, acc, B[k], a)
        out.append(acc)
    return out


# ---------------------------------------------------------------------------
# sparse vectors
#
# A sparse vector is a dict {index: raw scalar} that stores no zero value;
# indices are ints or tuples.  Only the helpers below build or add into one,
# so only they know this convention.  An argument named ``terms`` may also be
# a sequence of (index, raw) pairs, such as a row of a structure table.
# ---------------------------------------------------------------------------


def _items(terms):
    return terms.items() if isinstance(terms, dict) else terms


def _add(ctx, acc, k, s):
    """acc[k] += s for a nonzero raw s; a key whose sum is zero is dropped."""
    prev = acc.get(k)
    if prev is None:
        acc[k] = s
    else:
        s = K.s_add(ctx, prev, s)
        if K.s_is_zero(s):
            del acc[k]
        else:
            acc[k] = s


def _axpy(ctx, acc, terms, c):
    """acc += c*terms in place for terms holding no zero; returns acc.  A unit
    c adds without products."""
    if K.s_is_zero(c):
        return acc
    if c == K.s_one(ctx):
        for k, s in _items(terms):
            _add(ctx, acc, k, s)
    else:
        for k, s in _items(terms):
            _add(ctx, acc, k, K.s_mul(ctx, c, s))
    return acc


def _scale(ctx, terms, c):
    """c*terms as a new sparse vector."""
    if K.s_is_zero(c):
        return {}
    return {k: K.s_mul(ctx, c, s) for k, s in _items(terms)}


def _clean(terms):
    """The nonzero entries of terms (e.g. ``enumerate(dense)``) as a sparse vector."""
    return {k: s for k, s in _items(terms) if not K.s_is_zero(s)}


def _tensor(ctx, acc, u, v, n):
    """acc += u (x) v in place, the pair (i, j) at index i*n + j; returns acc."""
    for i, a in _items(u):
        base = i * n
        for j, b in _items(v):
            _add(ctx, acc, base + j, K.s_mul(ctx, a, b))
    return acc


def _mat_vec(M, vec):
    """M * vec for a Matrix M and a sparse vector vec, as a sparse vector."""
    ctx = M.ctx
    out = {}
    for i, row in enumerate(M.srows):
        for j, b in vec.items():
            a = row.get(j)
            if a is not None:
                _add(ctx, out, i, K.s_mul(ctx, a, b))
    return out


def _table_mul(ctx, table, n, u, v):
    """Product of sparse vectors u and v, where table[i*n + j] lists the
    (k, raw) terms of e_i e_j."""
    v = [(j, b) for j, b in v.items() if not K.s_is_zero(b)]
    out = {}
    for i, a in u.items():
        if K.s_is_zero(a):
            continue
        base = i * n
        for j, b in v:
            ab = K.s_mul(ctx, a, b)
            for k, s in table[base + j]:
                _add(ctx, out, k, K.s_mul(ctx, ab, s))
    return out


def rref_raw(rows, ncols, ctx):
    """The reduced row echelon form of sparse (dict) or dense rows of width
    ncols, as a RowSpace.  A row space has exactly one RREF, so the result
    does not depend on the order of the rows."""
    space = RowSpace(ncols, ctx)
    for row in rows:
        space.add(row)
    return space


def nullspace_raw(rows, ncols, ctx):
    """Null-space basis (list of dense raw vectors) of stacked constraint rows."""
    return rref_raw(rows, ncols, ctx).nullspace()


class RowSpace:
    """Incrementally maintained RREF of a set of rows (sparse dict rows)."""

    def __init__(self, ncols, ctx):
        self.ncols = ncols
        self.ctx = ctx
        self.rows = []  # list of dict col->raw, pivot coefficient 1
        self.pivots = []  # sorted pivot columns, parallel to rows

    def reduce(self, vec):
        """Remainder of a sparse (dict) or dense vector modulo the row space."""
        ctx = self.ctx
        vec = _clean(vec if isinstance(vec, dict) else enumerate(vec))
        for piv, row in zip(self.pivots, self.rows):
            a = vec.get(piv)
            if a is not None:
                _axpy(ctx, vec, row, K.s_neg(a))
        return vec

    def add(self, vec):
        """Insert a row; returns True if the rank grew."""
        rem = self.reduce(vec)
        if not rem:
            return False
        ctx = self.ctx
        piv = min(rem)
        row = _scale(ctx, rem, K.s_inv(ctx, rem[piv]))
        # clear the new pivot column from existing rows
        for i, r in enumerate(self.rows):
            a = r.get(piv)
            if a is not None:
                self.rows[i] = _axpy(ctx, dict(r), row, K.s_neg(a))
        at = 0
        while at < len(self.pivots) and self.pivots[at] < piv:
            at += 1
        self.pivots.insert(at, piv)
        self.rows.insert(at, row)
        return True

    @property
    def rank(self):
        return len(self.rows)

    def contains(self, vec):
        return not self.reduce(vec)

    def _null_vectors(self, ncols=None):
        """Sparse basis of the solution set of (rows) x = 0 in the first ncols
        columns (all by default), one vector per free column in increasing
        order: 1 at its own free column, 0 at the other free columns."""
        ncols = self.ncols if ncols is None else ncols
        one = K.s_one(self.ctx)
        pivset = set(self.pivots)
        basis = []
        for free in range(ncols):
            if free in pivset:
                continue
            vec = {free: one}
            for piv, row in zip(self.pivots, self.rows):
                a = row.get(free)
                if a is not None:
                    vec[piv] = K.s_neg(a)
            basis.append(vec)
        return basis

    def nullspace(self):
        """Dense raw basis vectors of the solution set of (rows) x = 0."""
        z = K.s_zero(self.ctx)
        basis = []
        for vec in self._null_vectors():
            dense = [z] * self.ncols
            for j, x in vec.items():
                dense[j] = x
            basis.append(dense)
        return basis


# ---------------------------------------------------------------------------
# public Matrix / SparseTensor
# ---------------------------------------------------------------------------


class LinearSolution:
    """Exact solution set of A x = b: one particular solution + null basis."""

    def __init__(self, particular, null_basis):
        self.particular = particular
        self.null_basis = null_basis

    def __iter__(self):
        yield self.particular
        yield self.null_basis


class Matrix:
    """Immutable sparse matrix over a cyclotomic field.

    ``srows[i]`` is row i as a dict {col: raw scalar} that stores no zero.
    Scalars are canonical, so two matrices of one shape at one conductor are
    equal exactly when their row dicts are.  Rows may be shared between
    matrices and are never mutated.
    """

    __slots__ = ("rows", "cols", "N", "srows")
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
        self.srows = tuple(_clean(enumerate(r)) for r in data)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_sparse(cls, N, cols, srows):
        """From sparse rows that hold no zero; the row dicts are taken, not copied."""
        self = cls.__new__(cls)
        self.N = N
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

    @classmethod
    def lincomb(cls, rows, cols, N, terms):
        """Sum of c*M over the (M, c) pairs of terms, as a rows x cols matrix over Q(zeta_N).

        N must be a multiple of the conductor of every M and every c.  One
        pass over the nonzero entries of each M: zero coefficients are
        skipped and c = 1 adds without multiplying.  Equal to the fold
        zeros + M.scale(c) + ... at conductor N, entry for entry.
        """
        ctx = K.make_ctx(N)
        out = [{} for _ in range(rows)]
        for M, c in terms:
            c = Cyclotomic.promote(c).lift(N).data
            if K.s_is_zero(c):
                continue
            if (M.rows, M.cols) != (rows, cols):
                raise ShapeError(
                    "lincomb term is %dx%d, expected %dx%d" % (M.rows, M.cols, rows, cols)
                )
            if N % M.N:
                raise ValueError("conductor %d does not divide %d" % (M.N, N))
            for orow, mrow in zip(out, M.lift(N).srows):
                _axpy(ctx, orow, mrow, c)
        return cls.from_sparse(N, cols, out)

    # -- access ------------------------------------------------------------

    @property
    def ctx(self):
        return K.make_ctx(self.N)

    def entry(self, i, j):
        if not 0 <= j < self.cols:
            raise IndexError("column %d of a %dx%d matrix" % (j, self.rows, self.cols))
        return Cyclotomic(self.N, self.srows[i].get(j) or K.s_zero(self.ctx))

    def raw(self):
        """Dense rows of raw scalars."""
        z = K.s_zero(self.ctx)
        out = []
        for row in self.srows:
            dense = [z] * self.cols
            for j, x in row.items():
                dense[j] = x
            out.append(dense)
        return out

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
        null = [
            Matrix.from_sparse(a.N, 1, [{0: vec[i]} if i in vec else {} for i in range(n)])
            for vec in space._null_vectors(n)
        ]
        return LinearSolution(Matrix.from_sparse(a.N, b.cols, part), null)

    def __repr__(self):
        body = "; ".join(
            ", ".join(format_scalar(self.entry(i, j)) for j in range(self.cols))
            for i in range(self.rows)
        )
        return "Matrix(%dx%d over Q(z_%d): %s)" % (self.rows, self.cols, self.N, body)


def solve_linear(A, b):
    """Module-level alias for Matrix.solve (particular + null basis)."""
    return A.solve(b)


def kron(A, B):
    """Kronecker product; (A kron B)(v kron w) = Av kron Bw in row-major pairing."""
    return A.kron(B)


class SparseTensor:
    """Sparse exact tensor: shape plus a map multi-index -> Cyclotomic (no zeros)."""

    __slots__ = ("shape", "N", "entries")
    __hash__ = None

    def __init__(self, shape, entries, N=None):
        self.shape = tuple(shape)
        vals = {}
        conductor = N or 1
        for idx, val in entries.items():
            val = Cyclotomic.promote(val)
            if val.is_zero():
                continue
            idx = tuple(idx)
            if len(idx) != len(self.shape) or any(
                not 0 <= i < d for i, d in zip(idx, self.shape)
            ):
                raise ShapeError("tensor index %r outside shape %r" % (idx, self.shape))
            conductor = lcm(conductor, val.N)
            vals[idx] = val
        self.N = conductor
        self.entries = {idx: v.lift(conductor) for idx, v in sorted(vals.items())}

    def get(self, idx):
        v = self.entries.get(tuple(idx))
        return v if v is not None else Cyclotomic.rational(0, self.N)

    def items(self):
        return self.entries.items()

    def nnz(self):
        return len(self.entries)

    def __eq__(self, other):
        if not isinstance(other, SparseTensor):
            return NotImplemented
        if self.shape != other.shape:
            return False
        keys = set(self.entries) | set(other.entries)
        return all(self.get(k) == other.get(k) for k in keys)

    def __repr__(self):
        return "SparseTensor(shape=%r, nnz=%d)" % (self.shape, self.nnz())
