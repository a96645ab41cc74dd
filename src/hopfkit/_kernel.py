"""The scalar kernel: ring operations in Q(zeta_N), conversions and the
axiom scans.

Scalars are elements of the cyclotomic field Q(zeta_N).  The canonical form
of a value is a tuple ``(den, c0, ..., c_{phi-1})`` of Python ints: the value
is ``(c0 + c1*z + ... ) / den`` with ``z = zeta_N``, reduced modulo the N-th
cyclotomic polynomial, ``den > 0`` and ``gcd(den, c0, ..., c_{phi-1}) == 1``.
A raw scalar, the form every table, sparse vector and Matrix holds, is that
tuple interned (``_intern``): a positive int that names it in one
process-wide table, so that a memo key, a zero or one test and the
comparison of two sums work on small ints.  Id 0 names no value, so every
raw scalar is true.  The table holds at most ``_TABLE_CAP`` values; once it
is full a new value stays its tuple, and since the table never shrinks it
never gets an id later.  Either way each value has exactly one raw form, so
equality of raw scalars is equality of values.  Only this module builds or
reads that form: the rest of the package reads the coefficients through
``s_parts``.

A context is the tuple ``(N, phi, red, zero, one)`` where ``red[t]`` holds the
integer coefficients of ``x**(phi+t)`` reduced modulo the cyclotomic
polynomial, and ``zero`` and ``one`` are the raw scalars 0 and 1.

The arithmetic works on the canonical tuples and is exact.  The ring
operations are memoized on their raw operands (``_remember``): on the
benchmark workloads about 98% of the products one CLI call makes repeat an
operand pair it has already seen, so most calls are a lookup whose key holds
two ids.  A miss reads the operands' tuples, computes, and interns the
result.  ``s_inv`` inverts once per distinct operand, memoized the same way.
Cyclotomic polynomials, contexts, powers of zeta and lift tables are built
once per conductor.

The axiom scans add up the two sides of an axiom as separate sparse sums and
compare them: raw scalars are equal exactly when their values are.  A sum
that cancels keeps its key with the raw zero, so sums whose dicts differ are
compared again key by key (``_differ``).

No product with the canonical one is computed, and the kernel alone keeps
that rule: on a memo miss ``s_mul`` stores the other factor (``_times``),
and ``s_inv`` forms its products the same way, so a caller multiplies
plainly.  The scans here and the sparse helpers of ``exact_math`` still skip
a factor one before calling ``s_mul``, for speed only: on their tens of
thousands of products with one per benchmark pass, that saves the call, the
key tuple and the memo lookup of every hit.
"""

import sys
from fractions import Fraction
from functools import cache
from math import gcd

# the benchmark harness names the kernel and times this module's s_mul and
# s_add by these
KERNEL_NAME = "pure"
IMPLEMENTATIONS = {"pure": sys.modules[__name__]}

# Entries a memo holds before it is emptied.  The largest working set of one
# axiom scan measured is 6,322 distinct products: the S(ab) = S(b)S(a) scan
# of ``verify`` on the u_q(sl2) l = 7 bundle, whose associativity scan has
# 3,342 and Delta-multiplicativity scan 1,591 (the antipode scan on its
# generators has 5).  The cap keeps a stream of distinct operands, such as a
# dense matrix inverse or a full antipode scan (36,686 at l = 7), from
# growing a memo without bound.
_MEMO_CAP = 8192

# Values the table of interned scalars holds.  The most distinct values one
# run measured is 992 (``verify builtin:uqsl2?l=7``; a benchmark pass makes
# 19 to 241).  A stream of distinct values, such as a dense matrix inverse,
# fills the table and then goes on as tuples, so it cannot grow memory
# without bound.
_TABLE_CAP = 8192

# _values[i] is the canonical tuple of id i and _ids[t] the id of tuple t;
# slot 0 holds no value
_values = [None]
_ids = {}


def _intern(t):
    """The raw scalar of the canonical tuple t: its id, given one now while
    the table has room; once the table is full, a tuple without an id is its
    own raw scalar."""
    got = _ids.get(t)
    if got is None:
        if len(_values) > _TABLE_CAP:
            return t
        got = _ids[t] = len(_values)
        _values.append(t)
    return got


def s_parts(a):
    """The canonical tuple (den, c0, ..., c_{phi-1}) of the raw scalar a."""
    return _values[a] if a.__class__ is int else a


def _remember(memo, key, value):
    """Store ``value`` in a memo of scalar results keyed on raw operands,
    first emptying the memo if it holds ``_MEMO_CAP`` entries.  Equal values
    are equal raw scalars, so equal operands are equal keys, and the stored
    value is the raw scalar the operation would give again."""
    if len(memo) >= _MEMO_CAP:
        memo.clear()
    memo[key] = value
    return value


def s_from_ints(den, coeffs):
    """Raw scalar (c0 + c1*z + ...) / den from phi Python ints and an int
    den > 0."""
    g = 0
    for c in coeffs:
        if c:
            g = gcd(g, c)
    if g == 0:
        return _intern((1,) + (0,) * len(coeffs))
    g = gcd(g, den)
    if g != 1:
        den //= g
        return _intern((den,) + tuple(c // g for c in coeffs))
    return _intern((den,) + tuple(coeffs))


_add_memo = {}


def s_add(ctx, a, b):
    # the sum reads no context, so the key needs no conductor
    key = (a, b)
    got = _add_memo.get(key)
    if got is None:
        got = _remember(_add_memo, key, _add(a, b))
    return got


def s_sub(ctx, a, b):
    return s_add(ctx, a, s_neg(b))


def _add(a, b):
    a = s_parts(a)
    b = s_parts(b)
    da = a[0]
    db = b[0]
    if da == db:
        return s_from_ints(da, [a[i] + b[i] for i in range(1, len(a))])
    return s_from_ints(da * db, [a[i] * db + b[i] * da for i in range(1, len(a))])


_neg_memo = {}


def s_neg(a):
    # negation reads no context, and -a is canonical when a is
    got = _neg_memo.get(a)
    if got is None:
        t = s_parts(a)
        got = _remember(_neg_memo, a, _intern((t[0],) + tuple(-c for c in t[1:])))
    return got


_mul_memo = {}


def s_mul(ctx, a, b):
    # conductors of equal phi (3 and 4; 5, 8 and 12) share tuples, hence
    # ids, that denote different numbers, so the key carries the conductor
    key = (ctx[0], a, b)
    got = _mul_memo.get(key)
    if got is None:
        got = _remember(_mul_memo, key, _times(ctx, a, b))
    return got


def _times(ctx, a, b):
    """a*b, where a product with the canonical one is the other factor and
    is not computed: the one place that rule is kept for every caller."""
    one = ctx[4]
    return b if a == one else a if b == one else _mul(ctx, a, b)


def _mul(ctx, a, b):
    a = s_parts(a)
    b = s_parts(b)
    phi = ctx[1]
    if phi == 1:
        return s_from_ints(a[0] * b[0], [a[1] * b[1]])
    red = ctx[2]
    raw = [0] * (2 * phi - 1)
    for i in range(phi):
        ai = a[i + 1]
        if ai:
            for j in range(phi):
                bj = b[j + 1]
                if bj:
                    raw[i + j] += ai * bj
    for deg in range(2 * phi - 2, phi - 1, -1):
        c = raw[deg]
        if c:
            row = red[deg - phi]
            for j in range(phi):
                rj = row[j]
                if rj:
                    raw[j] += c * rj
    return s_from_ints(a[0] * b[0], raw[:phi])


def s_is_zero(a):
    return not any(s_parts(a)[1:])


def _poly_exact_div(a, b):
    # b monic; division of integer polynomials with zero remainder.
    a = list(a)
    db = len(b) - 1
    out = [0] * (len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i]
        if c:
            out[i - db] = c
            for j in range(db + 1):
                a[i - db + j] -= c * b[j]
    assert all(c == 0 for c in a[:db]), "non-exact polynomial division"
    return out


@cache
def cyclotomic_poly(N):
    """Integer coefficients (low degree first) of the N-th cyclotomic polynomial."""
    num = [-1] + [0] * (N - 1) + [1]
    for d in range(1, N):
        if N % d == 0:
            num = _poly_exact_div(num, cyclotomic_poly(d))
    return num


def _times_zeta(coeffs, base):
    """The integer coefficients of zeta * (sum of coeffs[j] zeta^j), reduced
    modulo Phi_N, where base holds those of zeta^phi."""
    top = coeffs[-1]
    out = [0]
    out.extend(coeffs[:-1])
    if top:
        for j, b in enumerate(base):
            out[j] += top * b
    return out


@cache
def make_ctx(N):
    """Context tuple (N, phi, red, zero, one) for arithmetic in Q(zeta_N),
    one per conductor.  Raw scalars are equal exactly when their values are,
    so ``s == ctx[3]`` tests for zero and ``s == ctx[4]`` for one."""
    poly = cyclotomic_poly(N)
    phi = len(poly) - 1
    base = tuple(-poly[j] for j in range(phi))
    rows = [base]
    for _ in range(max(0, phi - 2)):
        rows.append(tuple(_times_zeta(rows[-1], base)))
    zero = _intern((1,) + (0,) * phi)
    one = _intern((1, 1) + (0,) * (phi - 1))
    return (N, phi, tuple(rows), zero, one)


def euler_phi(N):
    return make_ctx(N)[1]


def s_zero(ctx):
    return ctx[3]


def s_one(ctx):
    return ctx[4]


def s_from_ratio(ctx, p, q=1):
    if q == 0:
        raise ZeroDivisionError("rational with zero denominator")
    g = gcd(p, q)
    if q < 0:
        g = -g
    return _intern((q // g, p // g) + (0,) * (ctx[1] - 1))


def s_from_fractions(ctx, fracs):
    """Raw scalar from a sequence of phi Fractions."""
    den = 1
    for f in fracs:
        den = den * f.denominator // gcd(den, f.denominator)
    return s_from_ints(den, [int(f * den) for f in fracs])


def s_to_fractions(a):
    a = s_parts(a)
    den = a[0]
    return tuple(Fraction(c, den) for c in a[1:])


def s_rational_part(a):
    """The Fraction value if the scalar is rational, else None."""
    a = s_parts(a)
    for c in a[2:]:
        if c:
            return None
    return Fraction(a[1], a[0])


# keyed by (N, k), not by the arguments: a functools.cache on ctx would hash
# its O(phi^2) reduction rows on every call
_power_cache = {}


def zeta_power(ctx, k):
    """Raw scalar zeta_N**k (iterative multiply-by-x reduction)."""
    N, phi, red = ctx[:3]
    k %= N
    key = (N, k)
    got = _power_cache.get(key)
    if got is not None:
        return got
    cur = [1] + [0] * (phi - 1)
    for _ in range(k):
        cur = _times_zeta(cur, red[0])
    out = s_from_ints(1, cur)
    _power_cache[key] = out
    return out


@cache
def lift_table(N, M):
    """Rows: coefficients of zeta_M**(j*M/N) for j < phi(N), reduced mod Phi_M."""
    assert M % N == 0
    ctxM = make_ctx(M)
    phiM = ctxM[1]
    phiN = euler_phi(N)
    step = M // N
    base = ctxM[2][0]
    rows = []
    cur = [0] * phiM
    cur[0] = 1
    for j in range(phiN):
        rows.append(tuple(cur))
        if j == phiN - 1:
            break
        for _ in range(step):
            cur = _times_zeta(cur, base)
    return tuple(rows)


def s_lift(a, N, M):
    """Re-express a conductor-N scalar at conductor M (N divides M)."""
    if N == M:
        return a
    table = lift_table(N, M)
    phiM = euler_phi(M)
    a = s_parts(a)
    out = [0] * phiM
    for i, c in enumerate(a[1:]):
        if c:
            row = table[i]
            for j in range(phiM):
                if row[j]:
                    out[j] += c * row[j]
    return s_from_ints(a[0], out)


_inv_memo = {}


def s_inv(ctx, a):
    """Multiplicative inverse by the norm (``_solve_inv``), made once per
    (conductor, scalar) while the memo holds it."""
    if a == ctx[3]:
        raise ZeroDivisionError("inverse of zero cyclotomic scalar")
    key = (ctx[0], a)
    got = _inv_memo.get(key)
    if got is None:
        got = _remember(_inv_memo, key, _solve_inv(ctx, a))
    return got


def _solve_inv(ctx, a):
    """a^-1 = c / Norm(a), c the product of the conjugates sigma_k(a),
    sigma_k(zeta) = zeta^k for 1 < k < N prime to N; Norm(a) = a c is
    rational.  Each product is made once, so none goes through a memo."""
    N, phi = ctx[0], ctx[1]
    t = s_parts(a)
    if phi == 1:
        return s_from_ratio(ctx, t[0], t[1])
    c = ctx[4]
    for k in range(2, N):
        if gcd(k, N) == 1:
            conj = [0] * phi
            for j, cj in enumerate(t[1:]):
                if cj:
                    for i, z in enumerate(s_parts(zeta_power(ctx, j * k))[1:]):
                        conj[i] += cj * z
            c = _times(ctx, c, s_from_ints(t[0], conj))
    norm = s_parts(_times(ctx, a, c))
    return _times(ctx, c, s_from_ratio(ctx, norm[0], norm[1]))


def _sum_into(ctx, acc, terms, c):
    """acc += c*terms in place, keeping a key whose sum is zero; a product
    with the canonical one skips the call to ``s_mul``, for speed."""
    one = ctx[4]
    for m, t in terms:
        if c != one:
            t = c if t == one else s_mul(ctx, c, t)
        prev = acc.get(m)
        acc[m] = t if prev is None else s_add(ctx, prev, t)


def _differ(lhs, rhs, zero):
    """Whether two sparse sums of raw scalars differ, an absent key reading
    as zero."""
    return any(lhs.get(k, zero) != rhs.get(k, zero) for k in lhs.keys() | rhs.keys())


def assoc_first_defect(n, mult, ctx, mids=None):
    """First triple (a,b,c) with (ea*eb)*ec != ea*(eb*ec), or None.

    ``mult[a*n+b]`` is a tuple of ``(k, scalar)`` pairs for ea*eb.  Given
    ``mids``, the middle index b runs over ``mids`` only.

    Where ea*eb = s*ek and eb*ec = t*em each have one term, the sides are
    (s*ek)*ec and t*(ea*em): when rows (k,c) and (a,m) are both empty the
    triple holds, and when each has one term, at one index, the two products
    are compared directly.  Where ea*eb is zero, so is the left side, and
    the triple holds when every row (a,m) that eb*ec = sum t*em reads is
    empty (so when eb*ec is zero too); where eb*ec is zero, it holds when
    every row (k,c) that ea*eb = sum s*ek reads is empty.  Every other
    triple adds up both sides.
    """
    zero, one = ctx[3], ctx[4]
    for a in range(n):
        an = a * n
        for b in range(n) if mids is None else mids:
            rab = mult[an + b]
            bn = b * n
            kn = -1  # k1*n when ea*eb = s1*ek1 has one term
            if len(rab) == 1:
                (k1, s1), = rab
                kn = k1 * n
            for c in range(n):
                rbc = mult[bn + c]
                if not rab:
                    for m, _ in rbc:
                        if mult[an + m]:
                            break
                    else:
                        continue
                elif not rbc:
                    for k, _ in rab:
                        if mult[k * n + c]:
                            break
                    else:
                        continue
                elif len(rbc) == 1:
                    if kn >= 0:
                        (m1, t1), = rbc
                        rl = mult[kn + c]
                        rr = mult[an + m1]
                        if not rl:
                            if not rr:
                                continue
                        elif len(rl) == 1 and len(rr) == 1 and rl[0][0] == rr[0][0]:
                            u = rl[0][1]
                            v = rr[0][1]
                            if (u if s1 == one else s1 if u == one else s_mul(ctx, s1, u)) == (
                                    v if t1 == one else t1 if v == one else s_mul(ctx, t1, v)):
                                continue
                            return (a, b, c)
                lhs = {}
                for k, s in rab:
                    for m, t in mult[k * n + c]:
                        st = t if s == one else s if t == one else s_mul(ctx, s, t)
                        prev = lhs.get(m)
                        lhs[m] = st if prev is None else s_add(ctx, prev, st)
                rhs = {}
                for m, t in rbc:
                    for p, u in mult[an + m]:
                        tu = u if t == one else t if u == one else s_mul(ctx, t, u)
                        prev = rhs.get(p)
                        rhs[p] = tu if prev is None else s_add(ctx, prev, tu)
                if lhs != rhs and _differ(lhs, rhs, zero):
                    return (a, b, c)
    return None


def bialg_first_defect(n, mult, comult, ctx, lefts=None):
    """First pair (a,b) with Delta(ea*eb) != Delta(ea)*Delta(eb), or None.

    ``comult[i]`` is a tuple of ``(j*n+k, scalar)`` pairs.  Given ``lefts``,
    the left index a runs over ``lefts`` only.
    """
    zero, one = ctx[3], ctx[4]
    for a in range(n) if lefts is None else lefts:
        da = comult[a]
        an = a * n
        for b in range(n):
            db = comult[b]
            lhs = {}
            for x1, s1 in da:
                j1, k1 = divmod(x1, n)
                j1n = j1 * n
                k1n = k1 * n
                for x2, s2 in db:
                    j2, k2 = divmod(x2, n)
                    # a pair with an empty product adds nothing
                    r1 = mult[j1n + j2]
                    if not r1:
                        continue
                    r2 = mult[k1n + k2]
                    if not r2:
                        continue
                    s12 = s2 if s1 == one else s1 if s2 == one else s_mul(ctx, s1, s2)
                    for p, u in r1:
                        su = u if s12 == one else s12 if u == one else s_mul(ctx, s12, u)
                        pn = p * n
                        for q, v in r2:
                            suv = v if su == one else su if v == one else s_mul(ctx, su, v)
                            key = pn + q
                            prev = lhs.get(key)
                            lhs[key] = suv if prev is None else s_add(ctx, prev, suv)
            rhs = {}
            for k3, s3 in mult[an + b]:
                _sum_into(ctx, rhs, comult[k3], s3)
            if lhs != rhs and _differ(lhs, rhs, zero):
                return (a, b)
    return None


def coassoc_first_defect(n, comult, ctx, indices=None):
    """First index i with (Delta x id)Delta(ei) != (id x Delta)Delta(ei).
    Given ``indices``, i runs over ``indices`` only."""
    nn = n * n
    for i in range(n) if indices is None else indices:
        lhs = {}
        rhs = {}
        for x, s in comult[i]:
            j, k = divmod(x, n)
            _sum_into(ctx, lhs, [(y * n + k, t) for y, t in comult[j]], s)
            _sum_into(ctx, rhs, [(j * nn + y, t) for y, t in comult[k]], s)
        if lhs != rhs and _differ(lhs, rhs, ctx[3]):
            return i
    return None


def antimult_first_defect(n, mult, antipode_cols, ctx, lefts=None):
    """First pair (a,b) with S(ea*eb) != S(eb)*S(ea), or None.  Given
    ``lefts``, the left index a runs over ``lefts`` only."""
    zero, one = ctx[3], ctx[4]
    for a in range(n) if lefts is None else lefts:
        sa = antipode_cols[a]
        an = a * n
        for b in range(n):
            lhs = {}
            for k, s in mult[an + b]:
                _sum_into(ctx, lhs, antipode_cols[k], s)
            rhs = {}
            for p, u in antipode_cols[b]:
                pn = p * n
                for q, v in sa:
                    uv = v if u == one else u if v == one else s_mul(ctx, u, v)
                    _sum_into(ctx, rhs, mult[pn + q], uv)
            if lhs != rhs and _differ(lhs, rhs, zero):
                return (a, b)
    return None


def antipode_first_defects(n, mult, comult, antipode_cols, unit, counit, ctx, indices=None):
    """The first i with S(h1)h2 != eps(h)1 and the first i with
    h1 S(h2) != eps(h)1, for h = ei with Delta(h) = h1 x h2, each None when
    there is none.  ``antipode_cols[j]`` is a tuple of ``(i, scalar)`` pairs
    for S(ej).  Given ``indices``, i runs over ``indices`` only."""
    zero = ctx[3]
    unit = [(m, u) for m, u in enumerate(unit) if u != zero]
    left = right = None
    for i in range(n) if indices is None else indices:
        eps = {}
        if counit[i] != zero:
            _sum_into(ctx, eps, unit, counit[i])
        lhs = {}
        rhs = {}
        for x, s in comult[i]:
            j, k = divmod(x, n)
            for p, u in antipode_cols[j]:
                _sum_into(ctx, lhs, mult[p * n + k], s_mul(ctx, s, u))
            for p, u in antipode_cols[k]:
                _sum_into(ctx, rhs, mult[j * n + p], s_mul(ctx, s, u))
        if left is None and lhs != eps and _differ(lhs, eps, zero):
            left = i
        if right is None and rhs != eps and _differ(rhs, eps, zero):
            right = i
        if left is not None and right is not None:
            break
    return left, right
