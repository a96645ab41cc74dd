"""The scalar kernel: ring operations in Q(zeta_N) and the axiom scans.

Scalars are elements of the cyclotomic field Q(zeta_N), stored in canonical
form as a tuple ``(den, c0, ..., c_{phi-1})`` of Python ints: the value is
``(c0 + c1*z + ... ) / den`` with ``z = zeta_N``, reduced modulo the N-th
cyclotomic polynomial, ``den > 0`` and ``gcd(den, c0, ..., c_{phi-1}) == 1``.
Equality of canonical scalars is tuple equality.

A context is the tuple ``(N, phi, red, zero, one)`` where ``red[t]`` holds the
integer coefficients of ``x**(phi+t)`` reduced modulo the cyclotomic
polynomial, and ``zero`` and ``one`` are the canonical scalars 0 and 1.

Everything here is allocation-heavy but exact.  The binary ring operations
are memoized on their operand values (``_remember``): on the benchmark
workloads about 98% of the products one CLI call makes repeat an operand
pair it has already seen.
"""

from math import gcd

KERNEL_NAME = "pure"

# Entries a memo holds before it is emptied.  The largest working set of one
# CLI call measured is 4,124 distinct products (``verify builtin:uqsl2?l=5``);
# the cap keeps a stream of distinct operands, such as a dense matrix inverse,
# from growing a memo without bound.
_MEMO_CAP = 8192


def _remember(memo, key, value):
    """Store ``value`` in a memo of scalar results keyed on operand values,
    first emptying the memo if it holds ``_MEMO_CAP`` entries.  Canonical
    scalars are tuples, so equal values are equal keys, and the stored value
    is the tuple the operation would build again."""
    if len(memo) >= _MEMO_CAP:
        memo.clear()
    memo[key] = value
    return value


def _norm(den, coeffs):
    g = 0
    for c in coeffs:
        if c:
            g = gcd(g, c)
    if g == 0:
        return (1,) + (0,) * len(coeffs)
    g = gcd(g, den)
    if den < 0:
        g = -g
    if g != 1:
        den //= g
        return (den,) + tuple(c // g for c in coeffs)
    return (den,) + tuple(coeffs)


_add_memo = {}
_sub_memo = {}


def s_add(ctx, a, b):
    # the sum reads no context, so the key needs no conductor
    key = (a, b)
    got = _add_memo.get(key)
    if got is None:
        got = _remember(_add_memo, key, _add(a, b))
    return got


def s_sub(ctx, a, b):
    key = (a, b)
    got = _sub_memo.get(key)
    if got is None:
        got = _remember(_sub_memo, key, _sub(a, b))
    return got


def _add(a, b):
    da = a[0]
    db = b[0]
    if da == db:
        return _norm(da, [a[i] + b[i] for i in range(1, len(a))])
    return _norm(da * db, [a[i] * db + b[i] * da for i in range(1, len(a))])


def _sub(a, b):
    da = a[0]
    db = b[0]
    if da == db:
        return _norm(da, [a[i] - b[i] for i in range(1, len(a))])
    return _norm(da * db, [a[i] * db - b[i] * da for i in range(1, len(a))])


def s_neg(a):
    return (a[0],) + tuple(-c for c in a[1:])


_mul_memo = {}


def s_mul(ctx, a, b):
    # conductors of equal phi (3 and 4; 5, 8 and 12) share tuple shapes that
    # denote different numbers, so the key carries the conductor
    key = (ctx[0], a, b)
    got = _mul_memo.get(key)
    if got is None:
        got = _remember(_mul_memo, key, _mul(ctx, a, b))
    return got


def _mul(ctx, a, b):
    phi = ctx[1]
    if phi == 1:
        return _norm(a[0] * b[0], [a[1] * b[1]])
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
    return _norm(a[0] * b[0], raw[:phi])


def s_is_zero(a):
    for c in a[1:]:
        if c:
            return False
    return True


def assoc_first_defect(n, mult, ctx, mids=None):
    """First triple (a,b,c) with (ea*eb)*ec != ea*(eb*ec), or None.

    ``mult[a*n+b]`` is a tuple of ``(k, scalar)`` pairs for ea*eb.  Given
    ``mids``, the middle index b runs over ``mids`` only.
    """
    for a in range(n):
        an = a * n
        for b in range(n) if mids is None else mids:
            rab = mult[an + b]
            bn = b * n
            for c in range(n):
                acc = {}
                for k, s in rab:
                    for m, t in mult[k * n + c]:
                        st = s_mul(ctx, s, t)
                        prev = acc.get(m)
                        acc[m] = st if prev is None else s_add(ctx, prev, st)
                for m, t in mult[bn + c]:
                    for p, u in mult[an + m]:
                        tu = s_mul(ctx, t, u)
                        prev = acc.get(p)
                        acc[p] = s_neg(tu) if prev is None else s_sub(ctx, prev, tu)
                for v in acc.values():
                    if not s_is_zero(v):
                        return (a, b, c)
    return None


def bialg_first_defect(n, mult, comult, ctx, lefts=None):
    """First pair (a,b) with Delta(ea*eb) != Delta(ea)*Delta(eb), or None.

    ``comult[i]`` is a tuple of ``(j*n+k, scalar)`` pairs.  Given ``lefts``,
    the left index a runs over ``lefts`` only.
    """
    for a in range(n) if lefts is None else lefts:
        da = comult[a]
        an = a * n
        for b in range(n):
            db = comult[b]
            acc = {}
            for x1, s1 in da:
                j1 = x1 // n
                k1 = x1 - j1 * n
                for x2, s2 in db:
                    j2 = x2 // n
                    k2 = x2 - j2 * n
                    s12 = s_mul(ctx, s1, s2)
                    r2 = mult[k1 * n + k2]
                    for p, u in mult[j1 * n + j2]:
                        su = s_mul(ctx, s12, u)
                        pn = p * n
                        for q, v in r2:
                            suv = s_mul(ctx, su, v)
                            key = pn + q
                            prev = acc.get(key)
                            acc[key] = suv if prev is None else s_add(ctx, prev, suv)
            for k3, s3 in mult[an + b]:
                for x, t in comult[k3]:
                    st = s_mul(ctx, s3, t)
                    prev = acc.get(x)
                    acc[x] = s_neg(st) if prev is None else s_sub(ctx, prev, st)
            for v in acc.values():
                if not s_is_zero(v):
                    return (a, b)
    return None


def coassoc_first_defect(n, comult, ctx):
    """First index i with (Delta x id)Delta(ei) != (id x Delta)Delta(ei)."""
    nn = n * n
    for i in range(n):
        acc = {}
        for x, s in comult[i]:
            j = x // n
            k = x - j * n
            for y, t in comult[j]:
                st = s_mul(ctx, s, t)
                key = y * n + k
                prev = acc.get(key)
                acc[key] = st if prev is None else s_add(ctx, prev, st)
            kn = j * nn
            for y, t in comult[k]:
                st = s_mul(ctx, s, t)
                key = kn + y
                prev = acc.get(key)
                acc[key] = s_neg(st) if prev is None else s_sub(ctx, prev, st)
        for v in acc.values():
            if not s_is_zero(v):
                return i
    return None
