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

The axiom scans add up the two sides of an axiom as separate sparse sums and
compare them: canonical scalars are equal exactly when their tuples are.  A
sum that cancels keeps its key with the canonical zero, so sums whose dicts
differ are compared again key by key (``_differ``).  Products with the
canonical one are not computed.
"""

from math import gcd

KERNEL_NAME = "pure"

# Entries a memo holds before it is emptied.  The largest working set of one
# axiom scan measured is 6,322 distinct products: the S(ab) = S(b)S(a) scan
# of ``verify`` on the u_q(sl2) l = 7 bundle, whose associativity scan has
# 3,342 and Delta-multiplicativity scan 1,591 (the antipode scan on its
# generators has 5).  The cap keeps a stream of distinct operands, such as a
# dense matrix inverse or a full antipode scan (36,686 at l = 7), from
# growing a memo without bound.
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
    da = a[0]
    db = b[0]
    if da == db:
        return _norm(da, [a[i] + b[i] for i in range(1, len(a))])
    return _norm(da * db, [a[i] * db + b[i] * da for i in range(1, len(a))])


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
    return not any(a[1:])


def _sum_into(ctx, acc, terms, c):
    """acc += c*terms in place, keeping a key whose sum is zero; a product
    with the canonical one is not computed."""
    one = ctx[4]
    for m, t in terms:
        if c != one:
            t = c if t == one else s_mul(ctx, c, t)
        prev = acc.get(m)
        acc[m] = t if prev is None else s_add(ctx, prev, t)


def _differ(lhs, rhs, zero):
    """Whether two sparse sums of canonical scalars differ, an absent key
    reading as zero."""
    return any(lhs.get(k, zero) != rhs.get(k, zero) for k in lhs.keys() | rhs.keys())


def assoc_first_defect(n, mult, ctx, mids=None):
    """First triple (a,b,c) with (ea*eb)*ec != ea*(eb*ec), or None.

    ``mult[a*n+b]`` is a tuple of ``(k, scalar)`` pairs for ea*eb.  Given
    ``mids``, the middle index b runs over ``mids`` only.

    Where ea*eb = s*ek and eb*ec = t*em each have one term, the sides are
    (s*ek)*ec and t*(ea*em): when rows (k,c) and (a,m) are both empty the
    triple holds, and when each has one term, at one index, the two products
    are compared directly.  Where ea*eb and eb*ec are both zero, so are the
    two sides.  Every other triple adds up both sides.
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
                if len(rbc) == 1:
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
                elif not rbc and not rab:
                    continue
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
