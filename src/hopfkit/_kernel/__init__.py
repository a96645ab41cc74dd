"""The scalar kernel and shared exact-arithmetic helpers.

The hot loops (scalar ring operations and the axiom scans) live in
``_pykernel`` and are re-exported here.  They stay a module of their own:
the scans call ``_pykernel``'s scalar functions directly, so the hopfbench
tracer, which patches the names bound in this package, counts only the
scalar calls made from outside the kernel.  Everything else here is
conversion and table code: cyclotomic polynomials, contexts, powers of zeta
and lift tables are built once per conductor, and ``s_inv`` solves once per
distinct operand, memoized like the binary ring operations
(``_pykernel._remember``).
"""

from fractions import Fraction
from math import gcd

from . import _pykernel
from ._pykernel import (  # noqa: F401
    KERNEL_NAME,
    assoc_first_defect,
    bialg_first_defect,
    coassoc_first_defect,
    s_add,
    s_is_zero,
    s_mul,
    s_neg,
    s_sub,
)

IMPLEMENTATIONS = {"pure": _pykernel}


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


_cyclo_cache = {1: [-1, 1]}


def cyclotomic_poly(N):
    """Integer coefficients (low degree first) of the N-th cyclotomic polynomial."""
    poly = _cyclo_cache.get(N)
    if poly is not None:
        return poly
    num = [-1] + [0] * (N - 1) + [1]
    for d in range(1, N):
        if N % d == 0:
            num = _poly_exact_div(num, cyclotomic_poly(d))
    _cyclo_cache[N] = num
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


_ctx_cache = {}


def make_ctx(N):
    """Context tuple (N, phi, red) for arithmetic in Q(zeta_N)."""
    ctx = _ctx_cache.get(N)
    if ctx is not None:
        return ctx
    poly = cyclotomic_poly(N)
    phi = len(poly) - 1
    base = tuple(-poly[j] for j in range(phi))
    rows = [base]
    for _ in range(max(0, phi - 2)):
        rows.append(tuple(_times_zeta(rows[-1], base)))
    ctx = (N, phi, tuple(rows))
    _ctx_cache[N] = ctx
    return ctx


def euler_phi(N):
    return make_ctx(N)[1]


def s_zero(ctx):
    return (1,) + (0,) * ctx[1]


def s_one(ctx):
    return (1, 1) + (0,) * (ctx[1] - 1)


def s_from_ratio(ctx, p, q=1):
    if q == 0:
        raise ZeroDivisionError("rational with zero denominator")
    g = gcd(p, q)
    if g == 0:
        return s_zero(ctx)
    if q < 0:
        g = -g
    return (q // g, p // g) + (0,) * (ctx[1] - 1)


def s_from_fractions(ctx, fracs):
    """Canonical scalar from a sequence of phi Fractions."""
    den = 1
    for f in fracs:
        den = den * f.denominator // gcd(den, f.denominator)
    coeffs = [int(f * den) for f in fracs]
    return _pykernel._norm(den, coeffs)


def s_to_fractions(a):
    den = a[0]
    return tuple(Fraction(c, den) for c in a[1:])


def s_rational_part(a):
    """The Fraction value if the scalar is rational, else None."""
    for c in a[2:]:
        if c:
            return None
    return Fraction(a[1], a[0])


_power_cache = {}


def zeta_power(ctx, k):
    """Canonical scalar zeta_N**k (iterative multiply-by-x reduction)."""
    N, phi, red = ctx
    k %= N
    key = (N, k)
    got = _power_cache.get(key)
    if got is not None:
        return got
    cur = [1] + [0] * (phi - 1)
    for _ in range(k):
        cur = _times_zeta(cur, red[0])
    out = _pykernel._norm(1, cur)
    _power_cache[key] = out
    return out


_lift_cache = {}


def lift_table(N, M):
    """Rows: coefficients of zeta_M**(j*M/N) for j < phi(N), reduced mod Phi_M."""
    key = (N, M)
    got = _lift_cache.get(key)
    if got is not None:
        return got
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
    rows = tuple(rows)
    _lift_cache[key] = rows
    return rows


def s_lift(a, N, M):
    """Re-express a conductor-N scalar at conductor M (N divides M)."""
    if N == M:
        return a
    table = lift_table(N, M)
    phiM = euler_phi(M)
    out = [0] * phiM
    for i, c in enumerate(a[1:]):
        if c:
            row = table[i]
            for j in range(phiM):
                if row[j]:
                    out[j] += c * row[j]
    return _pykernel._norm(a[0], out)


_inv_memo = {}


def s_inv(ctx, a):
    """Multiplicative inverse via the regular-representation linear solve,
    made once per (conductor, scalar) while the memo holds it."""
    if s_is_zero(a):
        raise ZeroDivisionError("inverse of zero cyclotomic scalar")
    key = (ctx[0], a)
    got = _inv_memo.get(key)
    if got is None:
        got = _pykernel._remember(_inv_memo, key, _solve_inv(ctx, a))
    return got


def _solve_inv(ctx, a):
    N, phi, red = ctx
    if phi == 1:
        return s_from_ratio(ctx, a[0], a[1])
    # columns: x**j * (numerator of a), as integer vectors
    cols = []
    cur = list(a[1:])
    for j in range(phi):
        cols.append(list(cur))
        if j == phi - 1:
            break
        cur = _times_zeta(cur, red[0])
    # solve M v = e0 over Q
    mat = [[Fraction(cols[j][i]) for j in range(phi)] for i in range(phi)]
    rhs = [Fraction(1 if i == 0 else 0) for i in range(phi)]
    for col in range(phi):
        piv = None
        for r in range(col, phi):
            if mat[r][col]:
                piv = r
                break
        if piv is None:
            raise ZeroDivisionError("scalar is a zero divisor (not reduced?)")
        if piv != col:
            mat[col], mat[piv] = mat[piv], mat[col]
            rhs[col], rhs[piv] = rhs[piv], rhs[col]
        pv = mat[col][col]
        mat[col] = [x / pv for x in mat[col]]
        rhs[col] = rhs[col] / pv
        for r in range(phi):
            if r != col and mat[r][col]:
                f = mat[r][col]
                mat[r] = [x - f * y for x, y in zip(mat[r], mat[col])]
                rhs[r] = rhs[r] - f * rhs[col]
    return s_from_fractions(ctx, [x * a[0] for x in rhs])
