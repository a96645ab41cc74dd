"""The scalar kernel and shared exact-arithmetic helpers.

The hot loops (scalar ring operations and the axiom scans) live in
``_pykernel`` and are re-exported here.  They stay a module of their own:
the scans call ``_pykernel``'s scalar functions directly, so the hopfbench
tracer, which patches the names bound in this package, counts only the
scalar calls made from outside the kernel.  Everything else here is
conversion and table code: cyclotomic polynomials, contexts, powers of zeta
and lift tables are built once per conductor, and ``s_inv`` inverts once per
distinct operand, memoized like the binary ring operations
(``_pykernel._remember``).
"""

from fractions import Fraction
from functools import cache
from math import gcd

from . import _pykernel
from ._pykernel import (  # noqa: F401
    KERNEL_NAME,
    antimult_first_defect,
    antipode_first_defects,
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
    one per conductor.  Canonical scalars are equal exactly when their tuples
    are, so ``s == ctx[3]`` tests for zero and ``s == ctx[4]`` for one."""
    poly = cyclotomic_poly(N)
    phi = len(poly) - 1
    base = tuple(-poly[j] for j in range(phi))
    rows = [base]
    for _ in range(max(0, phi - 2)):
        rows.append(tuple(_times_zeta(rows[-1], base)))
    return (N, phi, tuple(rows), (1,) + (0,) * phi, (1, 1) + (0,) * (phi - 1))


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
    if g == 0:
        return s_zero(ctx)
    if q < 0:
        g = -g
    return (q // g, p // g) + (0,) * (ctx[1] - 1)


def s_from_ints(den, coeffs):
    """Canonical scalar (c0 + c1*z + ...) / den from phi Python ints and an
    int den > 0."""
    return _pykernel._norm(den, coeffs)


def s_from_fractions(ctx, fracs):
    """Canonical scalar from a sequence of phi Fractions."""
    den = 1
    for f in fracs:
        den = den * f.denominator // gcd(den, f.denominator)
    return s_from_ints(den, [int(f * den) for f in fracs])


def s_to_fractions(a):
    den = a[0]
    return tuple(Fraction(c, den) for c in a[1:])


def s_rational_part(a):
    """The Fraction value if the scalar is rational, else None."""
    for c in a[2:]:
        if c:
            return None
    return Fraction(a[1], a[0])


# keyed by (N, k), not by the arguments: a functools.cache on ctx would hash
# its O(phi^2) reduction rows on every call
_power_cache = {}


def zeta_power(ctx, k):
    """Canonical scalar zeta_N**k (iterative multiply-by-x reduction)."""
    N, phi, red = ctx[:3]
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
    """Multiplicative inverse by the norm (``_solve_inv``), made once per
    (conductor, scalar) while the memo holds it."""
    if a == ctx[3]:
        raise ZeroDivisionError("inverse of zero cyclotomic scalar")
    key = (ctx[0], a)
    got = _inv_memo.get(key)
    if got is None:
        got = _pykernel._remember(_inv_memo, key, _solve_inv(ctx, a))
    return got


def _solve_inv(ctx, a):
    """a^-1 = c / Norm(a), c the product of the conjugates sigma_k(a),
    sigma_k(zeta) = zeta^k for 1 < k < N prime to N; Norm(a) = a c is
    rational.  Each product is made once, so none goes through a memo."""
    N, phi = ctx[0], ctx[1]
    if phi == 1:
        return s_from_ratio(ctx, a[0], a[1])
    c = ctx[4]
    for k in range(2, N):
        if gcd(k, N) == 1:
            conj = [0] * phi
            for j, cj in enumerate(a[1:]):
                if cj:
                    for t, z in enumerate(zeta_power(ctx, j * k)[1:]):
                        conj[t] += cj * z
            c = _pykernel._mul(ctx, c, _pykernel._norm(a[0], conj))
    norm = _pykernel._mul(ctx, a, c)
    return _pykernel._mul(ctx, c, s_from_ratio(ctx, norm[0], norm[1]))
