import sys
from fractions import Fraction
from math import gcd, lcm
from random import Random
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import readme_cli_commands, scalar_at
from hopfkit import _kernel as K
from hopfkit.builders import cyclic_table, group_algebra
from hopfkit.cli import main
from hopfkit.errors import InconsistentSystemError, ShapeError
from hopfkit.exact_math import (
    Cyclotomic,
    Matrix,
    RowSpace,
    _act_blocks,
    _add,
    _apply,
    _axpy,
    _clean,
    _kron_act,
    _scale,
    _table_apply,
    _table_mul,
    _tensor,
    _tensor_square_mul,
    format_raw,
    format_scalar,
    id_kron,
    kron_id,
    parse_scalar,
    root_of_unity,
)


def test_root_of_unity_identities():
    assert root_of_unity(1, 0) == 1
    assert root_of_unity(4, 2) == -1
    z3 = root_of_unity(3)
    assert z3 + z3 ** 2 == -1  # minimal polynomial x^2 + x + 1
    assert root_of_unity(8) ** 8 == 1
    assert root_of_unity(6) == -root_of_unity(3, 2)


def test_root_of_unity_order_divides_conductor():
    for N in (1, 2, 3, 4, 5, 6, 8, 9, 12):
        z = root_of_unity(N)
        assert z ** N == 1


def test_scalar_inverse():
    assert Cyclotomic.rational(2).inverse() == Fraction(1, 2)
    z8 = root_of_unity(8)
    assert z8.inverse() == z8 ** 7
    # (1 + z3)^(-1) = -z3; frozen from the multiply-back oracle
    z3 = root_of_unity(3)
    a = 1 + z3
    inv = a.inverse()
    assert a * inv == 1
    assert inv == -z3


def test_invert_zero_raises():
    with pytest.raises(ZeroDivisionError):
        Cyclotomic.rational(0).inverse()


# phi = 1, 2, 2, 4, 6, 4, 4: conductors 3 and 4, and 5, 8 and 12, share a
# scalar tuple length, so a kernel memo keyed without N would mix them up
KERNEL_CONDUCTORS = [1, 3, 4, 5, 7, 8, 12]
_COEFF = st.fractions(min_value=-4, max_value=4, max_denominator=6)


def _canonical(N):
    """A canonical kernel scalar at conductor N; zero and one often."""
    ctx = K.make_ctx(N)
    return st.one_of(
        st.just(K.s_zero(ctx)),
        st.just(K.s_one(ctx)),
        st.lists(_COEFF, min_size=ctx[1], max_size=ctx[1]).map(
            lambda fracs: K.s_from_fractions(ctx, fracs)
        ),
    )


def _at_conductor(count):
    return st.sampled_from(KERNEL_CONDUCTORS).flatmap(
        lambda N: st.tuples(st.just(K.make_ctx(N)), *[_canonical(N)] * count)
    )


@settings(max_examples=80, deadline=None)
@given(_at_conductor(1))
def test_s_mul_by_one_is_the_other_operand(case):
    ctx, b = case
    one = K.s_one(ctx)
    assert K.s_mul(ctx, one, b) == b
    assert K.s_mul(ctx, b, one) == b


@settings(max_examples=80, deadline=None)
@given(_at_conductor(2))
def test_s_mul_commutes(case):
    ctx, a, b = case
    assert K.s_mul(ctx, a, b) == K.s_mul(ctx, b, a)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([1, 3, 4, 5, 8, 12]), st.lists(_COEFF, min_size=4, max_size=4),
       st.lists(_COEFF, min_size=4, max_size=4), _COEFF)
def test_zero_and_one_are_the_context_tuples(N, xs, ys, r):
    # the sparse helpers test s == ctx[3] for zero and s == ctx[4] for one;
    # the scalars compared here are built by arithmetic, not taken from ctx
    ctx = K.make_ctx(N)
    phi = ctx[1]
    zero, one = ctx[3], ctx[4]
    assert (zero, one) == (K.s_zero(ctx), K.s_one(ctx))
    a, b = K.s_from_fractions(ctx, xs[:phi]), K.s_from_fractions(ctx, ys[:phi])
    scalars = [a, b, K.s_sub(ctx, a, a), K.s_sub(ctx, a, b), K.s_add(ctx, a, b), K.s_mul(ctx, a, b),
               K.s_from_ratio(ctx, r.numerator, r.denominator), K.s_from_ratio(ctx, 3, 3),
               K.s_from_fractions(ctx, [r] + [Fraction(0)] * (phi - 1))]
    if not K.s_is_zero(a):
        scalars.append(K.s_mul(ctx, a, K.s_inv(ctx, a)))
    unit_value = (Fraction(1),) + (Fraction(0),) * (phi - 1)
    for s in scalars:
        assert (s == zero) == K.s_is_zero(s)
        assert (s == one) == (K.s_to_fractions(s) == unit_value)


@settings(max_examples=60, deadline=None)
@given(st.lists(_COEFF, min_size=8, max_size=8).filter(any))
def test_s_inv_is_the_inverse_at_every_conductor(fracs):
    # the same coefficients at every conductor, so equal scalar tuples recur
    # across conductors of equal phi; 9 and 15 are odd composite conductors,
    # where the norm multiplies 5 and 7 conjugates
    for N in KERNEL_CONDUCTORS + [9, 15]:
        ctx = K.make_ctx(N)
        a = K.s_from_fractions(ctx, fracs[: ctx[1]])
        if K.s_is_zero(a):
            continue
        inv = K.s_inv(ctx, a)
        assert K.s_mul(ctx, a, inv) == K.s_one(ctx)
        assert K.s_inv(ctx, a) == inv


def _reference_reduce(N, poly):
    """The coefficients of the Fraction polynomial poly (low degree first)
    modulo the monic Phi_N, by long division, padded to phi(N)."""
    cyc = K.cyclotomic_poly(N)
    phi = len(cyc) - 1
    poly = list(poly) + [Fraction(0)] * max(0, phi - len(poly))
    for deg in range(len(poly) - 1, phi - 1, -1):
        c = poly[deg]
        for j in range(phi + 1):
            poly[deg - phi + j] -= c * cyc[j]
    return tuple(poly[:phi])


def _reference_product(N, x, y):
    """x*y for coefficient lists of Fractions: the polynomial product, reduced
    modulo the monic Phi_N by long division."""
    prod = [Fraction(0)] * (len(x) + len(y) - 1)
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            prod[i + j] += xi * yj
    return _reference_reduce(N, prod)


# conductors 3 and 4 share phi = 2, and 5, 8 and 12 share phi = 4: the same
# canonical tuple, hence the same raw scalar, denotes other numbers there
REFERENCE_CONDUCTORS = [1, 2, 3, 4, 5, 7, 8, 12]


def _fractions(raw):
    """The coefficients of a raw scalar as Fractions, read from its canonical
    parts, which must be in lowest terms with a positive denominator."""
    den, *coeffs = K.s_parts(raw)
    assert den > 0 and gcd(den, *coeffs) == 1
    return tuple(Fraction(c, den) for c in coeffs)


@settings(max_examples=60, deadline=None)
@given(st.lists(_COEFF, min_size=6, max_size=6), st.lists(_COEFF, min_size=6, max_size=6),
       st.integers(-30, 30))
def test_memoized_ring_ops_match_a_reference_at_every_conductor(xs, ys, k):
    # one example runs every conductor on the same coefficients, so the same
    # raw operands come back at 3 and 4, and at 5, 8 and 12, where they
    # denote other numbers; each op runs twice, the second time from its memo
    for N in REFERENCE_CONDUCTORS:
        ctx = K.make_ctx(N)
        phi = ctx[1]
        x, y = xs[:phi], ys[:phi]
        a, b = K.s_from_fractions(ctx, x), K.s_from_fractions(ctx, y)
        assert _fractions(a) == tuple(x) and _fractions(b) == tuple(y)
        product = _reference_product(N, x, y)
        for _ in range(2):
            assert _fractions(K.s_mul(ctx, a, b)) == product
            assert _fractions(K.s_add(ctx, a, b)) == tuple(p + q for p, q in zip(x, y))
            assert _fractions(K.s_sub(ctx, a, b)) == tuple(p - q for p, q in zip(x, y))
            assert _fractions(K.s_neg(a)) == tuple(-p for p in x)
            assert _fractions(K.zeta_power(ctx, k)) == _reference_reduce(N, [0] * (k % N) + [1])
            if any(x):
                unit = (Fraction(1),) + (Fraction(0),) * (phi - 1)
                assert _reference_product(N, x, _fractions(K.s_inv(ctx, a))) == unit
        for M in REFERENCE_CONDUCTORS:
            if M % N == 0:
                # z_N = z_M^(M/N)
                spread = [Fraction(0)] * ((phi - 1) * (M // N) + 1)
                for j, c in enumerate(x):
                    spread[j * (M // N)] = c
                assert _fractions(K.s_lift(a, N, M)) == _reference_reduce(M, spread)
        # one value reached by different routes is one raw scalar
        assert K.s_from_fractions(ctx, product) == K.s_mul(ctx, a, b) == K.s_mul(ctx, b, a)
        assert K.s_sub(ctx, K.s_add(ctx, a, b), b) == a == K.s_neg(K.s_neg(a))
        assert K.s_add(ctx, a, K.s_neg(a)) == K.s_sub(ctx, b, b) == K.s_zero(ctx)
        assert K.s_mul(ctx, K.zeta_power(ctx, k), K.zeta_power(ctx, -k)) == K.s_one(ctx)
        if any(x):
            assert K.s_mul(ctx, a, K.s_inv(ctx, a)) == K.s_one(ctx)


@pytest.fixture
def full_table(monkeypatch):
    """The table of interned scalars held full, its cap set to its current
    size, with memos of its own: what the test memoizes, some of it tuples
    that would get ids once the cap is restored, does not outlive it.  The
    contexts and the old values used are made first, so they keep their
    ids."""
    ctxs = [K.make_ctx(N) for N in (1, 3, 7)]
    old = [(ctx, K.s_from_ratio(ctx, 2)) for ctx in ctxs]
    monkeypatch.setattr(K, "_TABLE_CAP", len(K._values) - 1)
    for memo in ("_mul_memo", "_add_memo", "_inv_memo", "_neg_memo", "_power_cache"):
        monkeypatch.setattr(K, memo, {})
    return old


def test_a_full_table_leaves_new_values_as_tuples(full_table, monkeypatch):
    size = len(K._values)
    for ctx, two in full_table:
        phi = ctx[1]
        assert all(type(s) is int for s in (ctx[3], ctx[4], two))
        # a value no run has made: 1/3 + 10^40 z^(phi-1), or 10^40 + 1/3
        big = [Fraction(1, 3)] + [Fraction(0)] * (phi - 2) + [Fraction(10**40)]
        if phi == 1:
            big = [Fraction(10**40) + Fraction(1, 3)]
        new = K.s_from_fractions(ctx, big)
        assert type(new) is tuple and new == K.s_parts(new)
        # reached again, by other routes, it is the same tuple and no id
        half = K.s_from_fractions(ctx, [f / 2 for f in big])
        for again in (K.s_add(ctx, half, half), K.s_mul(ctx, two, half),
                      K.s_neg(K.s_neg(new)), K.s_from_fractions(ctx, big)):
            assert type(again) is tuple and again == new
        # mixed int and tuple operands stay exact, and a result that is a
        # value with an id is that id
        assert _fractions(K.s_mul(ctx, two, new)) == tuple(2 * f for f in big)
        assert _fractions(K.s_add(ctx, new, two)) == (big[0] + 2,) + tuple(big[1:])
        assert K.s_sub(ctx, new, new) == ctx[3] and K.s_is_zero(K.s_sub(ctx, new, new))
        assert not K.s_is_zero(new) and new != two and K.s_add(ctx, new, ctx[3]) == new
        assert K.s_mul(ctx, new, K.s_inv(ctx, new)) == ctx[4]
        assert K.s_sub(ctx, K.s_add(ctx, new, two), new) == two
        text = "1/3 + 10000000000000000000000000000000000000000*z^%d" % (phi - 1)
        assert format_raw(new) == (text if phi > 1 else "30000000000000000000000000000000000000001/3")
        assert parse_scalar(format_raw(new), ctx[0]).data == new
    assert len(K._values) == size
    # emptying the memos leaves every id naming its value
    before = [(i, K.s_parts(i)) for i in range(1, size)]
    monkeypatch.setattr(K, "_MEMO_CAP", 2)
    for ctx, _ in full_table:
        for p in range(1, 6):
            K.s_mul(ctx, K.s_from_ratio(ctx, p), K.s_from_ratio(ctx, p + 1))
            K.s_add(ctx, K.s_from_ratio(ctx, p), K.s_from_ratio(ctx, 1, p))
    assert all(len(memo) <= 2 for memo in (K._mul_memo, K._add_memo))
    assert [(i, K.s_parts(i)) for i in range(1, size)] == before
    assert all(K.s_from_ints(parts[0], parts[1:]) == i for i, parts in before)


def test_scalar_memos_stay_within_their_cap():
    # the elimination of a dense 30 x 30 rational inverse stores about 23,600
    # distinct products and as many distinct sums, each far more than one
    # memo may hold
    rng = Random(0)
    A = Matrix.from_rows([[rng.randint(-3, 3) for _ in range(30)] for _ in range(30)])
    assert (A * A.inverse()).is_identity()
    for memo in (K._mul_memo, K._add_memo, K._inv_memo):
        assert len(memo) <= K._MEMO_CAP


@pytest.mark.parametrize("N", KERNEL_CONDUCTORS)
def test_s_inv_of_zero_raises_on_every_call(N):
    ctx = K.make_ctx(N)
    for _ in range(2):
        with pytest.raises(ZeroDivisionError):
            K.s_inv(ctx, K.s_zero(ctx))


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([1, 3, 4, 5, 8]),
    st.lists(st.integers(-9, 9), min_size=3, max_size=3),
    st.lists(st.integers(-9, 9), min_size=3, max_size=3),
    st.lists(st.integers(-9, 9), min_size=3, max_size=3),
)
def test_field_axioms(N, aa, bb, cc):
    def mk(coeffs):
        z = root_of_unity(N)
        return coeffs[0] + coeffs[1] * z + Fraction(coeffs[2], 7) * z * z

    a, b, c = mk(aa), mk(bb), mk(cc)
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a
    if not a.is_zero():
        assert a * a.inverse() == 1


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([(1, 3), (2, 4), (3, 6), (4, 8), (3, 12)]),
       st.lists(st.integers(-5, 5), min_size=2, max_size=2),
       st.lists(st.integers(-5, 5), min_size=2, max_size=2))
def test_conductor_lift_coherence(pair, aa, bb):
    N, M = pair
    z = root_of_unity(N)
    a = aa[0] + aa[1] * z
    b = bb[0] + bb[1] * z
    # lifting commutes with arithmetic
    assert (a * b).lift(M) == a.lift(M) * b.lift(M)
    assert (a + b).lift(M) == a.lift(M) + b.lift(M)


def test_scalar_parse_format_roundtrip():
    x = Cyclotomic.from_coeffs(8, [Fraction(1, 2), 0, Fraction(-3, 7), 2])
    assert parse_scalar(format_scalar(x), 8) == x
    assert parse_scalar("0", 5).is_zero()
    assert parse_scalar("-2/3", 1) == Fraction(-2, 3)
    # powers beyond phi(N) fold back
    assert parse_scalar("1*z^4", 4) == 1


def _fraction_format(a):
    """The rendering of a scalar through one Fraction per coefficient, as
    format_scalar wrote it before it read the raw tuple: the reference."""
    terms = []
    for k, f in enumerate(Cyclotomic.promote(a).coeffs()):
        if f == 0:
            continue
        num = str(f.numerator) if f.denominator == 1 else "%d/%d" % (f.numerator, f.denominator)
        terms.append(num if k == 0 else "%s*z^%d" % (num, k))
    return " + ".join(terms) if terms else "0"


# coefficients p/q with q of either sign and not always 1, zero included
_COEFFS = st.builds(Fraction, st.integers(-10 ** 20, 10 ** 20),
                    st.integers(-60, 60).filter(bool)) | st.sampled_from([0, 1, -1])


@settings(max_examples=300, deadline=None)
@given(N=st.sampled_from([1, 2, 3, 4, 5, 7, 8, 12, 15]), data=st.data())
def test_format_scalar_matches_the_fraction_rendering(N, data):
    phi = K.make_ctx(N)[1]
    x = Cyclotomic.from_coeffs(N, data.draw(st.lists(_COEFFS, min_size=phi, max_size=phi)))
    text = format_scalar(x)
    assert text == _fraction_format(x)
    assert parse_scalar(text, N) == x


@settings(max_examples=100, deadline=None)
@given(st.integers(-10 ** 20, 10 ** 20) | _COEFFS)
@example(0)
@example(Fraction(0, -7))
@example(Fraction(6, -4))
def test_format_scalar_of_ints_and_fractions_matches_the_fraction_rendering(value):
    text = format_scalar(value)
    assert text == _fraction_format(value) == str(Fraction(value))
    assert parse_scalar(text, 1) == value


@settings(max_examples=60, deadline=None)
@given(N=st.sampled_from([1, 3, 4, 5, 8, 9, 12]),
       terms=st.lists(st.tuples(st.integers(-9, 9), st.integers(1, 12), st.integers(-30, 30)),
                      min_size=1, max_size=5))
def test_parse_scalar_is_the_sum_of_its_terms(N, terms):
    # mixed denominators and powers of z outside 0..phi(N)-1, negative ones too
    text = " + ".join("%d/%d*z^%d" % t for t in terms)
    want = sum((Cyclotomic.rational(Fraction(p, q), N) * root_of_unity(N, k) for p, q, k in terms),
               Cyclotomic.rational(0, N))
    got = parse_scalar(text, N)
    assert (got.N, got.data) == (N, want.data)


@pytest.mark.parametrize("text, message", [("1/0", "Fraction(1, 0)"), ("-3/0", "Fraction(-3, 0)"),
                                           ("007/0*z", "Fraction(7, 0)"), ("-0/0", "Fraction(0, 0)")])
def test_zero_denominator_names_the_fraction(text, message):
    # the message Fraction(text) raised, kept for the bundle parse errors
    with pytest.raises(ZeroDivisionError) as info:
        parse_scalar(text, 4)
    assert str(info.value) == message


@pytest.mark.parametrize("text", ["1e999999999", "1e9", "1E3", "1.0", ".5", "1_0", "1/2_0",
                                  "1/-2", "1/ 2", "2.5*z", "1e3*z^1", "z^1_0", "z^1.0", "1*z^ 2"])
def test_parse_scalar_rejects_tokens_outside_the_grammar(text):
    with pytest.raises(ValueError, match="bad token"):
        parse_scalar(text, 4)


def test_solve_identity():
    A = Matrix.identity(3)
    sol = A.solve(Matrix.column([1, 2, 3]))
    assert sol.particular == Matrix.column([1, 2, 3])
    assert sol.null_basis == []


def test_solve_zero_matrix():
    Z = Matrix.zeros(2, 2)
    sol = Z.solve(Matrix.column([0, 0]))
    assert sol.particular.is_zero()
    assert len(sol.null_basis) == 2
    with pytest.raises(InconsistentSystemError):
        Z.solve(Matrix.column([1, 0]))


def test_solve_cyclotomic_system():
    i = root_of_unity(4)
    A = Matrix.from_rows([[1, 1], [i, i]])
    b = Matrix.column([1, i])
    sol = A.solve(b)
    # deterministic representative: free variable set to zero
    assert sol.particular == Matrix.column([1, 0])
    assert len(sol.null_basis) == 1
    assert sol.null_basis[0] == Matrix.column([-1, 1])
    # re-substitution oracle
    assert A * sol.particular == b
    for nvec in sol.null_basis:
        assert (A * nvec).is_zero()


def test_kron_identity_and_swap():
    assert Matrix.identity(2).kron(Matrix.identity(3)) == Matrix.identity(6)
    sw = Matrix.from_rows([[0, 1], [1, 0]])
    K = sw.kron(Matrix.identity(2))
    # e0 x e1 (index 1) maps to e1 x e1 (index 3)
    v = Matrix.column([0, 1, 0, 0])
    assert K * v == Matrix.column([0, 0, 0, 1])


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(-3, 3), min_size=4, max_size=4),
       st.lists(st.integers(-3, 3), min_size=4, max_size=4))
def test_kron_rank_multiplicative(av, bv):
    A = Matrix.from_rows([av[:2], av[2:]])
    B = Matrix.from_rows([bv[:2], bv[2:]])
    assert A.kron(B).rank() == A.rank() * B.rank()


def test_kron_associative():
    i = root_of_unity(4)
    A = Matrix.from_rows([[1, i], [0, 2]])
    B = Matrix.from_rows([[i, 1]])
    C = Matrix.from_rows([[2], [i]])
    assert A.kron(B).kron(C) == A.kron(B.kron(C))


def test_matrix_inverse():
    i = root_of_unity(4)
    B = Matrix.from_rows([[1, 1], [0, i]])
    assert (B.inverse() * B).is_identity()
    singular = Matrix.from_rows([[1, 1], [i, i]])
    assert singular.inverse() is None


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.integers(-4, 4), min_size=6, max_size=6),
    st.lists(st.integers(-4, 4), min_size=2, max_size=2),
)
def test_solve_resubstitutes(av, bv):
    z = root_of_unity(3)
    A = Matrix.from_rows([[av[0] + av[1] * z, av[2]], [av[3], av[4] + av[5] * z]])
    b = Matrix.column([bv[0], bv[1] * z])
    try:
        sol = A.solve(b)
    except InconsistentSystemError:
        # certify inconsistency: the rank grows when b is adjoined
        aug = Matrix.from_rows(
            [[A.entry(i, 0), A.entry(i, 1), b.entry(i, 0)] for i in range(2)]
        )
        assert aug.rank() == A.rank() + 1
        return
    assert A * sol.particular == b
    for nvec in sol.null_basis:
        assert (A * nvec).is_zero()
    assert len(sol.null_basis) == 2 - A.rank()


def _reference_pivots(rows):
    """Pivot columns of a list of rows of Cyclotomic values, by plain
    Gaussian elimination; their number is the rank."""
    rows = [list(r) for r in rows]
    pivots = []
    for col in range(len(rows[0]) if rows else 0):
        at = next((i for i in range(len(pivots), len(rows)) if not rows[i][col].is_zero()), None)
        if at is None:
            continue
        r = len(pivots)
        rows[r], rows[at] = rows[at], rows[r]
        for i in range(r + 1, len(rows)):
            f = rows[i][col] / rows[r][col]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
    return pivots


@st.composite
def _sparse_system(draw):
    """(A, B) over Q(zeta_N), N in 1, 4, 5, 8, with most entries zero."""
    N = draw(st.sampled_from([1, 4, 5, 8]))
    entry = st.one_of(st.just(Cyclotomic.rational(0, N)), scalar_at(N))
    rows, cols, nrhs = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(1, 2))
    A = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    B = draw(st.lists(st.lists(entry, min_size=nrhs, max_size=nrhs), min_size=rows, max_size=rows))
    return A, B


@settings(max_examples=150, deadline=None)
@given(_sparse_system())
def test_elimination_gives_the_reduced_row_echelon_answer(system):
    A_rows, B_rows = system
    A, B = Matrix.from_rows(A_rows), Matrix.from_rows(B_rows)
    n, pivots = A.cols, _reference_pivots(A_rows)
    rank = len(pivots)
    assert A.rank() == rank
    if A.rows == n:
        inv = A.inverse()
        assert (inv is None) == (rank < n)
        if inv is not None:
            assert (A * inv).is_identity() and (inv * A).is_identity()
    consistent = len(_reference_pivots([a + b for a, b in zip(A_rows, B_rows)])) == rank
    try:
        sol = A.solve(B)
    except InconsistentSystemError:
        assert not consistent
        return
    assert consistent
    assert A * sol.particular == B
    # the free variables of the particular solution are 0
    for j in range(n):
        if j not in pivots:
            assert not sol.particular.srows[j]
    free = [j for j in range(n) if j not in pivots]
    assert len(sol.null_basis) == len(free)
    for own, vec in zip(free, sol.null_basis):
        assert (A * vec).is_zero()
        assert all(vec.entry(j, 0) == (1 if j == own else 0) for j in free)


def test_dense_cyclotomic_inverse_and_solve_finish_quickly():
    # dense 20 x 20 elimination over Q(zeta_5) once grew its entries without
    # bound: it did not finish in minutes
    import os
    import subprocess
    import sys

    import hopfkit

    script = """
from random import Random
from hopfkit.exact_math import Cyclotomic, Matrix

rng = Random(5)
def entry():
    return Cyclotomic.from_coeffs(5, [rng.randint(-3, 3) for _ in range(4)])
A = Matrix.from_rows([[entry() for _ in range(20)] for _ in range(20)])
b = Matrix.column([entry() for _ in range(20)])
inv = A.inverse()
assert (A * inv).is_identity() and (inv * A).is_identity()
sol = A.solve(b)
assert A * sol.particular == b and sol.null_basis == []
"""
    src = os.path.dirname(os.path.dirname(hopfkit.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr


@st.composite
def _product_case(draw):
    N = draw(st.sampled_from([1, 4, 8]))
    r, n, m = (draw(st.integers(1, 4)) for _ in range(3))
    A = [[draw(scalar_at(N)) for _ in range(n)] for _ in range(r)]
    B = [[draw(scalar_at(N)) for _ in range(m)] for _ in range(n)]
    return N, A, B


@settings(max_examples=80, deadline=None)
@given(_product_case())
def test_matrix_product_equals_entrywise_sum(case):
    N, A, B = case
    got = Matrix(N, [[a.data for a in row] for row in A]) * Matrix(N, [[b.data for b in row] for row in B])
    want = [[sum((A[i][k] * B[k][j] for k in range(len(B))), Cyclotomic.rational(0, N)).data
             for j in range(len(B[0]))] for i in range(len(A))]
    assert got.raw() == [list(row) for row in want]


@st.composite
def _vector_case(draw):
    """Sparse vectors over Q(zeta_N) with int or tuple keys.  v cancels acc
    at some keys, often for c = +-1, and scalars are often zero or one."""
    N = draw(st.sampled_from([1, 4, 8]))
    keys = draw(st.sampled_from([list(range(4)), [(i, j) for i in range(2) for j in range(2)]]))
    scalar = scalar_at(N)
    acc = {k: draw(scalar) for k in draw(st.lists(st.sampled_from(keys), max_size=4))}
    c = draw(st.one_of(scalar, st.just(Cyclotomic.rational(-1, N))))
    v = {}
    for k in draw(st.lists(st.sampled_from(keys), max_size=4)):
        if k in acc and draw(st.booleans()) and not c.is_zero():
            v[k] = -acc[k] / c  # c*v cancels acc at k
        else:
            v[k] = draw(scalar)
    n = draw(st.integers(1, 3))
    table = [
        {k: draw(scalar) for k in draw(st.lists(st.integers(0, n - 1), max_size=3))}
        for _ in range(n * n)
    ]
    u = {i: draw(scalar) for i in draw(st.lists(st.integers(0, n - 1), max_size=3))}
    w = {j: draw(scalar) for j in draw(st.lists(st.integers(0, n - 1), max_size=3))}
    return N, acc, v, c, n, table, u, w


def _reference(N, terms):
    """Dense reference: sum every (key, scalar) term, then drop the zeros."""
    out = {}
    for k, x in terms:
        out[k] = out.get(k, Cyclotomic.rational(0, N)) + x
    return {k: x.data for k, x in out.items() if not x.is_zero()}


def _raw(vec):
    return {k: x.data for k, x in vec.items() if not x.is_zero()}


@settings(max_examples=150, deadline=None)
@given(_vector_case())
def test_sparse_vector_helpers_match_dense_reference(case):
    N, acc, v, c, n, table, u, w = case
    ctx = K.make_ctx(N)
    cv = [(k, c * x) for k, x in v.items()]
    assert _axpy(ctx, _raw(acc), _raw(v), c.data) == _reference(N, list(acc.items()) + cv)
    assert _axpy(ctx, {}, {}, c.data) == {}
    assert _scale(ctx, _raw(v), c.data) == _reference(N, cv)
    assert _clean(ctx, ((k, x.data) for k, x in acc.items())) == _reference(N, acc.items())
    dense = [Cyclotomic.rational(0, N)] * 4
    for i, x in u.items():
        dense[i] = x
    assert _clean(ctx, enumerate(x.data for x in dense)) == _reference(N, enumerate(dense))

    flat = {i: x for i, x in enumerate(acc.values())}
    outer = [(i * n + j, a * b) for i, a in u.items() for j, b in w.items()]
    assert _tensor(ctx, _raw(flat), _raw(u), _raw(w), n) == _reference(N, list(flat.items()) + outer)

    raw_table = [tuple((k, x.data) for k, x in row.items() if not x.is_zero()) for row in table]
    products = [(k, a * b * s) for i, a in u.items() for j, b in w.items()
                for k, s in table[i * n + j].items()]
    got = _table_mul(ctx, raw_table, n, {i: x.data for i, x in u.items()},
                     {j: x.data for j, x in w.items()})
    assert got == _reference(N, products)

    # a map held as its column table: dict columns (the rows of a transposed
    # Matrix) for _apply, pair-sequence columns (the rows of a structure
    # table) for _table_apply, which skips a zero coefficient
    M = Matrix(N, [[table[i * n + j].get(0, Cyclotomic.rational(0, N)).data for j in range(n)]
                   for i in range(n)])
    assert _apply(ctx, M.transpose().srows, _raw(u)) == _reference(
        N, [(i, M.entry(i, j) * x) for j, x in u.items() for i in range(n)])
    assert _table_apply(ctx, raw_table, _raw(u)) == _reference(
        N, [(k, x * s) for j, x in u.items() for k, s in table[j].items()])
    assert _table_apply(ctx, raw_table, {}) == {}
    assert _table_apply(ctx, raw_table, {j: ctx[3] for j in range(n)}) == {}


# ---------------------------------------------------------------------------
# the sparse-row layer of Matrix against a dense reference in Cyclotomic
# ---------------------------------------------------------------------------


def _dense_at(N, rows, cols):
    row = st.lists(scalar_at(N), min_size=cols, max_size=cols)
    return st.lists(row, min_size=rows, max_size=rows)


def _matrix(N, dense):
    return Matrix(N, [[x.data for x in row] for row in dense])


def _assert_matches(got, want, N):
    """got holds the canonical entries of the dense Cyclotomic rows want at
    conductor N, and stores no zero."""
    assert (got.N, got.rows) == (N, len(want))
    assert got.raw() == [[x.lift(N).data for x in row] for row in want]
    for row in got.srows:
        assert all(not K.s_is_zero(x) and 0 <= j < got.cols for j, x in row.items())


@st.composite
def _sparse_case(draw):
    """A (r x n at NA) and B (n x m at NB) with entries often zero or one.
    With ``cancel``, A gets a copy of its first column and B a negated copy of
    its first row, so the product's partial sums cancel (to zero for n = 1).
    C is -A at NA or a fresh matrix of A's shape at NB."""
    NA, NB = draw(st.sampled_from([1, 4, 8])), draw(st.sampled_from([1, 4, 8]))
    r, n, m = (draw(st.integers(1, 3)) for _ in range(3))
    A = draw(_dense_at(NA, r, n))
    B = draw(_dense_at(NB, n, m))
    if draw(st.booleans()):
        A = [row + [row[0]] for row in A]
        B = B + [[-x for x in B[0]]]
    if draw(st.booleans()):
        NC, C = NA, [[-x for x in row] for row in A]
    else:
        NC, C = NB, draw(_dense_at(NB, r, len(A[0])))
    c = draw(st.one_of(scalar_at(NB), st.just(Cyclotomic.rational(-1, NB))))
    return NA, NB, NC, A, B, C, c


@settings(max_examples=150, deadline=None)
@given(_sparse_case())
def test_sparse_matrix_ops_match_dense_reference(case):
    NA, NB, NC, A, B, C, c = case
    N = lcm(NA, NB)
    zero = Cyclotomic.rational(0, N)
    MA, MB, MC = _matrix(NA, A), _matrix(NB, B), _matrix(NC, C)
    n = len(B)

    want = [[sum((A[i][k] * B[k][j] for k in range(n)), zero) for j in range(len(B[0]))]
            for i in range(len(A))]
    _assert_matches(MA * MB, want, N)
    want = [[a * b for a in ra for b in rb] for ra in A for rb in B]
    _assert_matches(MA.kron(MB), want, N)
    _assert_matches(MA + MC, [[x + y for x, y in zip(ra, rc)] for ra, rc in zip(A, C)], lcm(NA, NC))
    _assert_matches(MA - MC, [[x - y for x, y in zip(ra, rc)] for ra, rc in zip(A, C)], lcm(NA, NC))
    _assert_matches(-MA, [[-x for x in row] for row in A], NA)
    _assert_matches(MA.scale(c), [[c * x for x in row] for row in A], N)
    _assert_matches(MA.transpose(), [list(col) for col in zip(*A)], NA)

    # equality across conductors goes through lift
    assert MA == MA.lift(8) and MA.lift(8) == MA
    assert (MA == MC) == all(x == y for ra, rc in zip(A, C) for x, y in zip(ra, rc))
    assert (MA - MA).is_zero() and (MA - MA) == Matrix.zeros(len(A), len(A[0]), NA)


@pytest.mark.parametrize("n, N", [(1, 1), (3, 4)])
def test_zero_matrix_is_the_zero_multiple_of_identity(n, N):
    got = Matrix.zeros(n, n, N).is_scalar_multiple_of_identity()
    assert got is not None and got == 0
    i4 = root_of_unity(4)
    assert Matrix.identity(n, N).scale(i4).is_scalar_multiple_of_identity() == i4
    assert Matrix.zeros(n, n + 1, N).is_scalar_multiple_of_identity() is None


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([1, 4]).flatmap(lambda N: _dense_at(N, 3, 3)), st.randoms())
def test_module_key_ignores_row_fill_order(h8, dense, rnd):
    from hopfkit.module_theory import HModule

    M = _matrix(dense[0][0].N, dense)
    shuffled = []
    for row in M.srows:
        items = list(row.items())
        rnd.shuffle(items)
        shuffled.append(dict(items))
    M2 = Matrix.from_sparse(M.N, M.cols, shuffled)
    assert M2 == M
    V, V2 = HModule(h8, [M] * h8.dim, name="V"), HModule(h8, [M2] * h8.dim, name="V")
    assert V.key() == V2.key()
    assert isinstance(hash(V.key()), int)


class _SequentialRowSpace(RowSpace):
    """RowSpace with the reduction that visits every pivot in turn."""

    def reduce(self, vec):
        vec = _clean(self.ctx, vec.items())
        for piv, row in zip(self.pivots, self.rows):
            a = vec.get(piv)
            if a is not None:
                _axpy(self.ctx, vec, row, K.s_neg(a))
        return vec


@st.composite
def _sparse_rows(draw):
    """(N, ncols, rows, probes): sparse raw rows over Q(zeta_N), N in 1, 4, 5, 8."""
    N = draw(st.sampled_from([1, 4, 5, 8]))
    ncols = draw(st.integers(1, 8))
    row = st.dictionaries(st.integers(0, ncols - 1), scalar_at(N), max_size=4).map(
        lambda d: {j: x.data for j, x in d.items()}
    )
    return N, ncols, draw(st.lists(row, max_size=10)), draw(st.lists(row, max_size=4))


_ONE = K.s_one(K.make_ctx(1))


@settings(max_examples=150, deadline=None)
@given(_sparse_rows())
# the second row rewrites the first to e0: its entry at column 2 cancels
@example((1, 3, [{0: _ONE, 1: _ONE, 2: _ONE}, {1: _ONE, 2: _ONE}], []))
def test_pivot_indexed_reduce_matches_the_sequential_reduction(case):
    N, ncols, rows, probes = case
    ctx = K.make_ctx(N)
    fast, slow = RowSpace(ncols, ctx), _SequentialRowSpace(ncols, ctx)
    for row in rows:
        assert fast.reduce(dict(row)) == slow.reduce(dict(row))
        assert fast.add(dict(row)) == slow.add(dict(row))
        assert (fast.rows, fast.pivots) == (slow.rows, slow.pivots)
        assert fast._row_at == dict(zip(fast.pivots, fast.rows))
        # the column index holds exactly the stored non-pivot entries (p, c)
        stored = {(p, c) for p, r in fast._row_at.items() for c in r if c != p}
        assert {(p, c) for c, ps in fast._rows_with.items() for p in ps} == stored
    for vec in probes:
        assert fast.reduce(vec) == slow.reduce(vec)
    assert fast.nullspace() == slow.nullspace()


def test_rational_takes_only_ints_and_fractions():
    assert Cyclotomic.rational(Fraction(-3, 4), 5) == Fraction(-3, 4)
    assert Cyclotomic.rational(2, 4).N == 4
    # a Cyclotomic is not read as 0, and a rational string is not parsed
    for bad in (root_of_unity(4), Cyclotomic.rational(1), "1/2", 0.5):
        with pytest.raises(TypeError):
            Cyclotomic.rational(bad)


def test_entry_checks_the_row_index_as_it_checks_the_column():
    M = Matrix.from_rows([[1, 2], [3, 4], [5, 6]])
    assert M.entry(2, 1) == 6 and M.entry(0, 0) == 1
    for i, j, what in ((-1, 0, "row -1"), (3, 0, "row 3"), (0, -1, "column -1"), (0, 2, "column 2")):
        with pytest.raises(IndexError, match="^%s of a 3x2 matrix$" % what):
            M.entry(i, j)


def test_lower_finds_the_value_in_a_subfield():
    i = root_of_unity(12, 3)
    assert i.lower(4) == root_of_unity(4) and i.lower(4).N == 4
    assert root_of_unity(12, 4).lower(3) == root_of_unity(3)
    assert K.s_parts(Cyclotomic.rational(Fraction(2, 3), 12).lower(1).data) == (3, 2)
    with pytest.raises(ValueError):
        root_of_unity(12, 4).lower(4)
    with pytest.raises(ValueError):
        i.lower(5)


# Kronecker products applied without being formed: each is compared with the
# formed product at conductors 1, 3 and 4, whose mixtures lift to 12.  Most
# entries are zero, and in half the factors nearly all are, so that most rows
# of a slice are empty; many of the others are 1.
_FACTOR_CONDUCTORS = [1, 3, 4]


@st.composite
def _factor(draw, rows, cols):
    N = draw(st.sampled_from(_FACTOR_CONDUCTORS))
    zero = st.just(K.s_zero(K.make_ctx(N)))
    entry = st.one_of(*[zero] * draw(st.sampled_from([1, 5])), _canonical(N))
    return Matrix(N, [[draw(entry) for _ in range(cols)] for _ in range(rows)])


@st.composite
def _kron_act_case(draw):
    """Two tables of actions, a list of (x, c) terms and a placement
    (row0, rs, col0, cs) with strides at least the size of a B block."""
    ra, ca, rb, cb = (draw(st.integers(1, 3)) for _ in range(4))
    A = [draw(_factor(ra, ca)) for _ in range(draw(st.integers(1, 3)))]
    B = [draw(_factor(rb, cb)) for _ in range(draw(st.integers(1, 3)))]
    terms = []
    for _ in range(draw(st.integers(0, 3))):
        Nc = draw(st.sampled_from(_FACTOR_CONDUCTORS))
        c = Cyclotomic(Nc, draw(_canonical(Nc)))  # zero a third of the time
        terms.append((draw(st.integers(0, len(A) * len(B) - 1)), c))
    N = lcm(draw(st.sampled_from(_FACTOR_CONDUCTORS)), *(X.N for X in A + B),
            *(c.N for _, c in terms))
    place = (draw(st.integers(0, 3)), rb + draw(st.integers(0, 2)),
             draw(st.integers(0, 3)), cb + draw(st.integers(0, 2)))
    return N, A, B, terms, place


@settings(max_examples=80, deadline=None)
@given(_kron_act_case())
def test_kron_act_equals_the_formed_products_placed_entry_by_entry(case):
    N, A, B, terms, (row0, rs, col0, cs) = case
    ctx, m = K.make_ctx(N), len(B)
    rb, cb = B[0].rows, B[0].cols
    rows, cols = row0 + A[0].rows * rs + 2, col0 + A[0].cols * cs + 2
    got = [{} for _ in range(rows)]
    _kron_act(ctx, got, [X.lift(N).srows for X in A], [X.lift(N).srows for X in B], m,
              [(x, c.lift(N).data) for x, c in terms], row0, rs, col0, cs)
    want = [{} for _ in range(rows)]
    for x, c in terms:
        prod = A[x // m].kron(B[x % m]).scale(c).lift(N)
        for a, row in enumerate(prod.srows):
            i, k = divmod(a, rb)
            for b, v in row.items():
                j, l = divmod(b, cb)
                _add(ctx, want[row0 + i * rs + k], col0 + j * cs + l, v)
    assert (Matrix.from_sparse(N, cols, got).raw()
            == Matrix.from_sparse(N, cols, want).raw())


@st.composite
def _identity_factor_product(draw):
    """(unformed product, formed product) for each product shape with an
    identity factor: (A x I)(I x B), (I x B)(A x I), and a Matrix X on one
    side of A x I or I x B."""
    kind = draw(st.sampled_from(["AI.IB", "IB.AI", "X.AI", "X.IB", "AI.X", "IB.X"]))
    R, C, k, p, m = (draw(st.integers(1, 3)) for _ in range(5))
    I = Matrix.identity
    if kind == "AI.IB":
        A, B = draw(_factor(R, p * k)), draw(_factor(k * m, C))
        return kron_id(A, m) * id_kron(p, B), A.kron(I(m)) * I(p).kron(B)
    if kind == "IB.AI":
        B, A = draw(_factor(R, k * m)), draw(_factor(p * k, C))
        return id_kron(p, B) * kron_id(A, m), I(p).kron(B) * A.kron(I(m))
    if kind == "X.AI":
        X, A = draw(_factor(R, k * m)), draw(_factor(k, C))
        return X * kron_id(A, m), X * A.kron(I(m))
    if kind == "X.IB":
        X, B = draw(_factor(R, p * k)), draw(_factor(k, C))
        return X * id_kron(p, B), X * I(p).kron(B)
    if kind == "AI.X":
        A, X = draw(_factor(R, k)), draw(_factor(k * m, C))
        return kron_id(A, m) * X, A.kron(I(m)) * X
    B, X = draw(_factor(R, k)), draw(_factor(p * k, C))
    return id_kron(p, B) * X, I(p).kron(B) * X


@settings(max_examples=150, deadline=None)
@given(_identity_factor_product())
def test_identity_factor_products_equal_the_formed_products(case):
    got, want = case
    assert (got.N, got.raw()) == (want.N, want.raw())


def _s_mul_calls(run):
    """run() with ``K.s_mul`` counted where the benchmark counts it, by its
    kernel name: (number of calls, result)."""
    real, calls = K.s_mul, []

    def spy(ctx, a, b):
        calls.append((a, b))
        return real(ctx, a, b)

    with mock.patch.object(K, "s_mul", spy):
        got = run()
    return len(calls), got


@st.composite
def _unit_factor(draw, rows, cols):
    """A matrix at conductor 1, 3 or 4 whose entries are 0 and 1 only."""
    N = draw(st.sampled_from(_FACTOR_CONDUCTORS))
    ctx = K.make_ctx(N)
    entry = st.sampled_from([K.s_zero(ctx), K.s_one(ctx)])
    return Matrix(N, [[draw(entry) for _ in range(cols)] for _ in range(rows)])


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_unit_factors_make_no_product(data):
    R, C, k, p, m = (data.draw(st.integers(1, 3)) for _ in range(5))
    I = Matrix.identity
    A, B = data.draw(_unit_factor(R, p * k)), data.draw(_unit_factor(k * m, C))
    calls, got = _s_mul_calls(lambda: kron_id(A, m) * id_kron(p, B))
    assert calls == 0 and got == A.kron(I(m)) * I(p).kron(B)
    B, A = data.draw(_unit_factor(R, k * m)), data.draw(_unit_factor(p * k, C))
    calls, got = _s_mul_calls(lambda: id_kron(p, B) * kron_id(A, m))
    assert calls == 0 and got == I(p).kron(B) * A.kron(I(m))
    A, B = data.draw(_unit_factor(R, C)), data.draw(_unit_factor(k, m))
    N = lcm(A.N, B.N)
    ctx = K.make_ctx(N)
    out = [{} for _ in range(R * k)]
    calls, _ = _s_mul_calls(lambda: _kron_act(
        ctx, out, [A.lift(N).srows], [B.lift(N).srows], 1, [(0, K.s_one(ctx))], 0, k, 0, m))
    assert calls == 0 and Matrix.from_sparse(N, C * m, out) == A.kron(B)


def test_sparse_helpers_make_no_product_with_one():
    ctx = K.make_ctx(3)
    one, z = K.s_one(ctx), K.zeta_power(ctx, 1)
    u, v = {0: one, 2: one}, {1: one, 3: z}
    mult = group_algebra(cyclic_table(2)).lifted(3).mult
    runs = [
        lambda: _axpy(ctx, {0: z}, v, z),
        lambda: _axpy(ctx, {}, u, one),
        lambda: _scale(ctx, v, one),
        lambda: _scale(ctx, u, z),
        lambda: _tensor(ctx, {}, u, v, 4),
        lambda: _tensor_square_mul(ctx, mult, 2, [(1, one), (2, z)], [(3, one)]),
        lambda: _act_blocks(ctx, [{}, {}], [({0: z}, {1: one}), ({1: one}, {})], 2,
                            [(0, 0, [(0, one), (1, z)])]),
    ]
    # each product above has a factor 1, except z*z in the first _axpy
    assert [_s_mul_calls(run)[0] for run in runs] == [1, 0, 0, 0, 0, 0, 0]


# the helpers of exact_math that skip a factor 1 before calling K.s_mul,
# for speed, beside those above; code above exact_math multiplies plainly
_UNIT_SKIPPING = {"_dot", "_table_apply", "_table_mul"}


def test_readme_functor_examples_pass_no_one_to_s_mul(capsys):
    # the README's check-functor and frob-objects examples: the helpers above
    # hand K.s_mul no canonical 1 (raw scalars are canonical, so a product
    # with 1 is the other factor)
    real, calls = K.s_mul, {}

    def spy(ctx, a, b):
        # a comprehension's products are its function's
        frame = sys._getframe(1)
        while frame.f_code.co_name in ("<dictcomp>", "<listcomp>", "<genexpr>"):
            frame = frame.f_back
        caller = frame.f_code.co_name
        if caller in _UNIT_SKIPPING:
            key = (caller, ctx[4] in (a, b))
            calls[key] = calls.get(key, 0) + 1
        return real(ctx, a, b)

    commands = [t[1:] for t in readme_cli_commands() if t[1] in ("check-functor", "frob-objects")]
    assert len(commands) == 2
    with mock.patch.object(K, "s_mul", spy):
        for args in commands:
            assert main(args) == 0, args
    capsys.readouterr()
    assert [key for key in calls if key[1]] == []
    assert sum(calls.values()) > 0


def test_products_of_non_units_call_the_kernel_s_mul():
    z = root_of_unity(3)
    A, B = Matrix.from_rows([[2, 0], [z, 1]]), Matrix.from_rows([[3, z]])
    calls, got = _s_mul_calls(lambda: kron_id(A, 1) * id_kron(2, B))
    assert got == A * Matrix.identity(2).kron(B)
    # 2*3, 2*z, z*3, z*z: the products with 1 are not computed
    assert calls == 4
    Y = Matrix.column([2, z, z, 1])
    calls, got = _s_mul_calls(lambda: id_kron(2, B) * kron_id(Y, 1))
    # 3*2, z*z, 3*z, and z*1 not computed
    assert calls == 3 and got == Matrix.identity(2).kron(B) * Y
    ctx = A.ctx
    out = [{} for _ in range(2)]
    calls, _ = _s_mul_calls(lambda: _kron_act(
        ctx, out, [A.srows], [B.srows], 1, [(0, K.zeta_power(ctx, 2))], 0, 1, 0, 2))
    assert out == [dict(r) for r in A.kron(B).scale(root_of_unity(3, 2)).srows] and calls > 0


def test_identity_factor_product_errors():
    A = Matrix.from_rows([[1, 2]])
    with pytest.raises(ShapeError):
        kron_id(A, 2) * Matrix.identity(3)
    # (A x I_3)(I_3 x B) with A 1x2 and B 2x1 has matching sizes, 6, but the
    # identity factors do not line up
    with pytest.raises(ShapeError):
        kron_id(A, 3) * id_kron(3, Matrix.from_rows([[1], [1]]))
    with pytest.raises(TypeError):
        kron_id(A, 2) * kron_id(Matrix.identity(2), 2)
    with pytest.raises(TypeError):
        kron_id(A, 2) * 3
