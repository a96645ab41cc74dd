from fractions import Fraction
from math import lcm
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfkit import _kernel as K
from hopfkit._kernel import _pykernel
from hopfkit.errors import InconsistentSystemError
from hopfkit.exact_math import (
    Cyclotomic,
    Matrix,
    SparseTensor,
    _axpy,
    _clean,
    _mat_vec,
    _scale,
    _table_mul,
    _tensor,
    format_scalar,
    kron,
    parse_scalar,
    root_of_unity,
    scalar_invert,
    solve_linear,
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


def test_scalar_invert():
    assert scalar_invert(Cyclotomic.rational(2)) == Fraction(1, 2)
    z8 = root_of_unity(8)
    assert scalar_invert(z8) == z8 ** 7
    # (1 + z3)^(-1) = -z3; frozen from the multiply-back oracle
    z3 = root_of_unity(3)
    a = 1 + z3
    inv = scalar_invert(a)
    assert a * inv == 1
    assert inv == -z3


def test_invert_zero_raises():
    with pytest.raises(ZeroDivisionError):
        scalar_invert(Cyclotomic.rational(0))


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


@settings(max_examples=60, deadline=None)
@given(st.lists(_COEFF, min_size=6, max_size=6).filter(any))
def test_s_inv_is_the_inverse_at_every_conductor(fracs):
    # the same coefficients at every conductor, so equal scalar tuples recur
    # across conductors of equal phi
    for N in KERNEL_CONDUCTORS:
        ctx = K.make_ctx(N)
        a = K.s_from_fractions(ctx, fracs[: ctx[1]])
        if K.s_is_zero(a):
            continue
        inv = K.s_inv(ctx, a)
        assert K.s_mul(ctx, a, inv) == K.s_one(ctx)
        assert K.s_inv(ctx, a) == inv


def _reference_product(N, x, y):
    """x*y for coefficient lists of Fractions: the polynomial product, reduced
    modulo the monic Phi_N by long division."""
    prod = [Fraction(0)] * (len(x) + len(y) - 1)
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            prod[i + j] += xi * yj
    cyc = K.cyclotomic_poly(N)
    phi = len(cyc) - 1
    for deg in range(len(prod) - 1, phi - 1, -1):
        c = prod[deg]
        for j in range(phi + 1):
            prod[deg - phi + j] -= c * cyc[j]
    return tuple(prod[:phi])


@settings(max_examples=60, deadline=None)
@given(st.lists(_COEFF, min_size=6, max_size=6), st.lists(_COEFF, min_size=6, max_size=6))
def test_memoized_ring_ops_match_a_reference_at_every_conductor(xs, ys):
    # one example runs every conductor on the same coefficients, so the same
    # operand tuples come back at 3 and 4, and at 5, 8 and 12, where they
    # denote other numbers; each op runs twice, the second time from its memo
    for N in KERNEL_CONDUCTORS:
        ctx = K.make_ctx(N)
        x, y = xs[: ctx[1]], ys[: ctx[1]]
        a, b = K.s_from_fractions(ctx, x), K.s_from_fractions(ctx, y)
        for _ in range(2):
            assert K.s_to_fractions(K.s_mul(ctx, a, b)) == _reference_product(N, x, y)
            assert K.s_to_fractions(K.s_add(ctx, a, b)) == tuple(p + q for p, q in zip(x, y))
            assert K.s_to_fractions(K.s_sub(ctx, a, b)) == tuple(p - q for p, q in zip(x, y))


def test_scalar_memos_stay_within_their_cap():
    # the elimination of a dense 30 x 30 rational inverse stores about 23,600
    # distinct products and as many distinct sums, each far more than one
    # memo may hold
    rng = Random(0)
    A = Matrix.from_rows([[rng.randint(-3, 3) for _ in range(30)] for _ in range(30)])
    assert (A * A.inverse()).is_identity()
    for memo in (_pykernel._mul_memo, _pykernel._add_memo, _pykernel._sub_memo, K._inv_memo):
        assert len(memo) <= _pykernel._MEMO_CAP


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


@pytest.mark.parametrize("text", ["1e999999999", "1e9", "1E3", "1.0", ".5", "1_0", "1/2_0",
                                  "1/-2", "1/ 2", "2.5*z", "1e3*z^1", "z^1_0", "z^1.0", "1*z^ 2"])
def test_parse_scalar_rejects_tokens_outside_the_grammar(text):
    with pytest.raises(ValueError, match="bad token"):
        parse_scalar(text, 4)


def test_solve_identity():
    A = Matrix.identity(3)
    sol = solve_linear(A, Matrix.column([1, 2, 3]))
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
    assert kron(Matrix.identity(2), Matrix.identity(3)) == Matrix.identity(6)
    sw = Matrix.from_rows([[0, 1], [1, 0]])
    K = kron(sw, Matrix.identity(2))
    # e0 x e1 (index 1) maps to e1 x e1 (index 3)
    v = Matrix.column([0, 1, 0, 0])
    assert K * v == Matrix.column([0, 0, 0, 1])


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(-3, 3), min_size=4, max_size=4),
       st.lists(st.integers(-3, 3), min_size=4, max_size=4))
def test_kron_rank_multiplicative(av, bv):
    A = Matrix.from_rows([av[:2], av[2:]])
    B = Matrix.from_rows([bv[:2], bv[2:]])
    assert kron(A, B).rank() == A.rank() * B.rank()


def test_kron_associative():
    i = root_of_unity(4)
    A = Matrix.from_rows([[1, i], [0, 2]])
    B = Matrix.from_rows([[i, 1]])
    C = Matrix.from_rows([[2], [i]])
    assert kron(kron(A, B), C) == kron(A, kron(B, C))


def test_matrix_inverse():
    i = root_of_unity(4)
    B = Matrix.from_rows([[1, 1], [0, i]])
    assert (B.inverse() * B).is_identity()
    singular = Matrix.from_rows([[1, 1], [i, i]])
    assert singular.inverse() is None


def test_sparse_tensor():
    t = SparseTensor((2, 2, 2), {(0, 1, 1): 1, (1, 0, 0): root_of_unity(4)})
    assert t.nnz() == 2
    assert t.get((0, 0, 0)).is_zero()
    t2 = SparseTensor((2, 2, 2), {(1, 0, 0): root_of_unity(4), (0, 1, 1): Fraction(1)})
    assert t == t2


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
    entry = st.one_of(st.just(Cyclotomic.rational(0, N)), _scalar_at(N))
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


def _scalar_at(N):
    """Zero, one or an arbitrary element of Q(zeta_N), zero and one often."""
    phi = {1: 1, 4: 2, 5: 4, 8: 4}[N]
    return st.one_of(
        st.just(Cyclotomic.rational(0, N)),
        st.just(Cyclotomic.rational(1, N)),
        st.lists(st.integers(-3, 3), min_size=phi, max_size=phi).map(
            lambda cs: Cyclotomic.from_coeffs(N, cs)
        ),
    )


@st.composite
def _lincomb_case(draw):
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    conductors = st.sampled_from([1, 4, 8])
    terms = []
    for _ in range(draw(st.integers(0, 4))):
        NM, Nc = draw(conductors), draw(conductors)
        entries = [[draw(_scalar_at(NM)).data for _ in range(cols)] for _ in range(rows)]
        terms.append((Matrix(NM, entries), draw(_scalar_at(Nc))))
    N = lcm(draw(conductors), *(M.N for M, _ in terms), *(c.N for _, c in terms))
    return rows, cols, N, terms


@settings(max_examples=80, deadline=None)
@given(_lincomb_case())
def test_lincomb_equals_fold(case):
    rows, cols, N, terms = case
    fold = Matrix.zeros(rows, cols, N)
    for M, c in terms:
        fold = fold + M.scale(c)
    got = Matrix.lincomb(rows, cols, N, terms)
    # the same canonical entries at the same conductor, so reports keep their bytes
    assert (got.N, got.raw()) == (fold.N, fold.raw())


def test_lincomb_empty_and_conductor_check():
    assert Matrix.lincomb(2, 3, 4, []) == Matrix.zeros(2, 3, 4)
    with pytest.raises(ValueError):
        Matrix.lincomb(1, 1, 4, [(Matrix.from_rows([[root_of_unity(8)]]), 1)])


@st.composite
def _product_case(draw):
    N = draw(st.sampled_from([1, 4, 8]))
    r, n, m = (draw(st.integers(1, 4)) for _ in range(3))
    A = [[draw(_scalar_at(N)) for _ in range(n)] for _ in range(r)]
    B = [[draw(_scalar_at(N)) for _ in range(m)] for _ in range(n)]
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
    scalar = _scalar_at(N)
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
    assert _axpy(ctx, _raw(acc), tuple(_raw(v).items()), c.data) == _reference(N, list(acc.items()) + cv)
    assert _axpy(ctx, {}, {}, c.data) == {}
    assert _scale(ctx, _raw(v), c.data) == _reference(N, cv)
    assert _clean({k: x.data for k, x in acc.items()}) == _reference(N, acc.items())
    dense = [Cyclotomic.rational(0, N)] * 4
    for i, x in u.items():
        dense[i] = x
    assert _clean(enumerate(x.data for x in dense)) == _reference(N, enumerate(dense))

    flat = {i: x for i, x in enumerate(acc.values())}
    outer = [(i * n + j, a * b) for i, a in u.items() for j, b in w.items()]
    assert _tensor(ctx, _raw(flat), _raw(u), _raw(w), n) == _reference(N, list(flat.items()) + outer)

    raw_table = [tuple((k, x.data) for k, x in row.items() if not x.is_zero()) for row in table]
    products = [(k, a * b * s) for i, a in u.items() for j, b in w.items()
                for k, s in table[i * n + j].items()]
    got = _table_mul(ctx, raw_table, n, {i: x.data for i, x in u.items()},
                     {j: x.data for j, x in w.items()})
    assert got == _reference(N, products)

    M = Matrix(N, [[table[i * n + j].get(0, Cyclotomic.rational(0, N)).data for j in range(n)]
                   for i in range(n)])
    assert _mat_vec(M, _raw(u)) == _reference(
        N, [(i, M.entry(i, j) * x) for j, x in u.items() for i in range(n)])


# ---------------------------------------------------------------------------
# the sparse-row layer of Matrix against a dense reference in Cyclotomic
# ---------------------------------------------------------------------------


def _dense_at(N, rows, cols):
    row = st.lists(_scalar_at(N), min_size=cols, max_size=cols)
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
    c = draw(st.one_of(_scalar_at(NB), st.just(Cyclotomic.rational(-1, NB))))
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
    got = Matrix.lincomb(len(A), len(A[0]), N, [(MA, c), (MC, 1), (MA, -c)])
    _assert_matches(got, C, N)

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
    from hopfkit.induction import _module_key
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
    assert _module_key(V) == _module_key(V2)
    assert isinstance(hash(_module_key(V)), int)
