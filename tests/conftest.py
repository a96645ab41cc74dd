import shlex
from pathlib import Path

import pytest
from hypothesis import strategies as st

import hopfkit._kernel as K
from hopfkit.builders import (
    UQSL2_SUBALGEBRAS,
    cyclic_table,
    drinfeld_double,
    generated_inclusion,
    group_algebra,
    kac_paljutkin,
    klein_table,
    small_quantum_sl2,
    taft,
    trivial_hopf,
)
from hopfkit.exact_math import (Cyclotomic, Matrix, RowSpace, _add, _clean, _dense, _dot,
                                root_of_unity)
from hopfkit.extension import HopfInclusion, trivial_inclusion, unit_inclusion
from hopfkit.hopf_core import distinguished_grouplike, subhopf_from_basis
from hopfkit.induction import induction_context
from hopfkit.module_theory import HModule
from hopfkit.yetter_drinfeld import yd_line

_ACCEPTANCE = {}

# The builtin algebras of the CLI catalogue, at the sizes the tests can afford.
CATALOGUE = [
    "builtin:group?table=c2",
    "builtin:group?table=c3",
    "builtin:group?table=c4",
    "builtin:group?table=klein",
    "builtin:h8",
    "builtin:taft?l=2",
    "builtin:taft?l=3",
    "builtin:taft?l=5&q=2",
    "builtin:taft?l=7&q=3",
    "builtin:uqsl2?l=3",
    "builtin:double?of=builtin:group?table=c3",
    "builtin:double?of=builtin:group?table=klein",
    "builtin:double?of=builtin:taft?l=2",
]


@pytest.fixture(scope="session")
def h8_pair():
    return kac_paljutkin()


@pytest.fixture(scope="session")
def h8(h8_pair):
    return h8_pair[0]


@pytest.fixture(scope="session")
def h8_incl(h8_pair):
    return h8_pair[1]


@pytest.fixture(scope="session")
def h8_frob(h8_incl):
    return induction_context(h8_incl)


@pytest.fixture(scope="session")
def taft3():
    return taft(3)


@pytest.fixture(scope="session")
def taft5():
    return taft(5)


@pytest.fixture(scope="session")
def uq3():
    return small_quantum_sl2(3)


@pytest.fixture(scope="session")
def uq5():
    return small_quantum_sl2(5)


def uqsl2_sub(uq, sub):
    """The inclusion of the subalgebra ``sub`` of u_q(sl2) = uq that
    ``builtin:uqsl2?sub=`` names, read from the builders' table."""
    prefix, gens = UQSL2_SUBALGEBRAS[sub]
    return generated_inclusion(uq, gens, prefix + str(uq.N))


def criterion_09_registry(h8_incl, taft3, uq3, uq5):
    """The (name, inclusion) pairs that acceptance criterion 9 cross-checks."""
    registry = []
    H8 = h8_incl.H
    registry.append(("kK<H8", h8_incl))
    registry.append(("k<H8", unit_inclusion(H8, trivial_hopf())))
    registry.append(("H8=H8", trivial_inclusion(H8)))
    KG = group_algebra(klein_table(), name="kK", labels=["1", "x", "y", "xy"])
    sub, embed = subhopf_from_basis(KG, [0, 1], name="kC2")
    registry.append(("kC2<kK", HopfInclusion(sub, KG, embed)))
    registry.append(("kC3<T3", taft3[1]))
    registry.append(("kC2<T2", taft(2)[1]))
    registry.append(("cartan3", uqsl2_sub(uq3, "cartan")))
    registry.append(("borel+3", uqsl2_sub(uq3, "borel+")))
    registry.append(("borel-3", uqsl2_sub(uq3, "borel-")))
    registry.append(("cartan5", uqsl2_sub(uq5, "cartan")))
    registry.append(("borel+5", uqsl2_sub(uq5, "borel+")))
    registry.append(("borel-5", uqsl2_sub(uq5, "borel-")))
    D2, dincl2 = drinfeld_double(group_algebra(cyclic_table(2), name="kC2"))
    registry.append(("kC2<Drin", dincl2))
    D4, dincl4 = drinfeld_double(KG)
    registry.append(("kK<Drin", dincl4))
    return registry


def hkplus_over_a_kplus_basis(incl):
    """The row space of HK+ spanned by h w, h over H's basis and w over the
    null-space basis of eps_K: the span of a basis of K+ = ker eps_K.  The
    rows are added with the column order reversed, c -> n-1-c, as
    ``bar_quotient`` adds them; the RREF is unique for a given order."""
    H, Kk = incl.H, incl.K
    ctx = incl.ctx
    last = H.dim - 1
    eps_space = RowSpace(Kk.dim, ctx)
    eps_space.add(_clean(ctx, enumerate(Kk.counit)))
    sub = RowSpace(H.dim, ctx)
    for w in eps_space.nullspace():
        wimg = incl.embed_vec(w)
        for i in range(H.dim):
            sub.add({last - c: s for c, s in H.mult_vec(H.basis_vec(i), wimg).items()})
    return sub


def integral_type_over_all_of_h(incl):
    """Lambda with lambda(bar(Lambda h)) = eps(h) imposed at every basis
    element h of H: the n x n system, solved as ``Matrix.solve`` solves it,
    or None when it is inconsistent."""
    from hopfkit.errors import InconsistentSystemError
    from hopfkit.extension import _lambda_products, bar_quotient, lift_bar_functional

    H = incl.H
    n = H.dim
    prods = _lambda_products(H, lift_bar_functional(bar_quotient(incl)), range(n), range(n))
    # row j, column t: lambda(bar(h_t h_j))
    A = Matrix.from_sparse(incl.N, n, [prods[t] for t in range(n)]).transpose()
    b = Matrix(incl.N, [[H.counit[j]] for j in range(n)])
    try:
        return A.solve(b).particular
    except InconsistentSystemError:
        return None


def _alpha_h_on_k(incl):
    """The distinguished grouplike alpha_H restricted to K, as the tuple of
    its raw values alpha_H(k_b)."""
    alpha_H = distinguished_grouplike(incl.H)
    return tuple(_dot(incl.ctx, alpha_H, col) for col in incl.embed_cols())


def alpha_criterion(incl):
    """alpha_H restricted to K equals alpha_K: the Frobenius criterion
    through the distinguished grouplikes (Fischman-Montgomery-Schneider),
    which the package decides through chi = eps alone."""
    return _alpha_h_on_k(incl) == distinguished_grouplike(incl.K)


def chi_is_alpha_convolution(incl, chi):
    """chi = (alpha_H|_K) * (alpha_K o S_K), the convolution on K*, at every
    basis element of K, for the raw values chi(k_b)."""
    Kk, ctx = incl.K, incl.ctx
    m = Kk.dim
    on_K = _alpha_h_on_k(incl)
    alpha_K = distinguished_grouplike(Kk)
    alpha_KS = [_dot(ctx, alpha_K, Kk.antipode_vec(Kk.basis_vec(b))) for b in range(m)]
    for b in range(m):
        acc = K.s_zero(ctx)
        for x, s in Kk.comult[b]:
            p, q = divmod(x, m)
            acc = K.s_add(ctx, acc, K.s_mul(ctx, s, K.s_mul(ctx, on_K[p], alpha_KS[q])))
        if acc != chi[b]:
            return False
    return True


def bicomodule_on_every_basis_element(incl, tr_cols):
    """h_(1) x tr(h_(2)) x h_(3) = Delta2(tr h), outer legs embedded, at
    every basis element h of H, for tr given by its column table: tr is a
    map of H-bicomodules.  For the tr of a Frobenius extension this is
    centrality."""
    H, Kk, ctx = incl.H, incl.K, incl.ctx
    n, m = H.dim, Kk.dim
    for i in range(n):
        lhs, rhs = {}, {}
        for (a, b, c), s in H.comult2(i):
            for kb, coeff in tr_cols[b].items():
                _add(ctx, lhs, (a * m + kb) * n + c, K.s_mul(ctx, s, coeff))
        for b, coeff in tr_cols[i].items():
            for (p, q, r), s in Kk.comult2(b):
                for hp, e1 in incl.embed_col(p).items():
                    for hr, e2 in incl.embed_col(r).items():
                        v = K.s_mul(ctx, K.s_mul(ctx, coeff, s), K.s_mul(ctx, e1, e2))
                        _add(ctx, rhs, (hp * m + q) * n + hr, v)
        if lhs != rhs:
            return False
    return True


def scalar_at(N):
    """Zero, one or an arbitrary element of Q(zeta_N), zero and one often."""
    phi = K.euler_phi(N)
    return st.one_of(
        st.just(Cyclotomic.rational(0, N)),
        st.just(Cyclotomic.rational(1, N)),
        st.lists(st.integers(-3, 3), min_size=phi, max_size=phi).map(
            lambda cs: Cyclotomic.from_coeffs(N, cs)
        ),
    )


def fold_sum(rows, cols, N, terms):
    """The sum of c*M over the (M, c) of terms as the fold
    zeros + M.scale(c) + ... at conductor N: the reference for the summed
    actions of ``HModule.act_blocks``."""
    acc = Matrix.zeros(rows, cols, N)
    for M, c in terms:
        acc = acc + M.scale(c)
    return acc


def proportion(ctx, a, b):
    """The raw scalar c with a = c*b for the functionals with the raw values
    a and b over ctx (c may be zero), or None if they are not proportional."""
    c = None
    for x, y in zip(a, b):
        if K.s_is_zero(y):
            if not K.s_is_zero(x):
                return None
            continue
        ratio = K.s_mul(ctx, x, K.s_inv(ctx, y))
        if c is None:
            c = ratio
        elif c != ratio:
            return None
    return K.s_zero(ctx) if c is None else c


def kchar(K, ex, ey, name=None):
    """One-dimensional module over the Klein-four group algebra."""
    return HModule(
        K,
        [Matrix.from_rows([[v]]) for v in [1, ex, ey, ex * ey]],
        name=name or "k(%d,%d)" % (ex, ey),
    )


def kline(K, deg_label, ex, ey, name=None):
    """Graded character line over the Klein-four group algebra, as a YD module."""
    deg = {"1": 0, "x": 1, "y": 2, "xy": 3}[deg_label]
    return yd_line(
        K, deg, [1, ex, ey, ex * ey], name=name or "k^%s(%d,%d)" % (deg_label, ex, ey)
    )


def h8_v1(H8, b):
    """The one-dimensional simple of H8 on which z acts by b (b^4 = 1)."""
    b = root_of_unity(1) * b if isinstance(b, int) else b
    b2 = b * b
    vals = {"1": 1, "x": b2, "y": b2, "z": b, "xy": b2 * b2, "xz": b2 * b, "yz": b2 * b, "xyz": b2 * b2 * b}
    return HModule(H8, [Matrix.from_rows([[vals[l]]]) for l in H8.basis_labels], name="V1(%s)" % b)


def h8_v2(H8):
    """The two-dimensional simple of H8."""
    zM = Matrix.from_rows([[1, 0], [0, -1]])
    xM = Matrix.from_rows([[0, -1], [-1, 0]])
    yM = Matrix.from_rows([[0, 1], [1, 0]])
    acts = {
        "1": Matrix.identity(2),
        "x": xM,
        "y": yM,
        "z": zM,
        "xy": xM * yM,
        "xz": xM * zM,
        "yz": yM * zM,
        "xyz": xM * yM * zM,
    }
    return HModule(H8, [acts[l] for l in H8.basis_labels], name="V2")


def regular_module(K):
    """K as its own left module: e_i acts by left multiplication, so column j
    of its matrix is e_i e_j, read from K.mult."""
    n = K.dim
    mats = []
    for i in range(n):
        rows = [{} for _ in range(n)]
        for j in range(n):
            for k, s in K.mult[i * n + j]:
                rows[k][j] = s
        mats.append(Matrix.from_sparse(K.N, n, rows))
    return HModule(K, mats, name="K")


def readme_cli_commands():
    """The commands of README.md's CLI block, continuation lines joined, each
    split as a POSIX shell splits it, with control operators as tokens."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```", 2)[1]
    commands = []
    for line in block.replace("\\\n", " ").strip().splitlines():
        lexer = shlex.shlex(line, posix=True, punctuation_chars=True)
        lexer.whitespace_split = True
        commands.append(list(lexer))
    return commands


def dense_frobenius(fr):
    """tr as the dim K x dim H Matrix tr_K and the delta_i as dense lists of
    raw scalars, built from the sparse fields of a FrobeniusData: the form in
    which criterion 1 and the Frobenius data pins were recorded."""
    incl = fr.incl
    tr_K = Matrix.from_sparse(incl.N, incl.K.dim, fr.tr).transpose()
    return tr_K, [_dense(incl.ctx, d, incl.H.dim) for d in fr.deltas]


def key_parts(M):
    """``M.key()`` of a Matrix with each raw scalar read as its canonical
    tuple: the form in which the digests of keys were recorded."""
    key = M.key()
    return key[:1] + tuple(tuple((c, K.s_parts(s)) for c, s in row) for row in key[1:])


def record_criterion(number, ok, detail=""):
    _ACCEPTANCE[number] = (ok, detail)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for number in sorted(_ACCEPTANCE):
        ok, detail = _ACCEPTANCE[number]
        status = "PASS" if ok else "FAIL"
        line = "criterion %2d: %s" % (number, status)
        if detail:
            line += "  (%s)" % detail
        terminalreporter.write_line(line)
