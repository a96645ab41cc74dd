import contextlib
import functools
import hashlib
import re
import sys
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hopfkit._kernel as K
from conftest import uqsl2_sub
from hopfkit import hopf_core
from hopfkit.builders import (
    UQSL2_SUBALGEBRAS,
    cyclic_table,
    drinfeld_double,
    group_algebra,
    klein_table,
    small_quantum_sl2,
    taft,
    trivial_hopf,
)
from hopfkit.bundles import parse_hopf, serialize_hopf
from hopfkit.errors import PipelineError, ShapeError
from hopfkit.exact_math import (
    Matrix,
    RowSpace,
    _column,
    _dot,
    _normalize_first_one,
    _scale,
    format_scalar,
    parse_scalar,
    rref_raw,
)
from hopfkit.hopf_core import (
    FinHopf,
    algebra_generators,
    antipode_inverse,
    distinguished_grouplike,
    dual_hopf,
    integral_space,
    is_dual_unimodular,
    is_unimodular,
    right_integral_of_dual,
    subhopf_from_basis,
    verify_hopf,
)
from hopfkit.reports import FAIL, PASS


def test_every_algebra_computes_at_its_own_conductor():
    # a stored context that outlived a change of conductor would compute in
    # the wrong field without any error
    from hopfkit.extension import HopfInclusion
    from hopfkit.module_theory import HModule

    T3 = taft(3)[0]
    algebras = [T3, small_quantum_sl2(3), group_algebra(cyclic_table(2)),
                parse_hopf(serialize_hopf(T3)), T3.lifted(12), dual_hopf(T3),
                subhopf_from_basis(T3, [0, 3, 6])[0], drinfeld_double(T3)[0]]
    assert [H.N for H in algebras] == [3, 3, 1, 3, 12, 3, 3, 3]
    for H in algebras:
        assert H.ctx is K.make_ctx(H.N), H.name
    KG = group_algebra(cyclic_table(2))
    incl = HopfInclusion(KG, T3.lifted(12), Matrix.from_rows([[1, 0]] + [[0, 0]] * 8))
    assert incl.ctx is K.make_ctx(12)
    V = HModule(KG, [Matrix.identity(1), Matrix.identity(1, 4)])
    assert V.ctx is K.make_ctx(4)
    for M in (Matrix.identity(2, 3), Matrix.identity(2, 3).lift(12), Matrix.zeros(1, 1, 5)):
        assert M.ctx is K.make_ctx(M.N)


def test_elimination_and_products_make_no_zero_test_calls(monkeypatch):
    # the sparse helpers find zero and one by comparing with the context's
    # tuples, and a sparse vector stores no zero; a K.s_is_zero call put back
    # into RowSpace, _table_mul, the integral rows or _dot
    # is counted here, in every hopfkit namespace that binds it
    calls = []
    original = K.s_is_zero

    def counted(a):
        calls.append(a)
        return original(a)

    for name, mod in list(sys.modules.items()):
        if (name == "hopfkit" or name.startswith("hopfkit.")) and getattr(mod, "s_is_zero", None) is original:
            monkeypatch.setattr(mod, "s_is_zero", counted)
    uq = small_quantum_sl2(3)
    # a copy with an empty cache, so that nothing is looked up
    H = FinHopf(uq.name, uq.basis_labels, uq.N, uq.mult, uq.unit, uq.comult, uq.counit,
                uq.antipode_cols)
    assert len(algebra_generators(H)) == 3
    assert [len(integral_space(H, side)) for side in ("left", "right")] == [1, 1]
    products = [H.mult_vec(H.basis_vec(i), H.basis_vec(j)) for i in range(H.dim) for j in range(H.dim)]
    assert sum(map(len, products)) > 0
    assert [_dot(H.ctx, H.counit, p) for p in products[:H.dim]] == [H.counit[j] for j in range(H.dim)]
    assert K.s_is_zero(K.s_zero(H.ctx)) and len(calls) == 1


def test_group_algebra_verifies():
    for table, name in ((cyclic_table(2), "kC2"), (cyclic_table(4), "kC4"), (klein_table(), "kK")):
        H = group_algebra(table, name=name)
        assert verify_hopf(H).ok


def test_h8_verifies(h8):
    rep = verify_hopf(h8)
    assert rep.ok, rep.failures()


def test_h8_broken_antipode_fails_at_z(h8):
    # H8's raw tables with the identity in place of the antipode
    identity = tuple(((j, K.s_one(h8.ctx)),) for j in range(8))
    broken = FinHopf("H8-broken", h8.basis_labels, h8.N, h8.mult, h8.unit, h8.comult, h8.counit,
                     identity)
    rep = verify_hopf(broken)
    assert not rep.ok
    # first witness is the basis element z (index 3): grouplikes 1, x, y pass
    fails = {c.name: c.witness for c in rep.failures()}
    assert fails.get("antipode-left") == 3 or fails.get("antipode-right") == 3


def test_antipode_inverse(h8, taft3, uq3):
    for H in (h8, taft3[0], uq3):
        Sinv = antipode_inverse(H)
        assert (Sinv * H.antipode_matrix()).is_identity()
    # group algebras and H8 are involutory
    assert antipode_inverse(h8) == h8.antipode_matrix()


def test_dual_hopf_is_hopf(h8, taft3, uq3):
    for H in (h8, taft3[0], uq3):
        assert verify_hopf(dual_hopf(H)).ok


def test_dual_is_involution(h8):
    dd = dual_hopf(dual_hopf(h8))
    assert dd.mult == h8.mult
    assert dd.comult == h8.comult
    assert dd.unit == h8.unit
    assert dd.counit == h8.counit
    assert dd.antipode_cols == h8.antipode_cols


def test_dual_of_cyclic_group_selfdual():
    C2 = group_algebra(cyclic_table(2), name="kC2").lifted(2)
    D = dual_hopf(C2)
    assert verify_hopf(D).ok
    # the character basis (1,1), (1,-1) identifies kC2* with kC2
    P = Matrix.from_rows([[1, 1], [1, -1]])
    Pinv = P.inverse()
    # transported multiplication tensor of D equals that of C2
    for i in range(2):
        for j in range(2):
            vi = P.col_raw(i)
            vj = P.col_raw(j)
            prod = D.mult_vec({0: vi[0], 1: vi[1]}, {0: vj[0], 1: vj[1]})
            col = Matrix(D.N, [[prod.get(0, K.s_zero(D.ctx))], [prod.get(1, K.s_zero(D.ctx))]])
            back = Pinv * col
            expect = C2.mult_vec(C2.basis_vec(i), C2.basis_vec(j))
            back_raw = back.raw()
            got = {r: back_raw[r][0] for r in range(2) if not K.s_is_zero(back_raw[r][0])}
            assert got == expect
    assert is_unimodular(D) and is_dual_unimodular(D)


def test_group_algebra_integral():
    for table in (cyclic_table(3), klein_table()):
        H = group_algebra(table)
        for side in ("left", "right"):
            basis = integral_space(H, side)
            assert len(basis) == 1
            # Lambda = sum of all group elements, first coefficient normalized
            assert all(basis[0].entry(i, 0) == 1 for i in range(H.dim))


def test_h8_integrals(h8):
    left = integral_space(h8, "left")
    right = integral_space(h8, "right")
    assert len(left) == 1 and len(right) == 1
    assert is_unimodular(h8)
    assert is_dual_unimodular(h8)


def test_unimodular_iff_alpha_is_counit(h8, taft3, uq3):
    for H in (h8, taft3[0], uq3):
        alpha = distinguished_grouplike(H)
        assert is_unimodular(H) == (alpha == H.counit)


def test_taft_not_unimodular(taft3):
    T, _ = taft3
    assert not is_unimodular(T)
    alpha = distinguished_grouplike(T)
    assert alpha != T.counit
    # independent oracle: a * Lambda = alpha(a) Lambda for every basis element
    Lam = integral_space(T, "right")[0]
    lam_raw = Lam.raw()
    lam_vec = {i: lam_raw[i][0] for i in range(T.dim) if not K.s_is_zero(lam_raw[i][0])}
    for a in range(T.dim):
        w = {i: v for i, v in T.mult_vec(T.basis_vec(a), lam_vec).items() if not K.s_is_zero(v)}
        scaled = {}
        for i, s in lam_vec.items():
            v = K.s_mul(T.ctx, alpha[a], s)
            if not K.s_is_zero(v):
                scaled[i] = v
        assert w == scaled


def test_dual_right_integral(h8):
    lam = right_integral_of_dual(h8)
    # lambda(h_(1)) h_(2) = lambda(h) 1 was the defining system; spot-check h = 1
    assert _dot(h8.ctx, lam, h8.unit_vec()) == lam[0]


def test_subhopf_closure_error(h8):
    with pytest.raises(Exception):
        subhopf_from_basis(h8, [0, 3])  # 1, z do not span a subalgebra (z^2 leaves)


def test_uq3_unimodular_dual_not(uq3):
    u = uq3
    assert is_unimodular(u)
    assert not is_dual_unimodular(u)


def _word_span_rank(H, gens):
    """Rank of the span of all words in gens (1 included), level by level."""
    space = RowSpace(H.dim, H.ctx)
    level = [H.unit_vec()]
    space.add(level[0])
    while level:
        level = [w for w in (H.mult_vec(v, H.basis_vec(g)) for v in level for g in gens) if space.add(w)]
    return space.rank


def _reference_generators(H):
    """G as the span closure found it before generators were read off the
    table: every spanning vector of span{1, e_g} is multiplied by every
    generator and reduced in one RowSpace, until the span is closed."""
    space = RowSpace(H.dim, H.ctx)
    spanning = []
    pending = []
    gens = []

    def grow(vec):
        if space.add(vec):
            spanning.append(vec)
            pending.extend((vec, g) for g in gens)

    grow(H.unit_vec())
    for i in range(H.dim):
        if space.rank == H.dim:
            break
        if not space.contains(H.basis_vec(i)):
            gens.append(i)
            pending.extend((vec, i) for vec in spanning)
            grow(H.basis_vec(i))
            while pending and space.rank < H.dim:
                vec, g = pending.pop()
                grow(H.mult_vec(vec, H.basis_vec(g)))
    return tuple(gens)


# G of each algebra beyond GENERATORS, by the labels of its basis, as the
# span closure found it
MORE_GENERATORS = {
    "builtin:double?of=builtin:taft?l=3": (
        "d:1|1", "d:1|x", "d:1|x^2", "d:1|g", "d:x|1", "d:x^2|1", "d:g|1", "d:g|x", "d:g|x^2",
        "d:g|g", "d:gx|1", "d:gx^2|1", "d:g^2|x", "d:g^2|g", "d:g^2x|1"),
    "dual:builtin:taft?l=3": ("d:1", "d:x", "d:x^2", "d:g", "d:gx", "d:gx^2", "d:g^2x"),
    "dual:builtin:taft?l=5": (
        "d:1", "d:x", "d:x^2", "d:x^3", "d:x^4", "d:g", "d:gx", "d:gx^2", "d:gx^3", "d:gx^4",
        "d:g^2", "d:g^2x", "d:g^2x^2", "d:g^2x^3", "d:g^3", "d:g^3x", "d:g^3x^2", "d:g^4x"),
    "dual:builtin:uqsl2?l=5": (
        "d:1", "d:e", "d:e^2", "d:e^3", "d:e^4", "d:k", "d:ke", "d:ke^2", "d:ke^3", "d:ke^4",
        "d:k^2", "d:k^2e", "d:k^2e^2", "d:k^2e^3", "d:k^3", "d:k^3e", "d:k^3e^2", "d:k^4e",
        "d:f", "d:fk", "d:fk^2", "d:fk^3", "d:fk^4"),
}
for _l in (3, 5):
    MORE_GENERATORS.update({"builtin:uqsl2?l=%d&sub=cartan" % _l: ("k",),
                            "builtin:uqsl2?l=%d&sub=borel-" % _l: ("k", "f"),
                            "builtin:uqsl2?l=%d&sub=borel+" % _l: ("e", "k")})


def _resolve(spec):
    """The algebra a GENERATORS or MORE_GENERATORS key names: a builtin, the
    subalgebra of an inclusion spec, or ``dual:`` and a builtin."""
    from hopfkit.cli import resolve_hopf, resolve_inclusion

    if spec.startswith("dual:"):
        return dual_hopf(resolve_hopf(spec[5:]))
    return resolve_inclusion(spec).K if "sub=" in spec else resolve_hopf(spec)


def test_generators_span_every_builtin(h8, taft3, uq3):
    algebras = [h8, taft3[0], uq3, taft(2)[0], dual_hopf(h8), dual_hopf(uq3)]
    for table in (cyclic_table(2), cyclic_table(3), cyclic_table(4), klein_table()):
        algebras.append(group_algebra(table))
    for base in (group_algebra(cyclic_table(2)), group_algebra(klein_table()), taft(2)[0], h8):
        algebras.append(drinfeld_double(base)[0])
    for H in algebras:
        gens = algebra_generators(H)
        assert _word_span_rank(H, gens) == H.dim, H.name
    assert [h8.basis_labels[i] for i in algebra_generators(h8)] == ["x", "y", "z"]
    assert [uq3.basis_labels[i] for i in algebra_generators(uq3)] == ["e", "k", "f"]
    assert len(algebra_generators(taft3[0])) == 2
    assert algebra_generators(algebras[-1]) == GENERATORS["builtin:double?of=builtin:h8"][0]
    for spec, labels in MORE_GENERATORS.items():
        H = _resolve(spec)
        gens = algebra_generators(H)
        assert tuple(H.basis_labels[i] for i in gens) == labels, spec
        assert _word_span_rank(H, gens) == H.dim, spec


# G of each catalogue algebra, and the products v e_g that algebra_generators
# forms: one per vector v of the span and generator g where v still has two
# or more entries outside the reached basis indices
GENERATORS = {
    "builtin:group?table=c2": ((1,), 0),
    "builtin:group?table=c3": ((1,), 0),
    "builtin:group?table=c4": ((1,), 0),
    "builtin:group?table=klein": ((1, 2), 0),
    "builtin:h8": ((1, 2, 3), 0),
    "builtin:taft?l=2": ((1, 2), 0),
    "builtin:taft?l=3": ((1, 3), 0),
    "builtin:taft?l=5&q=2": ((1, 5), 0),
    "builtin:taft?l=7&q=3": ((1, 7), 0),
    "builtin:uqsl2?l=3": ((1, 3, 9), 0),
    "builtin:uqsl2?l=5": ((1, 5, 25), 0),
    "builtin:double?of=builtin:group?table=c3": ((0, 1, 3, 4, 7), 2),
    "builtin:double?of=builtin:group?table=klein": ((0, 1, 2, 4, 5, 6, 8, 9, 10, 13, 14), 6),
    "builtin:double?of=builtin:taft?l=2": ((0, 1, 2, 4, 9, 10, 12), 0),
    "builtin:double?of=builtin:h8": ((0, 1, 2, 3, 8, 9, 10, 11, 16, 17, 18, 19, 24, 25, 26, 27,
                                      32, 33, 34, 35, 40), 20),
}


def _counted_generators(H):
    """(algebra_generators(H), the number of products it formed)."""
    with mock.patch.object(FinHopf, "mult_vec", autospec=True, side_effect=FinHopf.mult_vec) as product:
        return algebra_generators(H), product.call_count


@pytest.mark.parametrize("spec", sorted(GENERATORS))
def test_generators_are_read_off_the_table(spec):
    from hopfkit.cli import resolve_hopf

    H = resolve_hopf(spec)
    H._cache.pop(("algebra_generators",), None)
    assert _counted_generators(H) == GENERATORS[spec]
    # a bundle of the same tables gets the same G by the same products
    assert _counted_generators(parse_hopf(serialize_hopf(H))) == GENERATORS[spec]


@pytest.mark.parametrize("spec", sorted(GENERATORS) + sorted(MORE_GENERATORS))
def test_generators_of_every_pinned_algebra_match_the_span_closure(spec):
    H = _resolve(spec)
    H._cache.pop(("algebra_generators",), None)
    assert algebra_generators(H) == _reference_generators(H)


def _with_mult(H, mult, unit=None):
    """H's tables, with mult (and unit, when given) replaced."""
    return FinHopf(H.name, H.basis_labels, H.N, mult, H.unit if unit is None else unit, H.comult,
                   H.counit, H.antipode_cols)


def test_a_row_with_two_unreached_terms_is_closed_as_a_vector(taft3):
    T = taft3[0]
    n, ctx = T.dim, T.ctx
    x = T.label_index("x")
    # x x = x^2 gains a term at g^2 x^2: x^2 is no longer read off one
    # row, and the vector x^2 + g^2 x^2 is multiplied by the generators
    mult = list(T.mult)
    mult[x * n + x] += ((T.label_index("g^2x^2"), K.s_one(ctx)),)
    H = _with_mult(T, tuple(mult))
    gens, products = _counted_generators(H)
    assert gens == _reference_generators(H) and products > 0
    assert _word_span_rank(H, gens) == H.dim


def test_a_generator_that_reaches_a_subalgebra_leaves_the_rest_to_take(taft3):
    # every row g e_r of T3 is one term, and g e_r runs through all nine
    # basis elements; but from 1, g reaches only kC3 = span{1, g, g^2}, so
    # x must still be taken
    T = taft3[0]
    n = T.dim
    g, x = T.label_index("g"), T.label_index("x")
    assert sorted(T.mult[g * n + r][0][0] for r in range(n)) == list(range(n))
    assert _word_span_rank(T, [g]) == 3
    H = _with_mult(T, T.mult)
    assert _counted_generators(H) == ((x, g), 0)


def test_a_basis_element_in_the_span_of_vectors_is_neither_taken_nor_dropped():
    # e_0 = 1, e_1 e_1 = e_2 + e_3, e_2 e_1 = e_2, e_3 e_1 = -e_3, e_4 e_4 = e_4
    # and e_2 e_4 = e_5: from 1 and e_1 the vector e_2 + e_3 and then
    # e_2 - e_3 reach e_3 by a table row, and e_2 only as a combination of
    # them, so e_2 is no generator, and e_2 e_4 = e_5 is still formed once
    # e_4 is taken
    n, ctx = 6, K.make_ctx(1)
    one = K.s_one(ctx)
    rows = {(1, 1): {2: 1, 3: 1}, (2, 1): {2: 1}, (3, 1): {3: -1}, (4, 4): {4: 1}, (2, 4): {5: 1}}
    rows.update({(0, j): {j: 1} for j in range(n)})
    rows.update({(i, 0): {i: 1} for i in range(n)})
    mult = tuple(tuple((k, K.s_from_ratio(ctx, c)) for k, c in sorted(rows.get((i, j), {}).items()))
                 for i in range(n) for j in range(n))
    H = FinHopf("span-of-vectors", ["e%d" % i for i in range(n)], 1, mult,
                (one,) + (K.s_zero(ctx),) * (n - 1), tuple(((i * n + i, one),) for i in range(n)),
                (one,) * n, tuple(((j, one),) for j in range(n)))
    assert _counted_generators(H) == ((1, 4), 1)
    assert _reference_generators(H) == (1, 4)


def _conjugated(H, entries, lower=False):
    """H's product and unit in the basis f_j = e_j + sum P[i][j] e_i over the
    (i, j, P[i][j]) in entries with i < j (i > j when lower): P is
    unitriangular, so P^-1 m (P x P) is an integer table, whose rows are
    dense where P is."""
    n, ctx = H.dim, H.ctx
    cols = [{j: K.s_one(ctx)} for j in range(n)]
    for i, j, c in entries:
        if (i > j if lower else i < j) and c:
            cols[j][i] = K.s_from_ratio(ctx, c)

    def back(vec):
        # the coordinates in f of a vector given in e: solve P y = vec,
        # from the last column of an upper P and the first of a lower one
        dense = [vec.get(k, K.s_zero(ctx)) for k in range(n)]
        for j in range(n) if lower else range(n - 1, -1, -1):
            for i, c in cols[j].items():
                if i != j:
                    dense[i] = K.s_sub(ctx, dense[i], K.s_mul(ctx, c, dense[j]))
        return tuple((k, s) for k, s in enumerate(dense) if not K.s_is_zero(s))

    mult = tuple(back(H.mult_vec(cols[a], cols[b])) for a in range(n) for b in range(n))
    unit = dict(back(H.unit_vec()))
    return _with_mult(H, mult, tuple(unit.get(k, K.s_zero(ctx)) for k in range(n)))


_CONJUGATED = ["builtin:h8", "builtin:taft?l=3", "builtin:uqsl2?l=3",
               "builtin:double?of=builtin:group?table=c3"]


@settings(max_examples=40, deadline=None)
@given(spec=st.sampled_from(_CONJUGATED),
       entries=st.lists(st.tuples(st.integers(0, 26), st.integers(0, 26), st.integers(-2, 2)),
                        min_size=1, max_size=60))
def test_generators_of_a_conjugated_table_match_the_span_closure(spec, entries):
    from hopfkit.cli import resolve_hopf

    base = resolve_hopf(spec)
    entries = [(i, j, c) for i, j, c in entries if max(i, j) < base.dim]
    # by an upper and then a lower unitriangular P
    H = _conjugated(_conjugated(base, entries), entries, lower=True)
    gens = algebra_generators(H)
    assert gens == _reference_generators(H)
    assert _word_span_rank(H, gens) == H.dim


@functools.lru_cache(maxsize=None)
def _catalogue_bundle(spec):
    from hopfkit.cli import resolve_hopf

    return parse_hopf(serialize_hopf(resolve_hopf(spec)))


@settings(max_examples=60, deadline=None)
@given(spec=st.sampled_from(sorted(GENERATORS)), pick=st.integers(0, 10 ** 6))
def test_generators_of_a_table_with_one_entry_doubled_match_the_span_closure(spec, pick):
    base = _catalogue_bundle(spec)
    ctx = base.ctx
    entries = [(r, t) for r, row in enumerate(base.mult) for t in range(len(row))]
    r, t = entries[pick % len(entries)]
    mult = list(base.mult)
    k, s = mult[r][t]
    mult[r] = mult[r][:t] + ((k, K.s_add(ctx, s, s)),) + mult[r][t + 1:]
    H = _with_mult(base, tuple(mult))
    assert algebra_generators(H) == _reference_generators(H)


def _alpha_on_every_basis_element(H):
    """alpha as read before it was read off the integral's pivot: e_a Lambda
    formed and checked proportional to Lambda for every basis element."""
    lam = integral_space(H, "right")[0].col(0)
    pivot = min(lam)
    values = []
    for a in range(H.dim):
        w = H.mult_vec(H.basis_vec(a), lam)
        values.append(w.get(pivot, K.s_zero(H.ctx)))
        assert w == _scale(H.ctx, lam, values[-1])
    return tuple(values)


def _unimodular_by_both_integral_spaces(H):
    """is_unimodular as decided before it read one integral: the spaces of
    left and right integrals compared."""
    left, right = integral_space(H, "left"), integral_space(H, "right")
    space = rref_raw([v.col(0) for v in right], H.dim, H.ctx)
    return len(left) == len(right) and all(space.contains(v.col(0)) for v in left)


@pytest.mark.parametrize("spec", sorted(GENERATORS) + ["builtin:uqsl2?l=7"] + [
    "builtin:uqsl2?l=%d&sub=%s" % (l, sub) for l in (3, 5, 7) for sub in UQSL2_SUBALGEBRAS])
def test_alpha_and_unimodularity_match_the_full_computations(spec):
    from hopfkit.cli import resolve_hopf, resolve_inclusion

    H = resolve_inclusion(spec).K if "sub=" in spec else resolve_hopf(spec)
    alpha = distinguished_grouplike(H)
    assert alpha == _alpha_on_every_basis_element(H)
    assert is_unimodular(H) == _unimodular_by_both_integral_spaces(H) == (alpha == H.counit)


def _bump(entries, key, delta, ctx):
    """A sparse row with delta added at key."""
    row = dict(entries)
    row[key] = K.s_add(ctx, row.get(key, K.s_zero(ctx)), delta)
    return tuple(sorted((k, v) for k, v in row.items() if not K.s_is_zero(v)))


def _perturb(H, section, row, key, c):
    """H with c added to one MULT, COMULT or ANTIPODE entry, or to one UNIT or
    COUNIT coordinate; section "MULT-EMPTY" empties one nonempty MULT row."""
    n = H.dim
    ctx = H.ctx
    delta = K.s_from_ratio(ctx, c)
    mult, comult, unit, counit = list(H.mult), list(H.comult), list(H.unit), list(H.counit)
    cols = list(H.antipode_cols)
    if section == "MULT-EMPTY":
        full = [r for r, terms in enumerate(mult) if terms]
        mult[full[row % len(full)]] = ()
    elif section == "MULT":
        mult[row % (n * n)] = _bump(mult[row % (n * n)], key % n, delta, ctx)
    elif section == "COMULT":
        comult[row % n] = _bump(comult[row % n], key % (n * n), delta, ctx)
    elif section == "ANTIPODE":
        cols[row % n] = _bump(cols[row % n], key % n, delta, ctx)
    elif section == "COUNIT":
        counit[row % n] = K.s_add(ctx, counit[row % n], delta)
    else:
        unit[row % n] = K.s_add(ctx, unit[row % n], delta)
    return FinHopf(H.name + "~", H.basis_labels, H.N, tuple(mult), tuple(unit), tuple(comult),
                   tuple(counit), tuple(cols), convention=H.convention)


# T5's table is monomial with empty rows: each row holds one term or none, so
# the scans' one-term short path meets defects, and so does its fall-through
# once MULT gives a row a second term or MULT-EMPTY empties one
SCANNED = ["h8", "taft3", "uq3", "taft5"]
PERTURBED = ["MULT", "MULT-EMPTY", "COMULT", "ANTIPODE", "UNIT", "COUNIT"]


@settings(max_examples=40, deadline=None)
@given(
    which=st.sampled_from(SCANNED),
    section=st.sampled_from(PERTURBED),
    row=st.integers(0, 10 ** 6),
    key=st.integers(0, 10 ** 6),
    c=st.sampled_from([-1, 1, 2]),
)
def test_reduced_scans_match_full_scans(h8, taft3, uq3, taft5, which, section, row, key, c):
    H = _perturb({"h8": h8, "taft3": taft3[0], "uq3": uq3, "taft5": taft5[0]}[which],
                 section, row, key, c)
    reduced = verify_hopf(H).as_dict()
    with mock.patch.object(hopf_core, "algebra_generators", lambda H: None):
        full = verify_hopf(H).as_dict()
    assert reduced == full


def _ref_defect(ctx, lhs, rhs):
    """Whether the sums of the (key, scalar) terms lhs and rhs differ: their
    difference is formed and each coordinate tested for zero."""
    diff = {}
    for k, s in lhs:
        diff[k] = K.s_add(ctx, diff.get(k, K.s_zero(ctx)), s)
    for k, s in rhs:
        diff[k] = K.s_sub(ctx, diff.get(k, K.s_zero(ctx)), s)
    return not all(K.s_is_zero(v) for v in diff.values())


def _ref_mul(ctx, *xs):
    return functools.reduce(lambda a, b: K.s_mul(ctx, a, b), xs)


def _ref_assoc(n, mult, ctx, mids=None):
    for a in range(n):
        for b in range(n) if mids is None else mids:
            for c in range(n):
                lhs = [(m, _ref_mul(ctx, s, t)) for k, s in mult[a * n + b] for m, t in mult[k * n + c]]
                rhs = [(p, _ref_mul(ctx, t, u)) for m, t in mult[b * n + c] for p, u in mult[a * n + m]]
                if _ref_defect(ctx, lhs, rhs):
                    return (a, b, c)
    return None


def _ref_bialg(n, mult, comult, ctx, lefts=None):
    for a in range(n) if lefts is None else lefts:
        for b in range(n):
            lhs = [(p * n + q, _ref_mul(ctx, s1, s2, u, v))
                   for x1, s1 in comult[a] for x2, s2 in comult[b]
                   for p, u in mult[(x1 // n) * n + x2 // n] for q, v in mult[(x1 % n) * n + x2 % n]]
            rhs = [(x, _ref_mul(ctx, s, t)) for k, s in mult[a * n + b] for x, t in comult[k]]
            if _ref_defect(ctx, lhs, rhs):
                return (a, b)
    return None


def _ref_coassoc(n, comult, ctx, indices=None):
    for i in range(n) if indices is None else indices:
        lhs = [(y * n + x % n, _ref_mul(ctx, s, t)) for x, s in comult[i] for y, t in comult[x // n]]
        rhs = [((x // n) * n * n + y, _ref_mul(ctx, s, t)) for x, s in comult[i] for y, t in comult[x % n]]
        if _ref_defect(ctx, lhs, rhs):
            return i
    return None


def _ref_antipode(n, mult, comult, antipode_cols, unit, counit, ctx, indices=None):
    sides = []
    for side in ("left", "right"):
        for i in range(n) if indices is None else indices:
            eps = [(m, _ref_mul(ctx, counit[i], u)) for m, u in enumerate(unit)]
            terms = []
            for x, s in comult[i]:
                j, k = divmod(x, n)
                for p, u in antipode_cols[j if side == "left" else k]:
                    row = mult[p * n + k] if side == "left" else mult[j * n + p]
                    terms += [(q, _ref_mul(ctx, s, u, v)) for q, v in row]
            if _ref_defect(ctx, terms, eps):
                sides.append(i)
                break
        else:
            sides.append(None)
    return tuple(sides)


def _ref_antimult(n, mult, antipode_cols, ctx, lefts=None):
    for a in range(n) if lefts is None else lefts:
        for b in range(n):
            lhs = [(p, _ref_mul(ctx, s, u)) for k, s in mult[a * n + b] for p, u in antipode_cols[k]]
            rhs = [(r, _ref_mul(ctx, u, v, w)) for p, u in antipode_cols[b] for q, v in antipode_cols[a]
                   for r, w in mult[p * n + q]]
            if _ref_defect(ctx, lhs, rhs):
                return (a, b)
    return None


@settings(max_examples=40, deadline=None)
@given(
    which=st.sampled_from(SCANNED),
    section=st.sampled_from(PERTURBED),
    row=st.integers(0, 10 ** 6),
    key=st.integers(0, 10 ** 6),
    c=st.sampled_from([-1, 1, 2]),
)
def test_scans_match_subtract_and_zero_test_references(h8, taft3, uq3, taft5, which, section,
                                                       row, key, c):
    # the kernel scans compare two canonical sums; the references form the
    # difference and test every coordinate for zero, and must find the same
    # witness, None included
    base = {"h8": h8, "taft3": taft3[0], "uq3": uq3, "taft5": taft5[0]}[which]
    H = _perturb(base, section, row, key, c)
    n, ctx, G = H.dim, H.ctx, algebra_generators(base)
    for restrict in (None, G):
        assert K.assoc_first_defect(n, H.mult, ctx, restrict) == _ref_assoc(n, H.mult, ctx, restrict)
        assert (K.bialg_first_defect(n, H.mult, H.comult, ctx, restrict)
                == _ref_bialg(n, H.mult, H.comult, ctx, restrict))
        assert (K.antimult_first_defect(n, H.mult, H.antipode_cols, ctx, restrict)
                == _ref_antimult(n, H.mult, H.antipode_cols, ctx, restrict))
        assert (K.coassoc_first_defect(n, H.comult, ctx, restrict)
                == _ref_coassoc(n, H.comult, ctx, restrict))
        args = (n, H.mult, H.comult, H.antipode_cols, H.unit, H.counit, ctx, restrict)
        assert K.antipode_first_defects(*args) == _ref_antipode(*args)


def test_one_term_rows_meet_defects_on_the_short_path_and_past_it(taft5):
    # every row of T5's table holds one term or none.  A one-term row scaled
    # is found where the scan compares two one-term products directly; a
    # term moved to another index, a row emptied and a second term added are
    # found past the short path, where the sums are compared key by key
    H = taft5[0]
    n, ctx, G = H.dim, H.ctx, algebra_generators(H)
    two = K.s_from_ratio(ctx, 2)
    rows = [r for r, terms in enumerate(H.mult) if terms][1::40]
    assert len(rows) == 10 and all(len(H.mult[r]) == 1 for r in rows)
    compare = K._differ
    for kind in ("scale", "move", "empty", "second term"):
        for r in rows:
            (k, s), = H.mult[r]
            mult = list(H.mult)
            mult[r] = {"scale": ((k, K.s_mul(ctx, two, s)),), "move": (((k + 1) % n, s),),
                       "empty": (), "second term": tuple(sorted([(k, s), ((k + 1) % n, s)]))}[kind]
            decided = []

            def spy(lhs, rhs, zero):
                decided.append(compare(lhs, rhs, zero))
                return decided[-1]

            with mock.patch.object(K, "_differ", spy):
                w = K.assoc_first_defect(n, mult, ctx)
            assert w is not None and w == _ref_assoc(n, mult, ctx), (kind, r)
            assert (True in decided) == (kind != "scale"), (kind, r)
            assert K.assoc_first_defect(n, mult, ctx, G) == _ref_assoc(n, mult, ctx, G)


def _table(ctx, n, rows):
    """n*n MULT rows, empty but for rows {(a, b): {k: integer scalar}}."""
    return [tuple(sorted((k, K.s_from_ratio(ctx, v)) for k, v in rows.get(divmod(r, n), {}).items()))
            for r in range(n * n)]


@pytest.mark.parametrize("rows, witness", [
    # e0*e1 = 0 and e1*e2 = e1 + e2: the side e0*(e1*e2) reads the empty
    # row (0, 1) first and the row (0, 2) = e0 after it
    ({(0, 2): {0: 1}, (1, 2): {1: 1, 2: 1}}, (0, 1, 2)),
    # e0*e1 = 0 and e0*e0 = e1 + e2: the side (e0*e0)*e1 reads the empty
    # row (1, 1) first and the row (2, 1) = e2 after it
    ({(0, 0): {1: 1, 2: 1}, (2, 1): {2: 1}}, (0, 0, 1)),
])
def test_a_zero_product_holds_only_while_every_row_the_other_side_reads_is_empty(rows, witness):
    # every triple before the witness has both products zero or reads only
    # empty rows; at the witness one product is zero and the other side
    # reads one nonempty row, after an empty one
    ctx = K.make_ctx(1)
    mult = _table(ctx, 3, rows)
    for mids in (None, [witness[1]]):
        assert K.assoc_first_defect(3, mult, ctx, mids) == _ref_assoc(3, mult, ctx, mids) == witness


@settings(max_examples=150, deadline=None)
@given(rows=st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                            st.dictionaries(st.integers(0, 2), st.sampled_from([1, -1]),
                                            min_size=1, max_size=2), max_size=9),
       mids=st.none() | st.lists(st.integers(0, 2), min_size=1, max_size=3, unique=True))
def test_assoc_scan_of_small_tables_matches_the_reference(rows, mids):
    # tables of rows with up to two terms, most of them not associative, meet
    # every path of the scan: products zero, one-term and longer
    ctx = K.make_ctx(1)
    mult = _table(ctx, 3, rows)
    assert K.assoc_first_defect(3, mult, ctx, mids) == _ref_assoc(3, mult, ctx, mids)


def test_scans_on_h8_compare_cancelled_sums_key_by_key(h8):
    # on H8 a sum that cancels leaves a zero key on one side only, so the
    # two dicts differ and the key-by-key comparison must decide; deciding
    # on the dicts alone reports defects in a Hopf algebra
    decided = []
    compare = K._differ

    def spy(lhs, rhs, zero):
        decided.append(compare(lhs, rhs, zero))
        return decided[-1]

    with mock.patch.object(K, "_differ", spy):
        assert verify_hopf(h8).ok
    assert decided and not any(decided)


def test_scans_call_the_scalar_operations_bound_in_the_kernel(h8):
    # the benchmark counts scalar calls by rebinding s_mul and s_add in
    # hopfkit._kernel; the scans must call them through those names, or
    # their products and sums go uncounted
    calls = {"s_mul": 0, "s_add": 0}

    def counted(name):
        original = getattr(K, name)

        def wrapper(ctx, a, b):
            calls[name] += 1
            return original(ctx, a, b)
        return wrapper

    n, ctx = h8.dim, h8.ctx
    with mock.patch.object(K, "s_mul", counted("s_mul")), \
            mock.patch.object(K, "s_add", counted("s_add")):
        assert K.assoc_first_defect(n, h8.mult, ctx) is None
        assert K.bialg_first_defect(n, h8.mult, h8.comult, ctx) is None
        assert K.coassoc_first_defect(n, h8.comult, ctx) is None
    assert calls["s_mul"] > 0 and calls["s_add"] > 0, calls


def test_out_of_range_antipode_index_is_a_shape_error():
    one = K.s_one(K.make_ctx(1))
    H = group_algebra(cyclic_table(3))
    cols = list(H.antipode_cols)
    cols[1] = ((3, one),)
    bad = FinHopf(H.name, H.basis_labels, H.N, H.mult, H.unit, H.comult, H.counit, tuple(cols))
    with pytest.raises(ShapeError, match="antipode output index 3 out of range"):
        verify_hopf(bad)


def _edited_bundle(H, section, entry, scalar):
    """H read back from its bundle with one entry line of a section given a
    new scalar."""
    lines = serialize_hopf(H).splitlines()
    at = lines.index(entry, lines.index("BEGIN " + section))
    lines[at] = "%s %s" % (entry.rsplit(" ", 1)[0], scalar)
    return parse_hopf("\n".join(lines) + "\n")


def _counit_scans(H):
    """verify_hopf's report on H and the lefts of each counit scan it ran
    (None for a full scan)."""
    with mock.patch.object(hopf_core, "_counit_defect", wraps=hopf_core._counit_defect) as scan:
        rep = verify_hopf(H)
    return rep, [call.args[1] if len(call.args) > 1 else None for call in scan.call_args_list]


def _counit_entries(H):
    return ["%d 1" % i for i in range(H.dim) if H.counit[i] == K.s_one(H.ctx)]


@pytest.mark.parametrize("which", ["h8", "taft3", "uq3"])
def test_doubled_counit_entry_fails_with_the_full_scan_witness(h8, taft3, uq3, which):
    base = {"h8": h8, "taft3": taft3[0], "uq3": uq3}[which]
    for entry in _counit_entries(base):
        H = _edited_bundle(base, "COUNIT", entry, "2")
        rep, scans = _counit_scans(H)
        check = rep["counit-multiplicative"]
        assert check.status == FAIL, entry
        assert check.witness == hopf_core._counit_defect(H), entry
        if rep["counit-of-unit"].status == PASS:
            # scanned on G first, found the defect, then scanned in full
            assert scans == [algebra_generators(H), None], entry
        else:
            assert scans == [None], entry


def test_non_associative_bundle_takes_the_full_counit_scan(h8):
    # x * y = 2 xy: (x y) y = 2x but x (y y) = x
    H = _edited_bundle(h8, "MULT", "1 2 4 1", "2")
    rep, scans = _counit_scans(H)
    assert rep["mult-associative"].status == FAIL
    assert rep["counit-of-unit"].status == PASS
    assert scans == [None]
    assert rep["counit-multiplicative"].witness == hopf_core._counit_defect(H)


def test_counit_scan_on_generators_when_its_premises_hold(h8, taft3, uq3):
    for H in (h8, taft3[0], uq3):
        rep, scans = _counit_scans(H)
        assert rep.ok
        assert scans == [algebra_generators(H)]


def _scan_restrictions(H):
    """verify_hopf's report on H and, for the coassociativity, the
    anti-multiplicativity and the antipode scans, the index restriction each
    call received (None for a full scan)."""
    scans = {"coassoc_first_defect": 3, "antimult_first_defect": 4, "antipode_first_defects": 7}
    with contextlib.ExitStack() as stack:
        spies = {name: stack.enter_context(mock.patch.object(K, name, wraps=getattr(K, name)))
                 for name in scans}
        rep = verify_hopf(H)
    return rep, {name: [call.args[at] if len(call.args) > at else None
                        for call in spies[name].call_args_list] for name, at in scans.items()}


def test_coassoc_and_antipode_scans_on_generators_when_their_premises_hold(h8, taft3, uq3):
    for H in (h8, taft3[0], uq3):
        rep, scans = _scan_restrictions(H)
        assert rep.ok
        G = algebra_generators(H)
        assert scans == {"coassoc_first_defect": [G], "antimult_first_defect": [G],
                         "antipode_first_defects": [G]}, H.name


def _scaled(H, section, row, t, c):
    """H with the t-th entry of one COMULT row or ANTIPODE column times the
    integer c, and dropped when c is 0."""
    table = list(H.comult if section == "COMULT" else H.antipode_cols)
    entries = list(table[row])
    key, s = entries.pop(t)
    if c:
        entries.insert(t, (key, K.s_mul(H.ctx, K.s_from_ratio(H.ctx, c), s)))
    table[row] = tuple(entries)
    comult, cols = (table, H.antipode_cols) if section == "COMULT" else (H.comult, table)
    return FinHopf(H.name + "~", H.basis_labels, H.N, H.mult, H.unit, tuple(comult), H.counit,
                   tuple(cols), convention=H.convention)


@pytest.mark.parametrize("which", ["h8", "taft3", "uq3"])
def test_doubled_comult_entry_of_a_generator_fails_with_the_full_scan_witness(h8, taft3, uq3, which):
    base = {"h8": h8, "taft3": taft3[0], "uq3": uq3}[which]
    n = base.dim
    failed = 0
    for g in algebra_generators(base):
        for t in range(len(base.comult[g])):
            H = _scaled(base, "COMULT", g, t, 2)
            check = verify_hopf(H)["comult-coassociative"]
            w = K.coassoc_first_defect(n, H.comult, H.ctx)
            assert (check.status, check.witness) == (PASS if w is None else FAIL, w), (g, t)
            failed += w is not None
    # doubling a grouplike's one term keeps Delta(x) = 2 x (x) x coassociative
    assert failed >= 3


@pytest.mark.parametrize("which", ["h8", "taft3", "uq3"])
def test_doubled_entry_of_the_middle_antipode_column_fails_with_the_full_witnesses(h8, taft3, uq3,
                                                                                  which):
    # a dropped entry too; antipode-invertible is then decided by rank
    base = {"h8": h8, "taft3": taft3[0], "uq3": uq3}[which]
    m = base.dim // 2
    assert base.antipode_cols[m]
    singular = 0
    for t in range(len(base.antipode_cols[m])):
        for c in (2, 0):
            H = _scaled(base, "ANTIPODE", m, t, c)
            rep, scans = _scan_restrictions(H)
            full = K.antipode_first_defects(H.dim, H.mult, H.comult, H.antipode_cols, H.unit,
                                            H.counit, H.ctx)
            assert full != (None, None), (t, c)
            assert (rep["antipode-left"].witness, rep["antipode-right"].witness) == full, (t, c)
            # only S changed, so the pre-scan ran on G; it or the scan on G
            # found the defect, and the full scan ran last
            assert scans["antimult_first_defect"] == [algebra_generators(H)], (t, c)
            assert scans["antipode_first_defects"][-1] is None, (t, c)
            invertible = H.antipode_matrix().rank() == H.dim
            assert rep["antipode-invertible"].status == (PASS if invertible else FAIL), (t, c)
            singular += not invertible
    assert singular


def test_antipode_of_the_unit_is_checked_when_g_is_empty():
    # the ground field has G = (); S(1) = 2 fails the antipode axiom at 1,
    # which the scans on G never see
    k = trivial_hopf()
    assert algebra_generators(k) == ()
    two = ((0, K.s_from_ratio(k.ctx, 2)),)
    H = FinHopf("k~", k.basis_labels, k.N, k.mult, k.unit, k.comult, k.counit, (two,))
    rep = verify_hopf(H)
    assert [(c.name, c.witness) for c in rep.failures()] == [("antipode-left", 0),
                                                              ("antipode-right", 0)]


def _integrals_of(H, side, js=None):
    """Normalized null space of the integral rows for j in js (all when None),
    without the cache of ``integral_space``."""
    space = RowSpace(H.dim, H.ctx)
    for row in hopf_core._integral_rows(H, side, js):
        space.add(row)
    return [_column(H.N, _normalize_first_one(H.ctx, v), H.dim) for v in space.nullspace()]


def test_reduced_integrals_match_full_system(h8, taft3, uq3):
    # integral_space cuts the integrals down one generator at a time; the
    # reference is the full system of n rows for every basis element
    uq5 = small_quantum_sl2(5)
    algebras = [h8, taft3[0], taft(5)[0], taft(7)[0], uq3,
                drinfeld_double(group_algebra(cyclic_table(3)))[0],
                drinfeld_double(group_algebra(klein_table()))[0],
                drinfeld_double(taft(2)[0])[0], drinfeld_double(taft3[0])[0],
                uq5] + [uqsl2_sub(uq5, sub).K for sub in ("cartan", "borel+", "borel-")]
    for H in algebras:
        gens = algebra_generators(H)
        for side in ("left", "right"):
            full = _integrals_of(H, side)
            assert _integrals_of(H, side, gens) == full, (H.name, side)
            assert integral_space(H, side) == full, (H.name, side)


def test_a_counit_changed_off_generators_is_refused_at_input(h8, taft3, uq3, tmp_path):
    # eps(h_j) for j outside G never enters the reduced system, so its
    # solutions are wrong; such a table is no Hopf algebra, and resolve_hopf
    # refuses its bundle before any integral is solved
    from hopfkit.cli import resolve_hopf
    from hopfkit.errors import HopfkitError

    for base in (h8, taft3[0], uq3):
        j = next(j for j in range(base.dim) if j not in algebra_generators(base))
        H = _perturb(base, "COUNIT", j, 0, 1)
        for side in ("left", "right"):
            assert _integrals_of(H, side, algebra_generators(H)) != _integrals_of(H, side)
        first = verify_hopf(H).failures()[0]
        path = tmp_path / "bad.bundle"
        path.write_text(serialize_hopf(H))
        with pytest.raises(HopfkitError, match="^%s is not a Hopf algebra: %s FAIL" % (
                re.escape(H.name), first.name)):
            resolve_hopf(str(path))


@settings(max_examples=40, deadline=None)
@given(
    which=st.sampled_from(["h8", "taft3", "uq3"]),
    section=st.sampled_from(["MULT", "COUNIT"]),
    row=st.integers(0, 10 ** 6),
    key=st.integers(0, 10 ** 6),
    c=st.sampled_from([-1, 1, 2]),
    side=st.sampled_from(["left", "right"]),
)
def test_reduced_integrals_differ_only_on_tables_that_fail_verify_hopf(h8, taft3, uq3, which,
                                                                       section, row, key, c,
                                                                       side):
    # integral_space solves the equations of G only; a table where that
    # misses a constraint is no Hopf algebra, so no bundle of it is read
    H = _perturb({"h8": h8, "taft3": taft3[0], "uq3": uq3}[which], section, row, key, c)
    if integral_space(H, side) != _integrals_of(H, side):
        assert not verify_hopf(H).ok


def test_every_bundle_algebra_is_verified_where_it_is_read(h8, tmp_path):
    # a bundle read as an algebra, as the of= algebra of a double or of a
    # trivial inclusion, or as a side of an inclusion bundle, passes
    # verify_hopf or is refused naming its first failing check
    from hopfkit.bundles import serialize_inclusion
    from hopfkit.cli import resolve_hopf, resolve_inclusion
    from hopfkit.errors import HopfkitError

    incl = resolve_inclusion("builtin:h8")
    bad_h8 = _perturb(h8, "MULT", 9, 0, 1)
    first = verify_hopf(bad_h8).failures()[0]
    for H, refused in ((h8, False), (bad_h8, True)):
        path = tmp_path / "h8.bundle"
        path.write_text(serialize_hopf(H))
        ipath = tmp_path / "incl.bundle"
        ipath.write_text(serialize_inclusion(incl, "builtin:group?table=klein", path))
        reads = [(resolve_hopf, str(path)), (resolve_hopf, "builtin:double?of=%s" % path),
                 (resolve_inclusion, "builtin:trivial?of=%s" % path),
                 (resolve_inclusion, str(ipath))]
        for read, spec in reads:
            if not refused:
                read(spec)
                continue
            with pytest.raises(HopfkitError, match="^%s is not a Hopf algebra: %s FAIL witness=%s$"
                               % (re.escape(H.name), first.name, re.escape(str(first.witness)))):
                read(spec)
    # no algebra carries a trust bit that could select another path
    assert not hasattr(h8, "proven") and not hasattr(incl, "proven")


def _doubled_middle_antipode_entry(text, N, n):
    """A bundle text with the first entry of the column S(e_m), m = n // 2, doubled."""
    lines = text.splitlines()
    at = next(i for i in range(lines.index("BEGIN ANTIPODE") + 1, len(lines))
              if lines[i].split()[1] == str(n // 2))
    head, scalar = lines[at].rsplit(" ", 1)
    lines[at] = "%s %s" % (head, format_scalar(parse_scalar(scalar, N) * 2))
    return "\n".join(lines) + "\n"


# sha256 of verify_hopf's report text on a bundle and on the bundle with one
# entry of its middle antipode column doubled, recorded before coassociativity
# and the antipode axiom were scanned on generators and S was taken to be
# invertible by theorem
BUNDLE_REPORTS = {
    "builtin:uqsl2?l=5": ("f5ae57508604623d7da780d6a0f8f0d26991f4c793c65685608352d649a793d8",
                          "feb81fc26a3f0b6fbbbc7655310ae2b2cd4afb33210863b1cfa84e3f199fd543"),
    "builtin:double?of=builtin:group?table=c3": (
        "9d2d6de986db2627515ac47c5870470b49a6f78098c13840c42c065a1aa731e1",
        "d599961ebbbb82c31a13d8bc2798846e7c96ae530a920a81269278fafab2ed7f"),
}


@pytest.mark.parametrize("spec", sorted(BUNDLE_REPORTS))
def test_bundle_reports_match_the_recorded_digests(spec):
    from hopfkit.cli import resolve_hopf

    H = resolve_hopf(spec)
    text = serialize_hopf(H)
    got = tuple(hashlib.sha256(verify_hopf(parse_hopf(t)).to_text().encode()).hexdigest()
                for t in (text, _doubled_middle_antipode_entry(text, H.N, H.dim)))
    assert got == BUNDLE_REPORTS[spec]


def _lightest_generator(H, side):
    """The generator whose integral rows hold the fewest table terms, the
    first by index among equals."""
    n = H.dim
    return min(algebra_generators(H), key=lambda j: (sum(
        len(H.mult[i * n + j] if side == "right" else H.mult[j * n + i]) for i in range(n)), j))


def test_integral_rows_are_built_on_generators_only(h8, taft3, uq3):
    # integral_space builds the n rows of the lightest generator only and
    # cuts the other generators down in the span of their solutions
    for H in (h8, taft3[0], uq3):
        # a copy with an empty cache
        fresh = FinHopf(H.name, H.basis_labels, H.N, H.mult, H.unit, H.comult, H.counit,
                        H.antipode_cols)
        with mock.patch.object(hopf_core, "_integral_rows", wraps=hopf_core._integral_rows) as rows:
            got = [integral_space(fresh, side) for side in ("left", "right")]
        assert [(call.args[1], list(call.args[2])) for call in rows.call_args_list] == [
            (side, [_lightest_generator(H, side)]) for side in ("left", "right")]
        assert got == [_integrals_of(H, side) for side in ("left", "right")], H.name


def test_algebra_map_defect_on_a_proven_algebra_names_the_full_scan_witness(h8, taft3, uq3):
    # alpha changed at one basis element outside G: the check on G finds a
    # defect, and the error names the first pair of the full scan
    from hopfkit.hopf_core import _assert_algebra_map, _multiplicative_defect

    for H in (h8, taft3[0], uq3):
        alpha = distinguished_grouplike(H)
        gens = algebra_generators(H)
        j = next(j for j in range(H.dim) if j not in gens and H.unit_vec().get(j) is None)
        values = list(alpha)
        values[j] = K.s_add(H.ctx, values[j], K.s_one(H.ctx))
        f = tuple(values)
        w = _multiplicative_defect(H, values)
        assert w is not None and _multiplicative_defect(H, values, gens) is not None
        with pytest.raises(PipelineError, match=r"not an algebra map at \(%d,%d\)$" % w):
            _assert_algebra_map(H, f, "test", gens)


def test_multiplicative_scan_forms_no_product_with_a_zero_value(taft5, uq3):
    # a term where f vanishes adds 0, so it is skipped; the witness is the
    # one of the sum over every term, which the reference forms
    from hopfkit.hopf_core import _multiplicative_defect

    for H in (taft5[0], uq3):
        n, ctx, zero = H.dim, H.ctx, K.s_zero(H.ctx)
        for t in (1, n // 2, n - 1):
            values = list(H.counit)
            values[t] = K.s_add(ctx, values[t], K.s_one(ctx))
            # the reference reads the rows the scan reads first, so a row that
            # the builder forms on its first read forms no product below
            want = next(
                (i, j) for i in range(n) for j in range(n)
                if functools.reduce(lambda acc, term: K.s_add(ctx, acc, term), [
                    K.s_mul(ctx, values[k], s) for k, s in H.mult[i * n + j]], zero)
                != K.s_mul(ctx, values[i], values[j]))
            with mock.patch.object(K, "s_mul", wraps=K.s_mul) as mul:
                w = _multiplicative_defect(H, values)
            assert w is not None and w == want
            # one product f(e_i) f(e_j) per pair scanned, and one f(e_k) s per
            # term whose f(e_k) is not zero
            scanned = [(i, j) for i in range(n) for j in range(n)][:w[0] * n + w[1] + 1]
            assert mul.call_count == len(scanned) + sum(
                values[k] != zero for i, j in scanned for k, _ in H.mult[i * n + j])
