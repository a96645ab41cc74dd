import hashlib
import itertools
import random
from fractions import Fraction

import pytest

import hopfkit._kernel as K
from conftest import CATALOGUE, uqsl2_sub
from hopfkit.builders import (
    UQSL2_SUBALGEBRAS,
    cartan_matrix,
    cartan_row_sum_witness,
    cyclic_table,
    double_r_matrix,
    drinfeld_double,
    generated_inclusion,
    group_algebra,
    klein_table,
    small_quantum_sl2,
    taft,
    trivial_hopf,
    unimodularity_scan_sl2,
)
from hopfkit.bundles import parse_hopf, serialize_hopf, serialize_inclusion, serialize_module
from hopfkit.cli import resolve_hopf, resolve_inclusion, resolve_module
from hopfkit.errors import HopfkitError
from hopfkit.exact_math import Cyclotomic, _add, _axpy
from hopfkit.extension import bar_quotient, verify_inclusion
from hopfkit.hopf_core import (
    algebra_generators,
    basis_closure,
    is_unimodular,
    subhopf_from_basis,
    verify_hopf,
)


def test_group_algebra_rejects_non_group():
    with pytest.raises(HopfkitError):
        group_algebra([[0, 1], [1, 1]])
    with pytest.raises(HopfkitError):
        group_algebra([[1, 0], [0, 1]])  # identity not element 0


def test_h8_basics(h8, h8_incl):
    assert h8.dim == 8
    assert verify_hopf(h8).ok
    assert verify_inclusion(h8_incl).ok
    # relation z x = y z is encoded in the mult tensor
    zx = h8.mult_vec(h8.basis_vec(3), h8.basis_vec(1))
    yz = h8.mult_vec(h8.basis_vec(2), h8.basis_vec(3))
    assert zx == yz
    # z^2 = (1 + x + y - xy)/2
    z2 = h8.mult_vec(h8.basis_vec(3), h8.basis_vec(3))
    expect = {0: Fraction(1, 2), 1: Fraction(1, 2), 2: Fraction(1, 2), 4: Fraction(-1, 2)}
    got = {i: K.s_to_fractions(v)[0] for i, v in z2.items()}
    assert got == expect
    assert is_unimodular(h8)


def test_taft_dims_and_negatives(taft3):
    T, incl = taft3
    assert T.dim == 9
    assert verify_hopf(T).ok
    assert verify_inclusion(incl).ok
    assert not is_unimodular(T)
    with pytest.raises(HopfkitError):
        taft(4, 2)  # non-primitive root


def test_sweedler_is_taft2():
    T, _ = taft(2)
    assert T.dim == 4
    assert verify_hopf(T).ok


def test_uq3(uq3):
    u = uq3
    assert u.dim == 27
    assert verify_hopf(u).ok
    assert is_unimodular(u)
    for sub in ("cartan", "borel+", "borel-"):
        assert verify_inclusion(uqsl2_sub(uq3, sub)).ok
    with pytest.raises(HopfkitError):
        small_quantum_sl2(4)


def test_uq_bar_coproduct_matches_qbinomial_oracle(uq3):
    """Independent oracle: the bar-quotient coproduct of f^j e^i equals

    sum_{r<=i, s<=j} eps^{r(i-r)+s(j-s)-2(i-r)(j-s)} binom_eps(i,r) binom_eps(j,s)
        f^s e^(i-r) x f^(j-s) e^r
    """
    l = 3
    u = uq3
    cart = uqsl2_sub(uq3, "cartan")
    bq = bar_quotient(cart)
    assert bq.dim == l * l
    ctx = K.make_ctx(cart.N)
    q = [K.zeta_power(ctx, t % l) for t in range(4 * l * l)]

    def qint(n):
        # balanced quantum integer (eps^n - eps^-n)/(eps - eps^-1)
        acc = K.s_zero(ctx)
        for t in range(n):
            acc = K.s_add(ctx, acc, q[(n - 1 - 2 * t) % l])
        return acc

    def qfact(n):
        acc = K.s_one(ctx)
        for t in range(1, n + 1):
            acc = K.s_mul(ctx, acc, qint(t))
        return acc

    def qbinom(n, r):
        num = qfact(n)
        den = K.s_mul(ctx, qfact(r), qfact(n - r))
        return K.s_mul(ctx, num, K.s_inv(ctx, den))

    # bar basis ordering produced by the pipeline: reps are f^j e^i by (j, i)
    pos = {}
    for t, rep_idx in enumerate(bq.reps):
        j = rep_idx // (l * l)
        i = rep_idx % l
        pos[(j, i)] = t

    for j in range(l):
        for i in range(l):
            t = pos[(j, i)]
            got = {x: v for x, v in bq.comult[t]}
            expect = {}
            for r in range(i + 1):
                for s in range(j + 1):
                    e = (r * (i - r) + s * (j - s) - 2 * (i - r) * (j - s)) % l
                    coeff = K.s_mul(ctx, q[e], K.s_mul(ctx, qbinom(i, r), qbinom(j, s)))
                    key = pos[(s, i - r)] * bq.dim + pos[(j - s, r)]
                    if not K.s_is_zero(coeff):
                        prev = expect.get(key)
                        expect[key] = coeff if prev is None else K.s_add(ctx, prev, coeff)
            assert got == expect, (j, i)


def test_uq3_counit_on_pbw(uq3):
    u = uq3
    for t in range(u.dim):
        j = t // 9
        i = t % 3
        expected = 1 if (i == 0 and j == 0) else 0
        assert Cyclotomic(u.N, u.counit[t]) == expected


def test_double_kc2():
    C2 = group_algebra(cyclic_table(2), name="kC2")
    D, incl = drinfeld_double(C2)
    assert D.dim == 4
    assert verify_hopf(D).ok
    assert verify_inclusion(incl).ok
    assert is_unimodular(D)


def test_double_klein(h8_incl):
    KG = group_algebra(klein_table(), name="kK", labels=["1", "x", "y", "xy"])
    D, incl = drinfeld_double(KG)
    assert D.dim == 16
    assert verify_hopf(D).ok
    assert verify_inclusion(incl).ok


def test_double_taft():
    T, _ = taft(2)
    D, incl = drinfeld_double(T)
    assert D.dim == 16
    assert verify_hopf(D).ok
    assert verify_inclusion(incl).ok


def test_double_r_matrix_intertwines_coproduct():
    # Delta^cop(d) R = R Delta(d) inside Drin(H) x Drin(H)
    C2 = group_algebra(cyclic_table(2), name="kC2")
    D, _ = drinfeld_double(C2)
    R = double_r_matrix(C2)
    nn = D.dim
    ctx = D.ctx

    def tensor_mult(u, v):
        out = {}
        for x1, c1 in u.items():
            i1, j1 = divmod(x1, nn)
            for x2, c2 in v.items():
                i2, j2 = divmod(x2, nn)
                c = K.s_mul(ctx, c1, c2)
                for p, sp in D.mult[i1 * nn + i2]:
                    csp = K.s_mul(ctx, c, sp)
                    for q2, sq in D.mult[j1 * nn + j2]:
                        key = p * nn + q2
                        prev = out.get(key)
                        val = K.s_mul(ctx, csp, sq)
                        if prev is not None:
                            val = K.s_add(ctx, prev, val)
                        if K.s_is_zero(val):
                            out.pop(key, None)
                        else:
                            out[key] = val
        return out

    for d in range(nn):
        delta = {x: s for x, s in D.comult[d]}
        delta_cop = {}
        for x, s in D.comult[d]:
            a, b = divmod(x, nn)
            delta_cop[b * nn + a] = s
        lhs = tensor_mult(delta_cop, R)
        rhs = tensor_mult(R, delta)
        assert lhs == rhs, d


def test_cartan_matrices():
    assert cartan_matrix("A", 2) == [[2, -1], [-1, 2]]
    assert cartan_matrix("G", 2) == [[2, -1], [-3, 2]]
    B3 = cartan_matrix("B", 3)
    assert B3[1][2] == -2 and B3[2][1] == -1
    C3 = cartan_matrix("C", 3)
    assert C3[1][2] == -1 and C3[2][1] == -2
    with pytest.raises(HopfkitError):
        cartan_matrix("D", 3)
    with pytest.raises(HopfkitError):
        cartan_matrix("Z", 2)


def _det(C):
    """The determinant of an integer matrix, by Fraction elimination."""
    A = [[Fraction(x) for x in row] for row in C]
    n, det = len(A), Fraction(1)
    for j in range(n):
        p = next((i for i in range(j, n) if A[i][j]), None)
        if p is None:
            return 0
        if p != j:
            A[j], A[p] = A[p], A[j]
            det = -det
        det *= A[j][j]
        for i in range(j + 1, n):
            f = A[i][j] / A[j][j]
            A[i] = [x - f * y for x, y in zip(A[i], A[j])]
    return det


def _bourbaki(rank, edges):
    """The Cartan matrix on Bourbaki's nodes 1..rank with a_ij = -a for each
    edge (i, j, a, b) and a_ji = -b."""
    C = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
    for i, j, a, b in edges:
        C[i - 1][j - 1], C[j - 1][i - 1] = -a, -b
    return C


@pytest.mark.parametrize("label,rank,det", [("E", 6, 3), ("E", 7, 2), ("E", 8, 1), ("F", 4, 1)])
def test_exceptional_cartan_matrices_are_bourbaki_tables(label, rank, det):
    # Bourbaki numbers E_n as the chain 1-3-4-...-n with node 2 on node 4,
    # and F_4 as 1-2=>3-4 with a_23 = -2; cartan_matrix lists the chain first
    # and the branch node last
    if label == "E":
        want = _bourbaki(rank, [(1, 3, 1, 1), (2, 4, 1, 1)] +
                         [(i, i + 1, 1, 1) for i in range(3, rank)])
        order = [1, 3] + list(range(4, rank + 1)) + [2]
    else:
        want = _bourbaki(4, [(1, 2, 1, 1), (2, 3, 2, 1), (3, 4, 1, 1)])
        order = [1, 2, 3, 4]
    got = cartan_matrix(label, rank)
    assert got == [[want[i - 1][j - 1] for j in order] for i in order]
    assert _det(got) == det


def test_cartan_row_sums_a2_l5():
    witness = cartan_row_sum_witness(cartan_matrix("A", 2), 5)
    assert witness != ()  # row sums (1,1) mod 5
    assert witness is None


def test_cartan_row_sums_a1_any_sign():
    assert cartan_row_sum_witness(cartan_matrix("A", 1), 5) is None  # row sum +-2 mod 5


def test_cartan_row_sums_a2_l3_exception():
    witness = cartan_row_sum_witness(cartan_matrix("A", 2), 3)
    assert witness is not None
    assert witness in ((0,), (1,))  # eta_1 = -eta_2


def test_unimodularity_scan_l3():
    rows = unimodularity_scan_sl2(3)
    assert len(rows) == 4
    by_key = {(bool(r["I+"]), bool(r["I-"])): r["unimodular"] for r in rows}
    assert by_key[(False, False)] is True
    assert by_key[(True, True)] is True
    assert by_key[(True, False)] is False
    assert by_key[(False, True)] is False


def test_trivial_hopf():
    k = trivial_hopf()
    assert k.dim == 1
    assert verify_hopf(k).ok


def test_builder_integral_spaces_one_dimensional(h8, taft3, uq3):
    from hopfkit.hopf_core import integral_space

    C2 = group_algebra(cyclic_table(2), name="kC2")
    D2, _ = drinfeld_double(C2)
    for H in (h8, taft3[0], uq3, C2, D2, trivial_hopf()):
        for side in ("left", "right"):
            assert len(integral_space(H, side)) == 1, (H.name, side)


def _tables(H):
    return H.N, H.mult, H.comult, H.unit, H.counit, H.antipode_cols


@pytest.mark.parametrize("spec", CATALOGUE)
def test_bundle_round_trip_keeps_every_table(spec):
    H = resolve_hopf(spec)
    H2 = parse_hopf(serialize_hopf(H))
    assert _tables(H2) == _tables(H)
    assert (H2.name, H2.basis_labels, H2.convention) == (H.name, H.basis_labels, H.convention)


# spellings of zero that the scalar grammar accepts
ZEROS = ["0", "-0", "+0", "0/3", "0*z", "0*z^2"]


def _with_explicit_zeros(H):
    """H's bundle with a zero entry, spelled in turn as in ZEROS, on every
    index tuple that the serializer leaves out."""
    n = H.dim
    arity = {"MULT": 3, "COMULT": 3, "UNIT": 1, "COUNIT": 1, "ANTIPODE": 2}
    zeros = itertools.cycle(ZEROS)
    out, section, written = [], None, set()
    for line in serialize_hopf(H).splitlines():
        if line.startswith("BEGIN "):
            section, written = line[6:], set()
        elif line == "END":
            for idx in itertools.product(range(n), repeat=arity[section]):
                if idx not in written:
                    out.append("%s %s" % (" ".join(map(str, idx)), next(zeros)))
        elif section is not None:
            written.add(tuple(map(int, line.split()[: arity[section]])))
        out.append(line)
    return "\n".join(out) + "\n"


@pytest.mark.parametrize("spec", ["builtin:h8", "builtin:taft?l=3", "builtin:uqsl2?l=3"])
def test_explicit_zero_entries_parse_like_missing_ones(spec):
    H = resolve_hopf(spec)
    text = _with_explicit_zeros(H)
    n = H.dim
    assert len(text.splitlines()) > 2 * n ** 3
    H2 = parse_hopf(text)
    assert _tables(H2) == _tables(parse_hopf(serialize_hopf(H))) == _tables(H)


def test_empty_rows_of_a_parsed_table_are_empty_tuples():
    H = parse_hopf(serialize_hopf(resolve_hopf("builtin:taft?l=7&q=3")))
    sizes = [len(row) for row in H.mult]
    assert (sizes.count(0), sizes.count(1), len(sizes)) == (1029, 1372, 2401)
    assert all(type(row) is tuple for row in H.mult + H.comult + H.antipode_cols)
    assert [row for row in H.mult if not row] == [()] * 1029


def test_a_built_uq_table_reads_as_the_tuple_of_its_rows():
    H = small_quantum_sl2(5)
    parsed = parse_hopf(serialize_hopf(H)).mult
    assert len(H.mult) == len(parsed) == 15625
    rows = list(H.mult)
    assert rows == list(parsed)
    assert all(type(row) is tuple for row in rows)
    empty = [row for row in rows if not row]
    assert empty == [()] * [len(row) for row in parsed].count(0) and empty
    assert H.mult == parsed and parsed == H.mult and not H.mult != parsed
    rotated = parsed[1:] + parsed[:1]
    assert H.mult != rotated and not H.mult == rotated
    for r in (-1, 15625):
        with pytest.raises(IndexError):
            H.mult[r]


@pytest.mark.parametrize("spec", CATALOGUE)
def test_basis_closure_of_each_basis_element_is_the_least_subalgebra(spec):
    H = resolve_hopf(spec)
    unit = set(H.unit_vec())
    closures = [basis_closure(H, [g]) for g in range(H.dim)]
    for g, T in enumerate(closures):
        assert g in T and unit <= set(T), g
        assert T == sorted(T)
        subhopf_from_basis(H, T)
        assert basis_closure(H, T) == T
        # the least: inside every other closure that holds g
        assert all(set(T) <= set(U) for U in closures if g in U), g


def test_basis_closure_of_z_is_all_of_h8(h8):
    assert basis_closure(h8, [h8.label_index("z")]) == list(range(8))


# serialize_hopf sha256 of each catalogue algebra, recorded from the builders
# that normalized every product by the generator rewrite rules
DOUBLE = "builtin:double?of=builtin:"
TABLE_DIGESTS = {
    "builtin:group?table=c2": "118a58de3b014b3011b3c1b193496debc28ac1cc805f0dd6339158784c41522e",
    "builtin:group?table=c3": "f8b398532f693e12ce67c9851b9a60186780246bf84204fa91a7b444d2bfba8e",
    "builtin:group?table=c4": "3cf6a24c50a0a980c49631837fd667ae07c9e10baf71c2ebce98356ba9149fbe",
    "builtin:group?table=klein": "7cd09f9fae342575e03ca89a4b228953923c4c9c3b4bddb0c4c66ddcc86ddc7e",
    "builtin:h8": "f3052c652ee8d802068d3741d7cd9d7ec0286b370eab45d495ab6c362fb22a9e",
    "builtin:taft?l=2": "674e122170a07484fa58fe44a55c69f1979682a714fde7d3fda5b0877037eb60",
    "builtin:taft?l=3": "403fd9b08ffb06fe076fa2f7c4829944debd177d013711479719e243aa2a595a",
    "builtin:taft?l=3&q=2": "87293946e7bf76883951964a70a0b61695ad689cbf554003e7745004caa642c3",
    "builtin:taft?l=5&q=2": "5d91384613d31e5066a173601011709c9c4fa2f6f7e0d6c42810d5bd0292d6b1",
    "builtin:taft?l=7&q=3": "85b47dd3cf2c6b7f221a2364e9015a622d1c287cabdbc4913a0e6e082fcaabaf",
    "builtin:uqsl2?l=3": "cd1a2e35bfb0b44451f5cc9aebfdbdcd1104cf042a25185389430ea16daf4c50",
    "builtin:uqsl2?l=5": "2aa665984b8682aae255cbf6f0cdda22cd2a1f85a8f17d44036b47735769f373",
    "builtin:uqsl2?l=7": "f6a484e990033579f8561c8cf753fb37b6d9e75b9f5f40eb3b4da7918a05f076",
    DOUBLE + "group?table=c2": "1518a60ceeb7e3509c1269a7a5fb6adca38fc6559c01182669096466f9232541",
    DOUBLE + "group?table=c3": "79e944d9276e6b0b32c4cd337954c083d8e951e6f9090e95c376956d02726751",
    DOUBLE + "group?table=klein": "0feb766054324b19e895cdb9de92da130ee22891b708fc96051cd5169fed392c",
    DOUBLE + "taft?l=2": "cbe51959bea46c2513566e1e5b1cb26119907f3b683b7095c48650c34b68505f",
    DOUBLE + "taft?l=3": "0ec25da6f34fa5bf7b0270fa1742e7ee1841011e36d50265f847d8bd20ff5662",
    DOUBLE + "h8": "7f15cef4d3d7c2ede9ffdf0fd6b9bbc2162f6a558f5babef8633171bd27bc1f4",
}


@pytest.mark.parametrize("spec", sorted(TABLE_DIGESTS))
def test_catalogue_tables_match_the_recorded_digests(spec):
    text = serialize_hopf(resolve_hopf(spec))
    assert hashlib.sha256(text.encode()).hexdigest() == TABLE_DIGESTS[spec]


# sha256 of serialize_hopf(K), serialize_hopf(H) and serialize_inclusion of
# each catalogue inclusion K -> H, recorded from the builders that wrote
# Delta, S and the labels of each monomial basis by hand; the u_q(sl2)
# inclusions at l = 3 and 7 and the Taft ones at l = 5 and 7 were recorded
# from the builders that listed the basis indices of each subalgebra by hand
INCLUSION_DIGESTS = {
    "builtin:h8": "308a7c973113e8a27f1ffc0ec5b489e66f5c7022bf18925a44bbe20f18a34122",
    "builtin:taft?l=3": "ce57f443f26b2a05cf8887f32565375b2d5e73a8609088f5f2db52275b853a27",
    "builtin:taft?l=5": "ec829f0e474aeef2d8b7cd057893ad1569dfe3dadfda2e030317afba72a027e0",
    "builtin:taft?l=7&q=3": "2b6fd5577fc9072628f5dbf4a152267c91d4d6371d9fe9abc25315a3d9e0606c",
    "builtin:uqsl2?l=3&sub=cartan": "37f88b3ed6eea1cde3e06b986da5dbada89837f5e38e1e48d32ea8778dd6b45a",
    "builtin:uqsl2?l=3&sub=borel+": "87e8bd2ba7524f412d6c96a4272108f12fde7af86eac8bda7b9d0990c806560c",
    "builtin:uqsl2?l=3&sub=borel-": "4bff9cccab18b71f48dec5b01fd0a1be23468806ba3f1cf4d910b626c6c3ee8c",
    "builtin:uqsl2?l=5&sub=cartan": "891ba5f3a56c60d835d8eeadf75cc6f45183a455b771bb58fd39190516d932db",
    "builtin:uqsl2?l=5&sub=borel+": "420d6be1196be27bad5ae3acc75e8edd57dd08c9147858006600f910da741325",
    "builtin:uqsl2?l=5&sub=borel-": "79406e78831927f9bed8834be46b3e1004626e9ab7d504f49411b1544f6cde18",
    "builtin:uqsl2?l=7&sub=cartan": "d8dbba1f10947b914efe5ea8be407dd50c730b5fc5f67ba4f5676f727c12622d",
    "builtin:uqsl2?l=7&sub=borel+": "12c78a3689f20b8dc63fa3e2e74bf2e3d49b7a78444d42fd4428a87b46cb4b44",
    "builtin:uqsl2?l=7&sub=borel-": "32162bd9c32eacd49d02d0844f4f0b2fbc06e995543fd36c655aa7e84fcd4946",
    "builtin:unit?of=builtin:h8": "f8a0c92a0f6c2fa8f8d04c9fdb74a7bd0e59c563514f73e82b827f89225e2223",
}


@pytest.mark.parametrize("spec", sorted(INCLUSION_DIGESTS))
def test_catalogue_inclusions_match_the_recorded_digests(spec):
    incl = resolve_inclusion(spec)
    text = serialize_hopf(incl.K) + serialize_hopf(incl.H) + serialize_inclusion(incl, "sub", "big")
    assert hashlib.sha256(text.encode()).hexdigest() == INCLUSION_DIGESTS[spec]


def _module_bundle(name):
    """serialize_module of one of the MODULE_DIGESTS modules."""
    from hopfkit.induction import induce, induction_context
    from hopfkit.yetter_drinfeld import z_induce

    if name == "uqsl2?l=3-ind":
        frob = induction_context(resolve_inclusion("builtin:uqsl2?l=3&sub=cartan"))
        V = resolve_module("builtin:kchar?act=1,z,z^2", frob.incl.K)
        return serialize_module(induce(frob, V), "builtin:uqsl2?l=3")
    incl = resolve_inclusion("builtin:h8")
    L = resolve_module("builtin:kchar?act=1,-1,1,-1&deg=x", incl.K)
    if name == "h8-zind":
        L = z_induce(induction_context(incl), L)
        return serialize_module(L, "builtin:h8")
    return serialize_module(L, "builtin:group?table=klein")


# sha256 of serialize_module of a graded character line of the Klein group
# with its coaction, of its induction to H8 (dim 2, with its coaction) and of
# a character of the Cartan part induced to u_q(sl2) at l = 3 (dim 9, with
# z terms), recorded before the writers formatted each distinct scalar once
MODULE_DIGESTS = {
    "kK-line": "eb56e3fd4f5a316a685b4f2d083eacf172ac1b843629e0d5002a844ab8a4efc7",
    "h8-zind": "922e70d0740ec0f32a7c629200faae97e9364c846682fe9535e31edfa6005bc9",
    "uqsl2?l=3-ind": "2b1ca4cc6d9400188d0a6d7530873b276c6612190be278f8552b8d240f359101",
}


@pytest.mark.parametrize("name", sorted(MODULE_DIGESTS))
def test_module_bundles_match_the_recorded_digests(name):
    text = _module_bundle(name)
    assert hashlib.sha256(text.encode()).hexdigest() == MODULE_DIGESTS[name]


def _uq_mult_by_rewriting(l):
    """The product table of u_q(sl2), PBW basis f^j k^m e^i, computed by
    left-multiplying every basis element b by e, then k, then f, one
    generator rewrite at a time: e^i b, k^m e^i b, f^j k^m e^i b."""
    ctx = K.make_ctx(l)
    n = l ** 3
    q = [K.zeta_power(ctx, t % l) for t in range(l)]
    one = K.s_one(ctx)

    def idx(j, m, i):
        return (j * l + m) * l + i

    def L_f(vec):
        return {t + l * l: c for t, c in vec.items() if t // (l * l) + 1 < l}

    def L_k(vec, sign=1):
        # k^sign f^j k^m e^i = q^(-2 sign j) f^j k^(m + sign) e^i
        out = {}
        for t, c in vec.items():
            j, m, i = t // (l * l), t // l % l, t % l
            _add(ctx, out, idx(j, (m + sign) % l, i), K.s_mul(ctx, c, q[(-2 * sign * j) % l]))
        return out

    qm_inv = K.s_inv(ctx, K.s_sub(ctx, q[1], q[l - 1]))
    e_memo = {}

    def e_times(t):
        if t not in e_memo:
            j, m, i = t // (l * l), t // l % l, t % l
            if j == 0:
                # e k^m = q^(-2m) k^m e
                e_memo[t] = {idx(0, m, i + 1): q[(-2 * m) % l]} if i + 1 < l else {}
            else:
                # e f = f e + (k - k^-1)/(q - q^-1)
                rest = {idx(j - 1, m, i): one}
                corr = L_k(rest)
                _axpy(ctx, corr, L_k(rest, -1), K.s_neg(one))
                e_memo[t] = _axpy(ctx, L_f(e_times(idx(j - 1, m, i))), corr, qm_inv)
        return e_memo[t]

    def L_e(vec):
        out = {}
        for t, c in vec.items():
            _axpy(ctx, out, e_times(t), c)
        return out

    mult = [None] * (n * n)
    for b in range(n):
        cur_e = {b: one}
        for i in range(l):
            cur_k = cur_e
            for m in range(l):
                cur_f = cur_k
                for j in range(l):
                    mult[idx(j, m, i) * n + b] = tuple(sorted(cur_f.items()))
                    cur_f = L_f(cur_f)
                cur_k = L_k(cur_k)
            cur_e = L_e(cur_e)
    return tuple(mult)


@pytest.mark.parametrize("fixture", ["uq3", "uq5"])
def test_uq_products_match_generator_rewriting(fixture, request):
    uq = request.getfixturevalue(fixture)
    assert uq.mult == _uq_mult_by_rewriting(uq.N)


def test_scan_sl2_l5_computes_few_uq_products_and_each_on_first_read():
    # what scan-sl2 --l 5 runs on u_5(sl2): the three catalogue inclusions
    # and the four unimodularity checks
    uq = small_quantum_sl2(5)
    subs = [generated_inclusion(uq, gens, prefix + "5").K
            for prefix, gens in UQSL2_SUBALGEBRAS.values()]
    assert [is_unimodular(H) for H in subs + [uq]] == [True, False, False, True]
    # the dict keys are the rows computed so far
    assert len(uq.mult.keys()) < 0.2 * 15625
    order = list(range(15625))
    random.Random(5).shuffle(order)
    rows = {r: uq.mult[r] for r in order}
    ref = _uq_mult_by_rewriting(5)
    assert [rows[r] for r in range(15625)] == list(ref)
    assert uq.mult == ref


def test_generators_of_u5_read_few_products_and_no_coproduct_or_antipode():
    uq = small_quantum_sl2(5)
    # the dict keys are the rows computed so far
    tables = (uq.mult, uq.comult, uq.antipode_cols)
    before = [set(table.keys()) for table in tables]
    gens = algebra_generators(uq)
    assert len(gens) == 3
    assert len(set(uq.mult.keys()) - before[0]) <= len(gens) * uq.dim
    assert [set(table.keys()) for table in tables[1:]] == before[1:]


def test_scan_sl2_l5_computes_few_coproducts_and_antipodes_each_on_first_read(monkeypatch):
    from hopfkit import builders
    from hopfkit.cli import main

    built = []

    def spy(l):
        built.append(small_quantum_sl2(l))
        return built[-1]

    monkeypatch.setattr(builders, "small_quantum_sl2", spy)
    assert main(["scan-sl2", "--l", "5"]) == 0
    (uq,) = built
    # the dict keys are the rows computed so far: the union of the two
    # Borel parts, which the subalgebra closures read
    assert len(uq.comult.keys()) <= 45 and len(uq.antipode_cols.keys()) <= 45
    ref = small_quantum_sl2(5)
    ref_rows = (tuple(ref.comult), tuple(ref.antipode_cols))
    order = list(range(125))
    random.Random(5).shuffle(order)
    for table, want in zip((uq.comult, uq.antipode_cols), ref_rows):
        rows = {t: table[t] for t in order}
        assert [rows[t] for t in range(125)] == list(want) and table == want
        with pytest.raises(IndexError):
            table[125]
