"""Finite-dimensional modules over a FinHopf: tensor products, restriction,
intertwiner spaces, and deterministic isomorphism search."""

import itertools
from math import lcm

from . import _kernel as K
from .errors import ShapeError
from .exact_math import Matrix, RowSpace, _act_blocks, _add, _kron_act
from .hopf_core import _first_defect, algebra_generators, cached
from .reports import Report


class HModule:
    """A left module given by one exact action matrix per algebra basis element.

    The action is taken to be an algebra map H -> End(V): multiplicative and
    unital.  ``ModuleMap.intertwines``, ``hom_space``, the invariants, the
    morphism checks of algebra and Frobenius objects and the Yetter-Drinfeld
    condition are checked for h in ``algebra_generators(H)`` only, which is
    exact under that premise: the h a linear condition holds for contain 1
    and are closed under products once both actions are algebra maps.
    Tensor products, direct sums, restrictions, induced and coinduced
    modules and the trivial module are modules by construction, and ZInd(M)
    is a Yetter-Drinfeld module by theorem; the command line runs
    ``verify_module`` on every module it reads.  A caller that
    builds an HModule directly takes on the premise.

    The module lives over Q(zeta_M) for M the lcm of ``N``, the conductor
    of H and those of the action matrices, and H is lifted to M.  ``_cache``
    holds its ``key()``, its action rows and its tensor products (see
    ``hopf_core.cached``)."""

    __slots__ = ("H", "dim", "N", "ctx", "action", "name", "_cache")
    __hash__ = None

    def __init__(self, H, action, name="V", N=1):
        mats = list(action)
        if len(mats) != H.dim:
            raise ShapeError("need one action matrix per algebra basis element")
        conductor = lcm(N, H.N, *(a.N for a in mats))
        dims = {(a.rows, a.cols) for a in mats}
        if len(dims) != 1:
            raise ShapeError("action matrices have mixed shapes: %r" % dims)
        d = dims.pop()
        if d[0] != d[1]:
            raise ShapeError("action matrices must be square")
        self.H = H.lifted(conductor) if conductor != H.N else H
        self.N = conductor
        self.ctx = K.make_ctx(conductor)
        self.dim = d[0]
        self.action = tuple(a.lift(conductor) for a in mats)
        self.name = name
        self._cache = {}

    @cached()
    def key(self):
        """The module's value, (algebra name, conductor, ``key()`` of each
        action matrix): equal modules built separately share it.  Formed on
        the first call; the action matrices are not changed afterwards."""
        return (self.H.name, self.N, tuple(a.key() for a in self.action))

    @cached()
    def _action_rows(self, conductor):
        """The ``Matrix.srows`` of the action matrices lifted to conductor, a
        multiple of the module's, formed once per conductor."""
        return [a.lift(conductor).srows for a in self.action]

    def act_blocks(self, shape, entries, N):
        """The matrix of shape[0] x shape[1] blocks of size dim whose block
        (s, t) sums the actions of the sparse algebra vectors k {index: raw},
        written at conductor N, of the entries (s, t, k), over
        Q(zeta_lcm(self.N, N)).  Every action of an algebra vector on a
        module is summed here, by ``exact_math._act_blocks``."""
        d = self.dim
        conductor = lcm(N, self.N)
        ctx = K.make_ctx(conductor)
        out = [{} for _ in range(shape[0] * d)]
        _act_blocks(ctx, out, self._action_rows(conductor), d, (
            (s, t, [(x, K.s_lift(c, N, conductor)) for x, c in k.items()])
            for s, t, k in entries if k
        ))
        return Matrix.from_sparse(conductor, shape[1] * d, out)

    def act_alg_vec(self, hvec, N):
        """Action matrix of a sparse algebra vector {index: raw} whose raw
        scalars are written at conductor N: the 1 x 1 case of ``act_blocks``."""
        return self.act_blocks((1, 1), ((0, 0, hvec),), N)

    def __eq__(self, other):
        if not isinstance(other, HModule):
            return NotImplemented
        return (
            self.H.name == other.H.name
            and self.dim == other.dim
            and all(a == b for a, b in zip(self.action, other.action))
        )

    def __repr__(self):
        return "HModule(%s over %s, dim=%d)" % (self.name, self.H.name, self.dim)


class ModuleMap:
    """A linear map between modules over the same algebra."""

    __slots__ = ("source", "target", "matrix")
    __hash__ = None

    def __init__(self, source, target, matrix):
        if matrix.rows != target.dim or matrix.cols != source.dim:
            raise ShapeError("module map must be %dx%d" % (target.dim, source.dim))
        self.source = source
        self.target = target
        self.matrix = matrix

    def intertwines(self):
        return intertwines(self.source.H, self.source.action, self.target.action, self.matrix)

    def is_invertible(self):
        m = self.matrix
        return m.rows == m.cols == m.rank()

    def __repr__(self):
        return "ModuleMap(%s -> %s)" % (self.source.name, self.target.name)


def intertwines(H, src_action, tgt_action, f):
    """f rho(h) = rho'(h) f for all h in H, checked for h in
    ``algebra_generators(H)`` (see ``HModule``); the actions are indexed by
    basis element."""
    return all(f * src_action[g] == tgt_action[g] * f for g in algebra_generators(H))


def trivial_module(H, N=1):
    """The tensor unit: the counit acting on a one-dimensional space."""
    return HModule(H, [Matrix(H.N, [[c]]) for c in H.counit], name="1", N=N)


def _action_defect(M, lefts=None):
    """The first (i, j), i in lefts (all of H by default), with
    rho(e_i e_j) != rho(e_i) rho(e_j)."""
    H = M.H
    n = H.dim
    for i in range(n) if lefts is None else lefts:
        ai = M.action[i]
        for j in range(n):
            if ai * M.action[j] != M.act_alg_vec(dict(H.mult[i * n + j]), H.N):
                return (i, j)
    return None


def verify_module(M):
    """Unitality and multiplicativity check, with the full scan's witness.

    With 1 acting as the identity, rho(ab) = rho(a) rho(b) is scanned for a
    in ``algebra_generators`` only: the a where it holds for all b contain 1
    and, as the algebra is associative, are closed under products.  A defect
    found there is looked up again by the full scan."""
    H = M.H
    rep = Report("verify-module %s" % M.name)
    ident = Matrix.identity(M.dim, M.N)
    unital = M.act_alg_vec(H.unit_vec(), H.N) == ident
    rep.add("unit-acts-as-identity", unital, anchor="module-axioms")
    lefts = algebra_generators(H) if unital else None
    w = _first_defect(_action_defect, lefts, M)
    rep.add("action-multiplicative", w is None, witness=w, anchor="module-axioms")
    return rep


def tensor_actions(M, N_mod, elements):
    """The actions on M (x) N_mod of the basis elements e_g, g in elements,
    from Delta(e_g): the diagonal action, over Q(zeta_lcm(M.N, N_mod.N))."""
    if M.H.name != N_mod.H.name:
        raise ShapeError("tensor of modules over different algebras")
    conductor = lcm(M.N, N_mod.N)
    H = M.H.lifted(conductor)
    a, b = M._action_rows(conductor), N_mod._action_rows(conductor)
    n, dU = H.dim, N_mod.dim
    d = M.dim * dU
    mats = []
    for g in elements:
        out = [{} for _ in range(d)]
        _kron_act(H.ctx, out, a, b, n, H.comult[g], 0, dU, 0, dU)
        mats.append(Matrix.from_sparse(conductor, d, out))
    return mats


@cached(key=lambda N_mod: (N_mod.name, N_mod.key()))
def tensor_modules(M, N_mod):
    """Tensor product module with the diagonal action via the coproduct,
    built once per left factor and name and value of the right factor."""
    mats = tensor_actions(M, N_mod, range(M.H.dim))
    return HModule(M.H, mats, name="%s(x)%s" % (M.name, N_mod.name), N=lcm(M.N, N_mod.N))


def restrict(incl, W):
    """Restriction along the inclusion: K acts through its image."""
    mats = [W.act_alg_vec(col, incl.N) for col in incl.embed_cols()]
    return HModule(incl.K, mats, name="Res(%s)" % W.name, N=lcm(W.N, incl.N))


def direct_sum(M, N_mod):
    if M.H.name != N_mod.H.name:
        raise ShapeError("direct sum over different algebras")
    conductor = lcm(M.N, N_mod.N)
    d1, d2 = M.dim, N_mod.dim
    mats = []
    for i in range(M.H.dim):
        A = M.action[i].lift(conductor)
        B = N_mod.action[i].lift(conductor)
        shifted = [{d1 + j: x for j, x in row.items()} for row in B.srows]
        mats.append(Matrix.from_sparse(conductor, d1 + d2, A.srows + tuple(shifted)))
    return HModule(M.H, mats, name="%s(+)%s" % (M.name, N_mod.name), N=conductor)


def hom_space(M, N_mod):
    """Exact basis of intertwiners M -> N, in deterministic order.

    The equations of h in ``algebra_generators`` only are solved (see
    ``HModule``): the solution space is the same as for all of H, and so is
    its reduced echelon basis."""
    if M.H.name != N_mod.H.name:
        raise ShapeError("hom between modules over different algebras")
    conductor = lcm(M.N, N_mod.N)
    ctx = K.make_ctx(conductor)
    dm, dn = M.dim, N_mod.dim
    A = [m.lift(conductor) for m in M.action]
    B = [m.lift(conductor) for m in N_mod.action]
    space = RowSpace(dn * dm, ctx)
    for i in algebra_generators(M.H):
        Acols = A[i].transpose().srows
        for r, brow in enumerate(B[i].srows):
            for c in range(dm):
                row = {r * dm + s: v for s, v in Acols[c].items()}
                for s, v in brow.items():
                    _add(ctx, row, s * dm + c, K.s_neg(v))
                if row:
                    space.add(row)
    out = []
    for vec in space.nullspace():
        mat = Matrix.from_sparse(conductor, dm, [
            {c: vec[r * dm + c] for c in range(dm) if r * dm + c in vec} for r in range(dn)
        ])
        out.append(ModuleMap(M, N_mod, mat))
    return out


class IsoSearch:
    """Result of the deterministic isomorphism search."""

    __slots__ = ("status", "map")

    def __init__(self, status, map_):
        self.status = status  # "iso" | "none" | "undetermined"
        self.map = map_

    def __bool__(self):
        return self.status == "iso"

    def __repr__(self):
        return "IsoSearch(%s)" % self.status


GRID_LIMIT = 100000


def is_isomorphic(M, N_mod):
    """Deterministic search for an invertible intertwiner.

    Tries hom-basis elements, then prefix sums, then an integer coefficient
    grid with entries 0, +-1, ..., +-B, where B = ceil(d/2).
    With hom basis h_1..h_k, det(sum t_i h_i) is a polynomial of degree at
    most d = dim M in each t_i.  If it vanishes on the whole grid, whose side
    has 2*B + 1 > d points, it is the zero polynomial (Alon, Combinatorial
    Nullstellensatz, CPC 1999, Lemma 2.1), so no intertwiner is invertible
    and the answer is "none".  "undetermined" means the grid was cut short
    at GRID_LIMIT points.
    """
    if M.dim != N_mod.dim:
        return IsoSearch("none", None)
    homs = hom_space(M, N_mod)
    if not homs:
        return IsoSearch("none", None)

    # a square matrix is invertible exactly when it has full rank
    for h in homs:
        if h.matrix.rank() == M.dim:
            return IsoSearch("iso", h)
    acc = homs[0].matrix
    for h in homs[1:]:
        acc = acc + h.matrix
        if acc.rank() == M.dim:
            return IsoSearch("iso", ModuleMap(M, N_mod, acc))
    coeffs = [0]
    for v in range(1, (M.dim + 1) // 2 + 1):
        coeffs.extend((v, -v))
    d, N = M.dim, homs[0].matrix.N
    ctx = K.make_ctx(N)
    mats = [h.matrix.srows for h in homs]
    raw = {v: K.s_from_ratio(ctx, v) for v in coeffs}
    for combo in itertools.islice(itertools.product(coeffs, repeat=len(homs)), GRID_LIMIT):
        if not any(combo):
            continue
        out = [{} for _ in range(d)]
        _act_blocks(ctx, out, mats, d, [(0, 0, [(x, raw[v]) for x, v in enumerate(combo)])])
        mat = Matrix.from_sparse(N, d, out)
        if mat.rank() == d:
            return IsoSearch("iso", ModuleMap(M, N_mod, mat))
    if len(coeffs) ** len(homs) <= GRID_LIMIT:
        return IsoSearch("none", None)
    return IsoSearch("undetermined", None)
