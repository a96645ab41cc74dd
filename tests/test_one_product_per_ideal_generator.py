"""HK+ is spanned from the generators of K: ``bar_quotient`` forms the
products h (g - eps(g)1) for h in H's basis and g in G_K with
g - eps(g)1 != 0, and no other product of H.  Spanning HK+ by h w over a
basis of K+ = ker eps_K would form n (dim K - 1) of them."""

from unittest import mock

import hopfkit._kernel as K
from conftest import hkplus_over_a_kplus_basis
from hopfkit import extension
from hopfkit.cli import resolve_inclusion
from hopfkit.exact_math import _axpy
from hopfkit.hopf_core import FinHopf, algebra_generators

SPEC = "builtin:double?of=builtin:taft?l=3"


def _products_of_h(build, incl):
    """The number of products of H that ``build(incl)`` forms."""
    real = FinHopf.mult_vec
    count = [0]

    def counted(self, u, v):
        count[0] += self is incl.H
        return real(self, u, v)

    with mock.patch.object(FinHopf, "mult_vec", counted):
        build(incl)
    return count[0]


def _allowed(incl):
    """n |{g in G_K : g - eps(g)1 != 0}|."""
    Kk = incl.K
    ideal = [g for g in algebra_generators(Kk)
             if _axpy(Kk.ctx, Kk.basis_vec(g), Kk.unit_vec(), K.s_neg(Kk.counit[g]))]
    return incl.H.dim * len(ideal)


def test_a_span_over_a_kplus_basis_fails_the_guard():
    incl = resolve_inclusion(SPEC)
    formed = _products_of_h(hkplus_over_a_kplus_basis, incl)
    assert formed == incl.H.dim * (incl.K.dim - 1) != _allowed(incl)


def test_bar_quotient_forms_one_product_per_basis_element_and_ideal_generator():
    incl = resolve_inclusion(SPEC)
    assert 0 < _allowed(incl) < incl.H.dim * (incl.K.dim - 1)
    assert _products_of_h(extension.bar_quotient.__wrapped__, incl) == _allowed(incl)
