"""Hbar and the left K-coordinates are read off eliminations the pipeline
already makes.  ``bar_quotient`` forms one ``RowSpace``, HK+ with the column
order reversed, and reads the representatives and proj off it: no second
space and no matrix inverse.  ``coinduce`` reads part i of x as
tr(x delta_i) from the dual bases, so it builds no ``Decomposer``, and the
one ``Decomposer`` left decomposes on the right, over ``free_basis``'s
products."""

import inspect
from unittest import mock

import pytest

from conftest import criterion_09_registry
from hopfkit.cli import resolve_inclusion
from hopfkit.exact_math import Matrix, RowSpace
from hopfkit.extension import Decomposer, bar_quotient, make_frobenius_data, rescale_frobenius_data
from hopfkit.hopf_core import algebra_generators
from hopfkit.induction import coinduce
from hopfkit.module_theory import trivial_module, verify_module


def _refused(*args, **kwargs):
    raise AssertionError("refused")


def _spaces_formed(build, incl):
    """The number of RowSpaces ``build(incl)`` forms, with Matrix.inverse and
    Matrix.solve refused."""
    real = RowSpace.__init__
    count = [0]

    def counted(self, *args):
        count[0] += 1
        real(self, *args)

    with mock.patch.object(RowSpace, "__init__", counted), \
            mock.patch.object(Matrix, "inverse", _refused), \
            mock.patch.object(Matrix, "solve", _refused):
        build(incl)
    return count[0]


def test_an_inverse_fails_the_guard(h8_incl):
    with pytest.raises(AssertionError, match="refused"):
        _spaces_formed(lambda incl: incl.embed.inverse(), h8_incl)


def test_bar_quotient_forms_one_row_space_and_no_inverse(h8_incl, taft3, uq3, uq5):
    for name, incl in criterion_09_registry(h8_incl, taft3, uq3, uq5):
        algebra_generators(incl.K)  # G_K is formed before the count; it is kept on K
        assert _spaces_formed(bar_quotient.__wrapped__, incl) == 1, name


@pytest.mark.parametrize("spec", ["builtin:h8", "builtin:double?of=builtin:group?table=c3",
                                  "builtin:uqsl2?l=3&sub=cartan"])
def test_coinduce_builds_no_decomposer(spec):
    incl = resolve_inclusion(spec)
    # uncached data: the inclusion's own keeps what other tests built from it
    frob = rescale_frobenius_data(make_frobenius_data(incl), 1)
    with mock.patch.object(Decomposer, "__init__", _refused):
        coind = coinduce(frob, trivial_module(incl.K))
    assert verify_module(coind).ok


def test_the_decomposer_has_no_side():
    assert list(inspect.signature(Decomposer).parameters) == ["incl", "free", "images"]
    assert "side" not in Decomposer.__slots__
