"""The integral-type system has one equation per coset of HK+:
``check_integral_type`` imposes lambda(bar(Lambda h)) = eps(h) at the coset
representatives only, so ``Matrix.solve`` gets d = dim H / dim K rows.
Imposing it at every basis element of H would hand it n rows."""

from unittest import mock

from conftest import integral_type_over_all_of_h
from hopfkit.cli import resolve_inclusion
from hopfkit.exact_math import Matrix
from hopfkit.extension import bar_quotient, check_integral_type

SPEC = "builtin:taft?l=7"


def _rows_solved(build, incl):
    """The row counts of the systems ``build(incl)`` hands ``Matrix.solve``."""
    real = Matrix.solve
    rows = []

    def counted(self, rhs):
        rows.append(self.rows)
        return real(self, rhs)

    with mock.patch.object(Matrix, "solve", counted):
        build(incl)
    return rows


def test_a_system_over_every_basis_element_fails_the_guard():
    incl = resolve_inclusion(SPEC)
    bar_quotient(incl)  # Hbar is formed before the count; it is kept on incl
    rows = _rows_solved(integral_type_over_all_of_h, incl)
    assert rows == [incl.H.dim] != [bar_quotient(incl).dim]


def test_check_integral_type_solves_one_row_per_coset():
    incl = resolve_inclusion(SPEC)
    bq = bar_quotient(incl)
    assert (incl.H.dim, incl.K.dim, bq.dim) == (49, 7, 7)
    assert _rows_solved(check_integral_type, incl) == [bq.dim]
