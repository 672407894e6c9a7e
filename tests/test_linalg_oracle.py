"""Exact kernels checked against sympy.Matrix, an independent oracle.

Inputs are seeded random rational matrices of many shapes.  Half of them are
built as a product of two thinner factors, so singular and rank-deficient
cases (including non-square ones) are common rather than accidental.
"""

from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from qpmaps.errors import SingularMatrixError  # noqa: E402
from qpmaps.linalg import (  # noqa: E402
    RationalMatrix,
    inverse,
    kernel_basis,
    rank,
    select_independent_rows,
    solve,
)
from qpmaps.sampling import make_rng  # noqa: E402

CASES = 80


def _entry(rng) -> Fraction:
    return Fraction(rng.randint(-4, 4), rng.randint(1, 5))


def random_matrix(rng, rows: int, cols: int) -> RationalMatrix:
    """Dense random matrix, or a product through an inner size below both sides."""
    if rng.random() < 0.5 or min(rows, cols) == 0:
        return RationalMatrix.from_rows(
            [[_entry(rng) for _ in range(cols)] for _ in range(rows)], cols=cols)
    inner = rng.randint(0, min(rows, cols) - 1)
    left = [[_entry(rng) for _ in range(inner)] for _ in range(rows)]
    right = [[_entry(rng) for _ in range(cols)] for _ in range(inner)]
    return RationalMatrix.from_rows(
        [[sum((left[i][k] * right[k][j] for k in range(inner)), Fraction(0))
          for j in range(cols)] for i in range(rows)], cols=cols)


def _rational(e: Fraction):
    return sympy.Rational(e.numerator, e.denominator)


def to_sympy(mat: RationalMatrix):
    return sympy.Matrix(mat.rows, mat.cols, [_rational(e) for e in mat.entries])


def column(vec):
    return sympy.Matrix([_rational(e) for e in vec])


def shapes(tag: str, square: bool = False):
    rng = make_rng(f"oracle-{tag}")
    for _ in range(CASES):
        rows = rng.randint(1, 6)
        cols = rows if square else rng.randint(1, 6)
        yield rng, random_matrix(rng, rows, cols)


def test_rank_matches_sympy():
    for _, mat in shapes("rank"):
        assert rank(mat) == to_sympy(mat).rank()


def test_kernel_basis_spans_the_sympy_nullspace():
    for _, mat in shapes("kernel"):
        ref = to_sympy(mat)
        ours = [column(v) for v in kernel_basis(mat)]
        theirs = ref.nullspace()
        assert len(ours) == len(theirs)
        for v in ours:
            assert ref * v == sympy.zeros(mat.rows, 1)
        if ours:
            # same span: neither set adds a direction to the other
            mine = sympy.Matrix.hstack(*ours)
            both = sympy.Matrix.hstack(*ours, *theirs)
            assert mine.rank() == both.rank() == len(theirs)


def test_inverse_matches_sympy():
    singular = 0
    for _, mat in shapes("inverse", square=True):
        ref = to_sympy(mat)
        if ref.det() == 0:
            singular += 1
            with pytest.raises(SingularMatrixError):
                inverse(mat)
        else:
            assert to_sympy(inverse(mat)) == ref.inv()
    assert 0 < singular < CASES


def test_solve_matches_sympy():
    singular = 0
    for rng, mat in shapes("solve", square=True):
        rhs = random_matrix(rng, mat.rows, rng.randint(1, 3))
        ref = to_sympy(mat)
        if ref.det() == 0:
            singular += 1
            with pytest.raises(SingularMatrixError):
                solve(mat, rhs)
        else:
            assert to_sympy(solve(mat, rhs)) == ref.LUsolve(to_sympy(rhs))
    assert 0 < singular < CASES


def test_select_independent_rows_matches_a_sympy_greedy_scan():
    for rng, mat in shapes("rows"):
        ref = to_sympy(mat)
        target = ref.rank()
        count = rng.randint(0, target)
        expected: list[int] = []
        for i in range(mat.rows):
            if len(expected) == count:
                break
            if ref.extract(expected + [i], list(range(mat.cols))).rank() \
                    > len(expected):
                expected.append(i)
        assert select_independent_rows(mat, count) == expected
        full = select_independent_rows(mat)
        assert len(full) == target
        assert ref.extract(full, list(range(mat.cols))).rank() == target
