"""Exact kernels checked against sympy.Matrix, an independent oracle.

Inputs are seeded random rational matrices of many shapes.  Half of them are
built as a product of two thinner factors, so singular and rank-deficient
cases (including non-square ones) are common rather than accidental.  The
`wide` inputs hold `Fraction(float)` entries, with 50-odd-bit numerators and
denominators like the step-3 factors of a reduction.
"""

import itertools
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from qpmaps.errors import (  # noqa: E402
    DimensionMismatchError,
    RankDeficientInputError,
    SingularMatrixError,
)
from qpmaps.linalg import (  # noqa: E402
    RationalMatrix,
    _rref,
    complete_to_invertible,
    inverse,
    kernel_basis,
    mat_vec,
    rank,
    select_independent_rows,
    solve,
    vec_mat,
)
from qpmaps.sampling import make_rng  # noqa: E402

CASES = 80


def _entry(rng) -> Fraction:
    return Fraction(rng.randint(-4, 4), rng.randint(1, 5))


def _wide_entry(rng) -> Fraction:
    # mostly 53-bit binary fractions, with some small and zero entries mixed in
    if rng.random() < 0.2:
        return _entry(rng)
    return Fraction(rng.uniform(-3.0, 3.0))


def random_matrix(rng, rows: int, cols: int, entry=_entry) -> RationalMatrix:
    """Dense random matrix, or a product through an inner size below both sides."""
    if rng.random() < 0.5 or min(rows, cols) == 0:
        return RationalMatrix.from_rows(
            [[entry(rng) for _ in range(cols)] for _ in range(rows)], cols=cols)
    inner = rng.randint(0, min(rows, cols) - 1)
    left = [[entry(rng) for _ in range(inner)] for _ in range(rows)]
    right = [[entry(rng) for _ in range(cols)] for _ in range(inner)]
    return RationalMatrix.from_rows(
        [[sum((left[i][k] * right[k][j] for k in range(inner)), Fraction(0))
          for j in range(cols)] for i in range(rows)], cols=cols)


def _rational(e: Fraction):
    return sympy.Rational(e.numerator, e.denominator)


def to_sympy(mat: RationalMatrix):
    return sympy.Matrix(mat.rows, mat.cols, [_rational(e) for e in mat.entries])


def column(vec):
    return sympy.Matrix([_rational(e) for e in vec])


def shapes(tag: str, square: bool = False, cases: int = CASES,
           entry=_entry):
    rng = make_rng(f"oracle-{tag}")
    for _ in range(cases):
        rows = rng.randint(1, 6)
        cols = rows if square else rng.randint(1, 6)
        yield rng, random_matrix(rng, rows, cols, entry)


def wide_shapes(tag: str, square: bool = False):
    return shapes(f"wide-{tag}", square, CASES // 4, _wide_entry)


def test_rank_matches_sympy():
    for _, mat in itertools.chain(shapes("rank"), wide_shapes("rank")):
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
    for _, mat in itertools.chain(shapes("inverse", square=True),
                                  wide_shapes("inverse", square=True)):
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
    # count runs from 0 up to the rank, so most calls ask for fewer rows
    for rng, mat in itertools.chain(shapes("rows"), wide_shapes("rows")):
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


def test_products_match_sympy():
    for rng, left in itertools.chain(shapes("product"),
                                     wide_shapes("product")):
        right = random_matrix(rng, left.cols, rng.randint(0, 6),
                              rng.choice((_entry, _wide_entry)))
        ref_left = to_sympy(left)
        assert to_sympy(left @ right) == ref_left * to_sympy(right)
        vec = [_wide_entry(rng) for _ in range(left.cols)]
        assert column(mat_vec(left, vec)) == ref_left * column(vec)
        covec = [_entry(rng) for _ in range(left.rows)]
        assert column(vec_mat(covec, left)) == (column(covec).T * ref_left).T


def test_rref_matches_sympy():
    for _, mat in itertools.chain(shapes("rref"), wide_shapes("rref")):
        rows, pivots = _rref(mat)
        ref_rows, ref_pivots = to_sympy(mat).rref()
        assert to_sympy(RationalMatrix.from_rows(rows, cols=mat.cols)) \
            == ref_rows
        assert pivots == list(ref_pivots)


def basis_rows(indices: list[int], n: int):
    return sympy.Matrix(len(indices), n,
                        [int(i == k) for k in indices for i in range(n)])


def greedy_completion(ref, n: int):
    """Standard basis rows e_j, in index order, that raise the sympy rank."""
    added: list[int] = []
    for j in range(n):
        if ref.col_join(basis_rows(added + [j], n)).rank() \
                > ref.rows + len(added):
            added.append(j)
    return basis_rows(added, n)


def test_complete_to_invertible_matches_the_greedy_definition():
    deficient = 0
    for rng, mat in itertools.chain(shapes("complete"),
                                    wide_shapes("complete")):
        side = rng.choice(("below", "above", "right", "left"))
        block = mat if side in ("below", "above") else mat.transpose()
        if block.rows > block.cols:
            with pytest.raises(DimensionMismatchError):
                complete_to_invertible(mat, side)
            continue
        ref = to_sympy(block)
        if ref.rank() < block.rows:
            deficient += 1
            with pytest.raises(RankDeficientInputError):
                complete_to_invertible(mat, side)
            continue
        added = greedy_completion(ref, block.cols)
        full = ref.col_join(added) if side in ("below", "right") \
            else added.col_join(ref)
        if side in ("right", "left"):
            full = full.T
        assert to_sympy(complete_to_invertible(mat, side)) == full
    assert deficient > 0
