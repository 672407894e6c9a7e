"""Exact rational matrix operations: frozen examples plus hypothesis properties."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from qpmaps.errors import (
    DimensionMismatchError,
    RankDeficientInputError,
    SingularMatrixError,
)
from qpmaps.linalg import (
    RationalMatrix,
    _cleared,
    _eliminate,
    _rref,
    complete_to_invertible,
    hstack,
    inverse,
    kernel_basis,
    mat_vec,
    rank,
    select_independent_rows,
    solve,
    vstack,
)

M = RationalMatrix.from_rows


def test_rank_examples():
    assert rank(RationalMatrix.identity(2)) == 2
    assert rank(M([[1, 1, 1], [1, 1, 0], [1, 0, 0]])) == 3
    assert rank(M([[1, 2], [2, 4]])) == 1
    assert rank(RationalMatrix.zeros(3, 2)) == 0
    assert rank(RationalMatrix(0, 4, ())) == 0


def test_kernel_examples():
    assert kernel_basis(RationalMatrix.identity(2)) == []
    vecs = kernel_basis(M([[1, 2], [2, 4]]))
    assert vecs == [(Fraction(1), Fraction(-1, 2))]
    vecs = kernel_basis(M([[1, 0, 0]]))
    assert vecs == [(0, 1, 0), (0, 0, 1)]


def test_inverse_examples():
    ident = RationalMatrix.identity(3)
    assert inverse(ident) == ident
    assert inverse(M([[2, 0], [0, 4]])) == M([[Fraction(1, 2), 0], [0, Fraction(1, 4)]])
    assert inverse(M([[1, 1], [0, 1]])) == M([[1, -1], [0, 1]])


def test_inverse_errors():
    with pytest.raises(SingularMatrixError):
        inverse(M([[1, 2], [2, 4]]))
    with pytest.raises(DimensionMismatchError):
        inverse(M([[1, 2, 3], [4, 5, 6]]))


def test_solve_roundtrip():
    a = M([[1, 2], [3, 5]])
    rhs = M([[1], [0]])
    x = solve(a, rhs)
    assert a @ x == rhs
    with pytest.raises(SingularMatrixError):
        solve(M([[1, 1], [1, 1]]), rhs)


def test_complete_to_invertible_examples():
    assert complete_to_invertible(M([[1, 0]])) == RationalMatrix.identity(2)
    out = complete_to_invertible(M([[1, 0, 0], [0, 1, 0]]))
    assert out.row(2) == (0, 0, 1)
    out = complete_to_invertible(M([[1, 1, 0], [0, 1, 1]]))
    assert out.row(2) == (1, 0, 0)
    assert rank(out) == 3


def test_complete_sides():
    part = M([[1], [2]])
    right = complete_to_invertible(part, side="right")
    assert right == M([[1, 1], [2, 0]])
    above = complete_to_invertible(M([[0, 0, 1]]), side="above")
    assert above.row(2) == (0, 0, 1)
    assert rank(above) == 3
    with pytest.raises(RankDeficientInputError):
        complete_to_invertible(M([[1, 2], [2, 4]]))


def test_select_independent_rows_prefers_early_indices():
    mat = M([[1, 2], [2, 4], [0, 1]])
    assert select_independent_rows(mat) == [0, 2]


frac = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def matrices(max_dim=4):
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(
                st.lists(frac, min_size=c, max_size=c),
                min_size=r, max_size=r).map(RationalMatrix.from_rows)))


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_rank_matches_transpose(mat):
    assert rank(mat) == rank(mat.transpose())


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_kernel_vectors_annihilate_and_span(mat):
    vecs = kernel_basis(mat)
    assert len(vecs) == mat.cols - rank(mat)
    for v in vecs:
        assert all(x == 0 for x in mat_vec(mat, v))
        lead = next(x for x in v if x)
        assert lead == 1
    if vecs:
        stacked = RationalMatrix.from_rows(vecs, cols=mat.cols)
        assert rank(stacked) == len(vecs)


@settings(max_examples=100, deadline=None)
@given(matrices(3))
def test_inverse_involution(mat):
    if mat.rows != mat.cols or rank(mat) < mat.rows:
        return
    inv = inverse(mat)
    assert mat @ inv == RationalMatrix.identity(mat.rows)
    assert inverse(inv) == mat


@settings(max_examples=100, deadline=None)
@given(matrices())
def test_completion_full_rank(mat):
    r = rank(mat)
    rows = select_independent_rows(mat, r)
    block = mat.take_rows(rows)
    full = complete_to_invertible(block, side="below")
    assert full.rows == full.cols == mat.cols
    assert rank(full) == mat.cols


def test_stacking_and_products():
    a = M([[1, 2], [3, 4]])
    b = M([[0, 1], [1, 0]])
    assert (a @ b) @ b == a
    assert hstack(a, b).cols == 4
    assert vstack(a, b).rows == 4
    assert a + RationalMatrix.zeros(2, 2) == a
    # an empty inner dimension: zeros of the full outer shape
    assert (RationalMatrix.zeros(2, 0) @ RationalMatrix.zeros(0, 3)
            == RationalMatrix.zeros(2, 3))
    assert a.scale(Fraction(1, 2)) == M([[Fraction(1, 2), 1], [Fraction(3, 2), 2]])


# -- the kept integer forms ------------------------------------------------------

FORMS = ("_row_form", "_pivots")


def assert_forms_are_fresh(mat, label=""):
    """Every kept form, seeded or built here, equals one made from the entries."""
    assert all(type(e) is Fraction for e in mat.entries), label
    fresh = bare(mat)
    assert mat._row_form == tuple(
        _cleared(fresh.row(i)) for i in range(mat.rows)), label
    assert mat._pivots == _eliminate(fresh)[1], label
    assert all(type(ints) is tuple and scale > 0
               for ints, scale in mat._row_form), label


def built(mat):
    """`mat` with both forms built, so that producers can hand them on."""
    for name in FORMS:
        getattr(mat, name)
    return mat


def bare(mat):
    """A copy of `mat` with no form built yet."""
    return RationalMatrix(mat.rows, mat.cols, mat.entries)


def produced(a, b, square):
    """Every internal producer, on operands with and without built forms."""
    inv = inverse(bare(square))
    return {
        "matmul": bare(a) @ bare(b),
        "matmul-built": built(bare(a)) @ built(bare(b)),
        "matmul-empty-inner": bare(a).take_cols([]) @ bare(b).take_rows([]),
        "transpose": bare(a).transpose(),
        "transpose-built": built(bare(a)).transpose(),
        "take_rows": built(bare(a)).take_rows([a.rows - 1, 0]),
        "take_cols": built(bare(a)).take_cols([a.cols - 1, 0]),
        "submatrix": bare(a).submatrix([0], [a.cols - 1]),
        "hstack": hstack(built(bare(a)), bare(a)),
        "vstack": vstack(bare(a), built(bare(a))),
        "solve": solve(bare(square), bare(square) @ bare(b)),
        "inverse": inv,
        "inverse-inverse": inverse(inv),
        "identity": RationalMatrix.identity(square.rows),
        "zeros": RationalMatrix.zeros(2, 3),
        "add": bare(a) + bare(a),
        "scale": bare(a).scale(Fraction(-3, 4)),
    }


def rows_of(count, width):
    return st.lists(st.lists(frac, min_size=width, max_size=width),
                    min_size=count, max_size=count).map(
                        lambda rows: M(rows, cols=width))


@settings(max_examples=60, deadline=None)
@given(matrices(4), st.data())
def test_every_producer_keeps_forms_equal_to_fresh_ones(a, data):
    b = data.draw(rows_of(a.cols, 3))
    square = data.draw(rows_of(a.cols, a.cols))
    assume(rank(square) == a.cols)
    for name, mat in produced(a, b, square).items():
        assert_forms_are_fresh(mat, name)


def test_seeded_forms_are_canonical_after_cancellation():
    # the dot products 2 and 4 share the factor 2 with the scale 4
    prod = M([[Fraction(1, 2), Fraction(1, 2)]]) @ M([[2, 4], [2, 4]])
    assert "_row_form" in prod.__dict__
    assert prod._row_form == (((2, 4), 1),)
    # a negative last pivot: the solution's scale is made positive
    x = inverse(M([[0, 1], [1, 0]]))
    assert "_row_form" in x.__dict__
    assert_forms_are_fresh(x)
    assert x._row_form == (((0, 1), 1), ((1, 0), 1))
    assert_forms_are_fresh(inverse(M([[3, 1], [5, 2]]).scale(Fraction(1, 7))))


@pytest.mark.parametrize("use", [
    rank,
    _rref,
    kernel_basis,
    lambda m: solve(m, RationalMatrix.identity(m.rows)),
    lambda m: m @ m,
    lambda m: select_independent_rows(m),
    lambda m: complete_to_invertible(m.take_rows([0])),
])
def test_readers_leave_kept_forms_unchanged(use):
    mat = built(M([[2, Fraction(1, 3), 0], [1, 1, 1], [0, 5, Fraction(-1, 2)]]))
    before = {name: getattr(mat, name) for name in FORMS}
    copies = {name: repr(form) for name, form in before.items()}
    use(mat)
    use(mat)
    for name in FORMS:
        assert getattr(mat, name) is before[name]
        assert repr(getattr(mat, name)) == copies[name]
    assert_forms_are_fresh(mat)


def test_identity_is_shared_per_size():
    assert RationalMatrix.identity(3) is RationalMatrix.identity(3)
    assert RationalMatrix.identity(3) == M([[1, 0, 0], [0, 1, 0], [0, 0, 1]])


def test_public_constructors_keep_their_checks():
    with pytest.raises(DimensionMismatchError):
        RationalMatrix(2, 2, (1, 2, 3))
    with pytest.raises(DimensionMismatchError):
        M([[1, 2], [3]])
    with pytest.raises(DimensionMismatchError):
        M([[1, 2]], cols=3)
    with pytest.raises(DimensionMismatchError):
        M([])
    with pytest.raises(DimensionMismatchError):
        RationalMatrix.identity(-1)
    with pytest.raises(DimensionMismatchError):
        RationalMatrix.zeros(-1, 2)
    with pytest.raises(IndexError):
        RationalMatrix.identity(2).take_cols([2])
    assert M([], cols=2) == RationalMatrix(0, 2, ())
    mixed = RationalMatrix(1, 3, (1, "1/2", Fraction(2, 4)))
    assert all(type(e) is Fraction for e in mixed.entries)
    assert mixed._row_form == (((2, 1, 1), 2),)
