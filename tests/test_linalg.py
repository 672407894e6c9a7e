"""Exact rational matrix operations: frozen examples plus hypothesis properties."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from qpmaps.errors import (
    DimensionMismatchError,
    OverflowDivergenceError,
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


# -- the row form is the stored representation -------------------------------------


def any_shape(max_dim=3):
    """Matrices of every shape up to max_dim, the 0 x k and k x 0 ones included."""
    return st.tuples(st.integers(0, max_dim), st.integers(0, max_dim)).flatmap(
        lambda shape: rows_of(*shape))


def every_producer(a, b, square, factors):
    """Each operation that builds its result's row form from its operands'."""
    return {
        "matmul": a @ b,
        "solve": solve(square, square @ b),
        "inverse": inverse(square),
        "transpose": a.transpose(),
        "hstack": hstack(a, a.scale(2)),
        "vstack": vstack(a, a.scale(Fraction(1, 3))),
        "submatrix": a.submatrix(range(a.rows)[::-1], range(a.cols)[::2]),
        "take_rows": a.take_rows(list(range(a.rows)) * 2),
        "take_cols": a.take_cols(range(a.cols)[::-1]),
        "zeros": RationalMatrix.zeros(a.rows, a.cols),
        "identity": RationalMatrix.identity(a.cols),
        "scale": a.scale(Fraction(-3, 4)),
        "scale-zero": a.scale(0),
        "scale_cols": a.scale_cols(factors),
        "add": a + a.scale(Fraction(-1, 2)),
        "add-cancelling": a + a.scale(-1),
    }


def rows_of_entries(mat):
    e, c = mat.entries, mat.cols
    return [list(e[i * c:(i + 1) * c]) for i in range(mat.rows)]


def fraction_product(x, y, cols):
    inner = len(y)
    return [[sum((row[t] * y[t][j] for t in range(inner)), Fraction(0))
             for j in range(cols)] for row in x]


def reference(a, b, square, factors):
    """The same results from plain `Fraction` arithmetic on the entries, as
    (rows, cols); the inverse is checked through its product instead."""
    rows, r, c = rows_of_entries(a), a.rows, a.cols
    zero = [[0] * c for _ in range(r)]
    return {
        "matmul": (fraction_product(rows, rows_of_entries(b), b.cols), b.cols),
        "solve": (rows_of_entries(b), b.cols),
        "transpose": ([[x[j] for x in rows] for j in range(c)], r),
        "hstack": ([x + [2 * v for v in x] for x in rows], 2 * c),
        "vstack": (rows + [[v / 3 for v in x] for x in rows], c),
        "submatrix": ([x[::2] for x in rows[::-1]], len(range(c)[::2])),
        "take_rows": (rows * 2, c),
        "take_cols": ([x[::-1] for x in rows], c),
        "zeros": (zero, c),
        "identity": ([[int(i == j) for j in range(c)] for i in range(c)], c),
        "scale": ([[v * Fraction(-3, 4) for v in x] for x in rows], c),
        "scale-zero": (zero, c),
        "scale_cols": ([[v * f for v, f in zip(x, factors)] for x in rows], c),
        "add": ([[v / 2 for v in x] for x in rows], c),
        "add-cancelling": (zero, c),
    }


@settings(max_examples=80, deadline=None)
@given(any_shape(), st.data())
def test_every_producer_agrees_with_the_public_constructor(a, data):
    b = data.draw(rows_of(a.cols, data.draw(st.integers(0, 3))))
    square = data.draw(rows_of(a.cols, a.cols))
    assume(rank(square) == a.cols)
    factors = data.draw(st.lists(frac, min_size=a.cols, max_size=a.cols))
    want = reference(a, b, square, factors)
    for name, mat in every_producer(a, b, square, factors).items():
        rows = rows_of_entries(mat)
        assert all(type(e) is Fraction for e in mat.entries), name
        assert mat._row_form == tuple(_cleared(r) for r in rows), name
        for same in (RationalMatrix(mat.rows, mat.cols, mat.entries),
                     M(rows, cols=mat.cols)):
            assert mat == same and hash(mat) == hash(same), name
        if name == "inverse":
            assert fraction_product(rows_of_entries(square), rows, a.cols) \
                == rows_of_entries(RationalMatrix.identity(a.cols))
        else:
            assert mat == M(*want[name]), name
        assert mat.to_float_rows() == tuple(
            tuple(float(e) for e in r) for r in rows), name
        huge = mat.scale(10**400)
        if any(mat.entries):
            with pytest.raises(OverflowDivergenceError):
                huge.to_float_rows()
        else:
            assert huge.to_float_rows() == mat.to_float_rows(), name


def test_scale_cols_examples():
    a = M([[1, 2], [3, Fraction(1, 2)]])
    assert a.scale_cols([Fraction(1, 2), 4]) == M([[Fraction(1, 2), 8], [Fraction(3, 2), 2]])
    assert a.scale_cols([0, 1]) == M([[0, 2], [0, Fraction(1, 2)]])
    with pytest.raises(DimensionMismatchError):
        a.scale_cols([1])


# numerators and denominators of up to about 1100 bits: quotients past the
# float range, subnormal ones, ones that round to zero, and everything between
wide = st.builds(Fraction, st.integers(-10**330, 10**330), st.integers(1, 10**330))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 3).flatmap(lambda c: st.lists(
    st.lists(wide, min_size=c, max_size=c), max_size=3).map(
        lambda rows: M(rows, cols=c))), st.data())
def test_float_rows_are_the_floats_of_the_entries_bit_for_bit(mat, data):
    # a product puts the entries over a common scale that is not theirs
    other = data.draw(rows_of(mat.cols, mat.cols))
    assume(rank(other) == mat.cols)
    for m in (mat, mat @ other):
        try:
            want = [[float(e).hex() for e in r] for r in rows_of_entries(m)]
        except OverflowError:
            with pytest.raises(OverflowDivergenceError):
                m.to_float_rows()
            continue
        assert [[v.hex() for v in r] for r in m.to_float_rows()] == want
