"""Exact dense rational matrices and the structural operations built on them.

Every structural decision in this package (rank tests, kernels, inverses,
basis completions) is made over exact rationals, on Python integers.  A
matrix stores only its row form, each row as integers over the lcm of its
denominators; the form is canonical, so equality and hashing read it, and
every operation here builds its result's form from its operands' forms.
The `Fraction` entries are a view made on first read; float rows are read
off the form as `ints / scale`, correctly rounded like `float(Fraction)`.
One fraction-free (Bareiss) elimination of the integer rows gives rank and
pivot columns, which a matrix keeps, and, with the entries above the pivots
cleared too, the reduced row echelon form that kernel, inverse and solve read.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from itertools import chain
from typing import Iterable, Sequence

from .errors import (
    DimensionMismatchError,
    InvalidArgumentError,
    OverflowDivergenceError,
    RankDeficientInputError,
    SingularMatrixError,
)

RationalLike = Fraction | int | str
_ZERO = Fraction(0)


def as_fraction(value: RationalLike) -> Fraction:
    """Coerce ints, strings like '2/3', and Fractions to Fraction."""
    if isinstance(value, Fraction):
        return value
    return Fraction(value)


@dataclass(frozen=True)
class RationalMatrix:
    """Immutable dense matrix of exact rationals, stored as its row form."""

    rows: int
    cols: int
    _row_form: tuple[tuple[tuple[int, ...], int], ...]

    def __init__(self, rows: int, cols: int, entries: Sequence[RationalLike]):
        entries = tuple(map(as_fraction, entries))
        if rows < 0 or cols < 0 or len(entries) != rows * cols:
            raise DimensionMismatchError(f"{len(entries)} entries for {rows}x{cols}")
        self.__dict__.update(rows=rows, cols=cols, entries=entries, _row_form=tuple(
            _cleared(entries[i * cols:(i + 1) * cols]) for i in range(rows)))

    @classmethod
    def _of(cls, rows: int, cols: int, form) -> "RationalMatrix":
        """A matrix made in this module from its canonical row form: no checks."""
        mat = object.__new__(cls)
        mat.__dict__.update(rows=rows, cols=cols, _row_form=form)
        return mat

    @cached_property
    def entries(self) -> tuple[Fraction, ...]:
        return _entries(self._row_form)

    @cached_property
    def _pivots(self) -> tuple[int, ...]:
        return _eliminate(self)[1]

    def __repr__(self) -> str:
        return (f"RationalMatrix(rows={self.rows!r}, cols={self.cols!r}, "
                f"entries={self.entries!r})")

    # -- construction -----------------------------------------------------

    @staticmethod
    def from_rows(rows: Sequence[Sequence[RationalLike]],
                  cols: int | None = None) -> "RationalMatrix":
        """Build from an iterable of rows; `cols` disambiguates empty input."""
        rows = [tuple(as_fraction(e) for e in r) for r in rows]
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise DimensionMismatchError("ragged rows")
            if cols is not None and cols != width:
                raise DimensionMismatchError("cols does not match row width")
            cols = width
        elif cols is None:
            raise DimensionMismatchError("empty matrix needs explicit cols")
        return RationalMatrix(len(rows), cols, [e for r in rows for e in r])

    @staticmethod
    @cache
    def identity(n: int) -> "RationalMatrix":
        """The n x n identity: one shared instance per n, which keeps its forms."""
        return RationalMatrix(n, n, [int(i == j) for i in range(n) for j in range(n)])

    @staticmethod
    def zeros(rows: int, cols: int) -> "RationalMatrix":
        if rows < 0 or cols < 0:
            raise DimensionMismatchError("negative matrix dimension")
        return RationalMatrix._of(rows, cols, (((0,) * cols, 1),) * rows)

    # -- access ------------------------------------------------------------

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(key)
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return _entries(self._row_form[i:i + 1])

    def col(self, j: int) -> tuple[Fraction, ...]:
        return self.entries[j::self.cols]

    def to_float_rows(self) -> tuple[tuple[float, ...], ...]:
        try:  # int true division is correctly rounded, as float(Fraction) is
            return tuple(tuple(v / s for v in ints) for ints, s in self._row_form)
        except OverflowError as err:  # an entry with no float form
            raise OverflowDivergenceError(
                f"a coefficient is past the float range: {err}") from err

    # -- algebra -----------------------------------------------------------

    def transpose(self) -> "RationalMatrix":
        cols, common = _columns(self._row_form, self.cols)
        return RationalMatrix._of(self.cols, self.rows, tuple(
            _canonical(c, common) for c in cols))

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise DimensionMismatchError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        # dot products of the rows with the columns of the right factor's rows
        # over their common scale; each row of them gives a row form
        cols, common = _columns(other._row_form, other.cols)
        return RationalMatrix._of(self.rows, other.cols, tuple(
            _canonical([sum(map(operator.mul, a, b)) for b in cols], sa * common)
            for a, sa in self._row_form))

    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatchError("shape mismatch in addition")
        # the rows of (self | other) have one scale each: add their halves
        return RationalMatrix._of(self.rows, self.cols, tuple(
            _canonical(list(map(operator.add, ints[:self.cols], ints[self.cols:])), s)
            for ints, s in hstack(self, other)._row_form))

    def scale(self, factor: RationalLike) -> "RationalMatrix":
        return self.scale_cols([factor] * self.cols)

    def scale_cols(self, factors: Sequence[RationalLike]) -> "RationalMatrix":
        """The matrix with column j multiplied by factors[j]."""
        if len(factors) != self.cols:
            raise DimensionMismatchError("one factor per column is needed")
        mults, common = _cleared([as_fraction(f) for f in factors])
        return RationalMatrix._of(self.rows, self.cols, tuple(
            _canonical(list(map(operator.mul, ints, mults)), s * common)
            for ints, s in self._row_form))

    def submatrix(self, row_indices: Iterable[int],
                  col_indices: Iterable[int]) -> "RationalMatrix":
        return self.take_rows(row_indices).take_cols(col_indices)

    def take_rows(self, indices: Iterable[int]) -> "RationalMatrix":
        picked = tuple(self._row_form[i] for i in _in_range(indices, self.rows))
        return RationalMatrix._of(len(picked), self.cols, picked)

    def take_cols(self, indices: Iterable[int]) -> "RationalMatrix":
        ci = _in_range(indices, self.cols)
        return RationalMatrix._of(self.rows, len(ci), tuple(
            _canonical([ints[j] for j in ci], s) for ints, s in self._row_form))

    def is_identity(self) -> bool:
        return self.rows == self.cols and self == RationalMatrix.identity(self.rows)

    def __str__(self) -> str:
        body = "; ".join(
            ", ".join(str(e) for e in self.row(i)) for i in range(self.rows))
        return f"[{body}]"


def hstack(left: RationalMatrix, right: RationalMatrix) -> RationalMatrix:
    if left.rows != right.rows:
        raise DimensionMismatchError("hstack row mismatch")
    # two canonical rows over the lcm of their scales join to a canonical row
    return RationalMatrix._of(left.rows, left.cols + right.cols, tuple(
        (_lifted(a, sa, s := math.lcm(sa, sb)) + _lifted(b, sb, s), s)
        for (a, sa), (b, sb) in zip(left._row_form, right._row_form)))


def vstack(top: RationalMatrix, bottom: RationalMatrix) -> RationalMatrix:
    if top.cols != bottom.cols:
        raise DimensionMismatchError("vstack column mismatch")
    return RationalMatrix._of(top.rows + bottom.rows, top.cols,
                              top._row_form + bottom._row_form)


def column_matrix(vec: Sequence[RationalLike]) -> RationalMatrix:
    return RationalMatrix(len(vec), 1, tuple(vec))


def mat_vec(mat: RationalMatrix, vec: Sequence[RationalLike]) -> tuple[Fraction, ...]:
    return (mat @ column_matrix(vec)).entries


def vec_mat(vec: Sequence[RationalLike], mat: RationalMatrix) -> tuple[Fraction, ...]:
    return (RationalMatrix(1, len(vec), tuple(vec)) @ mat).entries


# -- elimination kernels ----------------------------------------------------

def _cleared(values: Sequence[Fraction]) -> tuple[tuple[int, ...], int]:
    """A rational vector as integers over one scale, the lcm of its reduced
    denominators; no prime divides the scale and all the integers, so equal
    vectors give equal pairs."""
    pairs = [e.as_integer_ratio() for e in values]
    scale = math.lcm(*[d for _, d in pairs])
    return tuple([a * (scale // d) for a, d in pairs]), scale


def _canonical(ints: Sequence[int], scale: int) -> tuple[tuple[int, ...], int]:
    """The `_cleared` pair of the vector ints / scale, for nonzero scale."""
    g = math.gcd(*ints, scale) * (1 if scale > 0 else -1)
    return tuple([v // g for v in ints]), scale // g


def _in_range(indices: Iterable[int], bound: int) -> list[int]:
    picked = list(indices)
    if not all(0 <= i < bound for i in picked):
        raise IndexError(f"index out of range({bound}): {picked}")
    return picked


def _lifted(ints: tuple[int, ...], scale: int, common: int) -> tuple[int, ...]:
    """The integers of the vector ints / scale over `common`, a multiple of scale."""
    return ints if scale == common else tuple([v * (common // scale) for v in ints])


def _columns(form, width: int) -> tuple[list[tuple[int, ...]], int]:
    """The columns of a row form as integers over the lcm of its scales."""
    common = math.lcm(*[s for _, s in form])
    cols = list(zip(*[_lifted(ints, s, common) for ints, s in form]))
    return (cols if form else [()] * width), common


def _entries(form) -> tuple[Fraction, ...]:
    """The entries of a row form; zeros and integers are made cheaply."""
    return tuple(chain.from_iterable(
        map(Fraction, ints) if s == 1 else
        [Fraction(v, s) if v else _ZERO for v in ints] for ints, s in form))


def _eliminate(mat: RationalMatrix,
               reduced: bool = False) -> tuple[list[list[int]], tuple[int, ...]]:
    """Fraction-free (Bareiss) elimination on denominator-cleared rows.

    Returns the integer rows and the pivot columns; the pivot rows come
    first.  Each update divides by the previous pivot, and that division is
    exact because every entry is a minor of the cleared matrix (Bareiss,
    Math. Comp. 22 (1968) 565-578).  The forward sweep alone gives rank and
    pivots; `reduced` also clears the entries above each pivot, which leaves
    every pivot row with the last pivot as its leading entry.  The rows are
    copies of the matrix's row form, which stays as it was; the pivots are
    the same for both sweeps, and the matrix keeps them.
    """
    rows = [list(r) for r, _ in mat._row_form]
    m = mat.rows
    pivots: list[int] = []
    prev = 1
    for c in range(mat.cols):
        r = len(pivots)
        if r == m:
            break
        piv = next((i for i in range(r, m) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        row_r = rows[r]
        pivot = row_r[c]
        for i in range(0 if reduced else r + 1, m):
            if i == r:
                continue
            row_i = rows[i]
            lead = row_i[c]
            # rows below the pivot row hold only zeros left of column c; a row
            # with a zero lead is only rescaled, so its zero entries stay zero
            for j in range(0 if i < r else c, mat.cols):
                if lead or row_i[j]:
                    q, rem = divmod(pivot * row_i[j] - lead * row_r[j], prev)
                    if rem:
                        raise AssertionError(
                            "fraction-free elimination lost exactness")
                    row_i[j] = q
        prev = pivot
        pivots.append(c)
    return rows, mat.__dict__.setdefault("_pivots", tuple(pivots))


def rank(mat: RationalMatrix) -> int:
    """Exact rank: the pivot count of the forward elimination."""
    return len(mat._pivots)


def _rref(mat: RationalMatrix) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (rows, pivot columns).

    Each pivot row of the fraction-free reduced form is divided once by its
    pivot.
    """
    rows, pivots = _eliminate(mat, reduced=True)
    out = [[Fraction(a, row[c]) if a else _ZERO for a in row]
           for row, c in zip(rows, pivots)]
    out += [[_ZERO] * mat.cols for _ in range(mat.rows - len(pivots))]
    return out, list(pivots)


def kernel_basis(mat: RationalMatrix) -> list[tuple[Fraction, ...]]:
    """Basis of the right kernel, one vector per non-pivot column.

    Vectors are exact, linearly independent, and normalized so the first
    nonzero entry equals 1.  Returns the empty list at full column rank.
    """
    rows, pivots = _rref(mat)
    free = [c for c in range(mat.cols) if c not in pivots]
    basis: list[tuple[Fraction, ...]] = []
    for f in free:
        v = [Fraction(0)] * mat.cols
        v[f] = Fraction(1)
        for k, p in enumerate(pivots):
            v[p] = -rows[k][f]
        lead = next(e for e in v if e)
        basis.append(tuple(e / lead for e in v))
    return basis


def inverse(mat: RationalMatrix) -> RationalMatrix:
    """Exact inverse: the solution X of mat @ X = I."""
    if mat.rows != mat.cols:
        raise DimensionMismatchError("inverse needs a square matrix")
    return solve(mat, RationalMatrix.identity(mat.rows))


def solve(mat: RationalMatrix, rhs: RationalMatrix) -> RationalMatrix:
    """Solve mat @ X = rhs exactly for square invertible mat.

    X is read off the reduced form of the augmented matrix (mat | rhs).
    """
    if mat.rows != mat.cols:
        raise DimensionMismatchError("solve needs a square matrix")
    if rhs.rows != mat.rows:
        raise DimensionMismatchError("right-hand side row mismatch")
    n = mat.rows
    aug, pivots = _eliminate(hstack(mat, rhs), reduced=True)
    if pivots[:n] != tuple(range(n)):
        raise SingularMatrixError(
            f"coefficient matrix has rank {sum(p < n for p in pivots)} < {n}")
    # every pivot row of the reduced form leads with the last pivot
    return RationalMatrix._of(n, rhs.cols, tuple(
        _canonical(row[n:], aug[-1][n - 1]) for row in aug))


def select_independent_rows(mat: RationalMatrix,
                            count: int | None = None) -> list[int]:
    """Greedily pick linearly independent row indices in ascending order.

    Row i is picked when it is independent of the rows before it, which
    makes the picks the pivot columns of the transpose.
    """
    pivots = mat.transpose()._pivots
    target = len(pivots) if count is None else count
    if len(pivots) < target:
        raise RankDeficientInputError(
            f"only {len(pivots)} independent rows, needed {target}")
    return list(pivots[:target])


def complete_to_invertible(partial: RationalMatrix,
                           side: str = "below") -> RationalMatrix:
    """Extend a full-rank block to a square invertible matrix.

    The added rows (side 'below'/'above') or columns ('right'/'left') are the
    first standard basis vectors, in index order, that keep the rank growing,
    so the completion is deterministic.  Raises RankDeficientInputError when
    the block is not of full row rank (resp. column rank).
    """
    if side in ("right", "left"):
        return complete_to_invertible(
            partial.transpose(), "below" if side == "right" else "above").transpose()
    if side not in ("below", "above"):
        raise InvalidArgumentError(f"unknown side {side!r}")

    n, k = partial.cols, partial.rows
    if k > n:
        raise DimensionMismatchError("block is taller than its width")
    # the pivot columns of (partial^T | I) are the block's rows, when they are
    # independent, then the greedy choice of standard basis vectors
    pivots = hstack(partial.transpose(), RationalMatrix.identity(n))._pivots
    if pivots[:k] != tuple(range(k)):
        raise RankDeficientInputError("block does not have full row rank")
    added = RationalMatrix.identity(n).take_rows([p - k for p in pivots[k:]])
    return vstack(partial, added) if side == "below" else vstack(added, partial)
