"""Quasimonomial changes of variables, conjugacy checks and class equivalence.

A quasimonomial transform replaces the variables through x_i = prod_j y_j^C[i][j]
with invertible C.  It preserves the quasipolynomial form, acting on the
matrices as A' = C^-1 A, B' = B C, lam' = C^-1 lam, and it is a topological
conjugacy of the dynamics on the positive orthant.  The product B (lam | A)
is unchanged by every such transform, which makes it a complete equivalence
invariant for non-redundant maps of equal size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .errors import (
    DimensionMismatchError,
    NotApplicableError,
    NotNonRedundantError,
    NotSameClassError,
)
from .linalg import (
    RationalMatrix,
    inverse,
    mat_vec,
    rank,
    select_independent_rows,
    solve,
)
from .maps import (QPFlow, QPMap, QPSystem, State, mmatrix, power_terms,
                   power_values, step)


@dataclass(frozen=True)
class QMTransform:
    """Invertible exponent matrix C defining a quasimonomial change of variables."""

    C: RationalMatrix
    c_inv: RationalMatrix = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.C.rows != self.C.cols:
            raise DimensionMismatchError("transform matrix must be square")
        object.__setattr__(self, "c_inv", inverse(self.C))

    @property
    def n(self) -> int:
        return self.C.rows

    @cached_property
    def _power_terms(self) -> tuple[tuple, tuple]:
        """power_terms of the float rows of (C, C^-1), built on first use."""
        return (power_terms(self.C.to_float_rows()),
                power_terms(self.c_inv.to_float_rows()))

    def inverse_transform(self) -> "QMTransform":
        """The transform by C^-1, from the stored pair without inverting."""
        t = object.__new__(QMTransform)
        t.__dict__.update(C=self.c_inv, c_inv=self.C)
        return t


def require_conjugable(qp: QPSystem) -> None:
    """Reject systems whose update rule quasimonomial transforms do not preserve.

    Maps and flows are form-invariant; an Euler map's additive update is not,
    so the transform and reduction machinery refuses it.
    """
    if not isinstance(qp, (QPMap, QPFlow)):
        raise NotApplicableError(
            f"{type(qp).__name__} is not form-invariant under quasimonomial "
            "transforms; only maps and flows are")


def apply_qm(qp: QPSystem, t: QMTransform) -> QPSystem:
    """Transformed system with A' = C^-1 A, B' = B C, lam' = C^-1 lam, all exact.

    Maps and flows follow the same rules and keep their type.  Since C is
    invertible, B C keeps distinct rows distinct, so the result never needs
    degeneracy merging.
    """
    require_conjugable(qp)
    if t.n != qp.n:
        raise DimensionMismatchError(
            f"transform is {t.n}x{t.n} but the map has n={qp.n}")
    return type(qp)(mat_vec(t.c_inv, qp.lam), t.c_inv @ qp.A, qp.B @ t.C)


apply_qm_flow = apply_qm


def phi(t: QMTransform, s: State) -> State:
    """New coordinates y with y_i = prod_j x_j^(C^-1)[i][j], in log space."""
    if t.n != len(s):
        raise DimensionMismatchError("state length does not match transform")
    return State(tuple(power_values(t._power_terms[1], s)))


def phi_inverse(t: QMTransform, s: State) -> State:
    """Original coordinates x_i = prod_j y_j^C[i][j]."""
    if t.n != len(s):
        raise DimensionMismatchError("state length does not match transform")
    return State(tuple(power_values(t._power_terms[0], s)))


def conjugacy_residual(map_f: QPMap, map_g: QPMap, t: QMTransform,
                       s: State) -> float:
    """Relative sup-norm defect of phi . F = G . phi at one state.

    The exponent structure is checked exactly first (same sizes and
    B_G = B_F C); coefficient differences between the two maps are what the
    residual measures.
    """
    if map_f.n != map_g.n or map_f.m != map_g.m:
        raise DimensionMismatchError("maps have different sizes")
    if t.n != map_f.n:
        raise DimensionMismatchError("transform size does not match the maps")
    if map_f.B @ t.C != map_g.B:
        raise NotSameClassError(
            "exponent matrices are not related by this transform")
    lhs = phi(t, step(map_f, s))
    rhs = step(map_g, phi(t, s))
    scale = max(abs(v) for v in lhs)
    return max(abs(a - b) for a, b in zip(lhs, rhs)) / scale


def class_invariant(qp: QPSystem) -> RationalMatrix:
    """The m x (m+1) product B (lam | A), identical across an equivalence class."""
    return qp.B @ mmatrix(qp)


flow_class_invariant = class_invariant


def same_class(map1: QPMap, map2: QPMap) -> QMTransform | None:
    """Decide equivalence of two non-redundant maps of equal size.

    Returns the unique transform t with apply_qm(map1, t) == map2 when the
    invariants B M agree exactly, and None otherwise.  Both maps must be in
    non-redundant form (m >= n with B and M of full rank n); full rank of M
    is required for the invariant to be decisive.
    """
    if map1.n != map2.n or map1.m != map2.m:
        raise DimensionMismatchError(
            f"maps have sizes (n={map1.n}, m={map1.m}) and "
            f"(n={map2.n}, m={map2.m}); reduce to equal sizes first")
    n, m = map1.n, map1.m
    if m < n:
        raise NotNonRedundantError("maps must satisfy m >= n")
    for tag, qp in (("first", map1), ("second", map2)):
        if rank(qp.B) != n or rank(mmatrix(qp)) != n:
            raise NotNonRedundantError(
                f"{tag} map is not in non-redundant form "
                "(B and (lam|A) must both have rank n)")
    if class_invariant(map1) != class_invariant(map2):
        return None
    pivot_rows = select_independent_rows(map1.B, n)
    c = solve(map1.B.take_rows(pivot_rows), map2.B.take_rows(pivot_rows))
    if map1.B @ c != map2.B:
        return None
    t = QMTransform(c)
    if apply_qm(map1, t) != map2:
        return None
    return t
