"""Exponential (QP) and Euler discretizations of continuous QP systems.

Both schemes share the per-step field xi_i = eps*lam*_i + sum_j eps*A*_ij q_j:
the QP discretization updates x_i' = x_i exp(xi_i) and stays a QP map, the
Euler scheme updates x_i' = x_i (1 + xi_i) and can leave the positive orthant.
They share interior fixed points and the Jacobians there, and they agree to
first order in eps along orbits.  Only the exponential family commutes with
quasimonomial changes of variables at the matrix level; the harness here
probes other update shapes pointwise and reports discrepancies instead of
assuming any of this.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, Sequence

from .errors import (
    DimensionMismatchError,
    FixedPointNotFound,
    InvalidArgumentError,
    ModelFileError,
    NotApplicableError,
    OrbitEscapedError,
    OverflowDivergenceError,
)
from .maps import (
    QPFlow,
    QPMap,
    QPSystem,
    State,
    _field,
    _jacobian_rows,
    find_interior_fixed_point,
    jacobian,
    step,
)
from .reduction import lv_canonical_flow, to_lv_canonical
from .transforms import QMTransform, apply_qm, phi, phi_inverse

EULER_FIXED_POINT_TOL = 1e-10
JACOBIAN_MATCH_TOL = 1e-12


def coerce_horizon(value, field: str = "horizon_time",
                   nonzero: bool = False) -> Fraction:
    """A horizon or step count (number or rational string) as a Fraction >= 0."""
    try:
        v = Fraction(value)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError) as err:
        raise ModelFileError(f"invalid rational {value!r}", field=field) from err
    if v < 0 or (nonzero and v == 0):
        rule = "positive" if nonzero else "finite and nonnegative"
        raise ModelFileError(f"must be {rule}, got {value!r}", field=field)
    return v


def coerce_eps(eps, field: str = "eps") -> Fraction:
    """A time step (number or rational string) as a positive Fraction."""
    return coerce_horizon(eps, field, nonzero=True)


@dataclass(frozen=True)
class EulerMap(QPSystem):
    """Euler-discretized system; deliberately not a QPMap.

    The additive update rule breaks form invariance and positivity, so the
    transform and reduction machinery rejects this type.
    """


def _scaled(flow: QPFlow, e: Fraction):
    """(eps lam*, eps A*): the coefficients of every discretization of a flow."""
    return tuple(e * v for v in flow.lam), flow.A.scale(e)


def qp_discretize(flow: QPFlow, eps) -> QPMap:
    """QP map with lam = eps*lam*, A = eps*A*, same B; exact for rational eps."""
    return QPMap(*_scaled(flow, coerce_eps(eps)), flow.B)


def euler_discretize(flow: QPFlow, eps) -> EulerMap:
    return EulerMap(*_scaled(flow, coerce_eps(eps)), flow.B)


@dataclass(frozen=True)
class EulerStepResult:
    values: tuple[float, ...]
    positive: bool


def euler_step(em: EulerMap, s: State) -> EulerStepResult:
    """One Euler update x_i (1 + lam_i + sum_j A_ij q_j); may be nonpositive."""
    values = _family_update(DiscretizationFamily.euler_add(), em, s)
    positive = all(math.isfinite(v) and v > 0.0 for v in values)
    return EulerStepResult(values=values, positive=positive)


def euler_jacobian(em: EulerMap, s: State) -> tuple[tuple[float, ...], ...]:
    """Analytic Jacobian of the Euler update at a positive state."""
    q, xi = _field(em, s)
    return _jacobian_rows(em, s, q, [1.0] * em.n, [1.0 + f for f in xi])


# -- trajectory comparison ----------------------------------------------------


@dataclass(frozen=True)
class DivergenceSeries:
    """Per-step sup-norm gap between the two discretizations of one flow."""

    eps: Fraction
    times: tuple[float, ...]
    qp_states: tuple[tuple[float, ...], ...]
    euler_states: tuple[tuple[float, ...], ...]
    sup_diffs: tuple[float, ...]

    @property
    def terminal(self) -> float:
        return self.sup_diffs[-1]


def compare_discretizations(flow: QPFlow, eps, s0: State,
                            horizon_time: float) -> DivergenceSeries:
    """Run both schemes with the same eps up to p*eps <= horizon_time.

    Raises OrbitEscapedError naming the scheme and step as soon as either
    orbit leaves the positive orthant or the float range.
    """
    e = coerce_eps(eps)
    qp = qp_discretize(flow, e)
    em = euler_discretize(flow, e)
    n_steps = math.floor(coerce_horizon(horizon_time) / e + Fraction(1e-9))
    times = [0.0]
    qp_traj = [tuple(s0.x)]
    euler_traj = [tuple(s0.x)]
    diffs = [0.0]
    x_qp = s0
    x_e = s0
    for p in range(1, n_steps + 1):
        try:
            x_qp = step(qp, x_qp)
        except OverflowDivergenceError as err:
            raise OrbitEscapedError(
                f"exponential-scheme orbit diverged at step {p}: {err}",
                scheme="qp", step_index=p) from err
        res = euler_step(em, x_e)
        if not res.positive:
            raise OrbitEscapedError(
                f"Euler orbit left the positive orthant at step {p}",
                scheme="euler", step_index=p)
        x_e = State._checked(res.values)
        times.append(p * float(e))
        qp_traj.append(tuple(x_qp.x))
        euler_traj.append(tuple(x_e.x))
        diffs.append(max((abs(a - b) for a, b in zip(x_qp, x_e)), default=0.0))
    return DivergenceSeries(eps=e, times=tuple(times),
                            qp_states=tuple(qp_traj),
                            euler_states=tuple(euler_traj),
                            sup_diffs=tuple(diffs))


# -- shared fixed points ------------------------------------------------------


@dataclass(frozen=True)
class FixedPointCoincidence:
    """Outcome of checking that both schemes fix the same interior point."""

    status: str                       # "ok" or "skipped"
    reason: str | None = None
    fixed_point: tuple[float, ...] | None = None
    euler_residual: float | None = None
    jacobian_max_diff: float | None = None

    @property
    def euler_fixes_point(self) -> bool:
        return (self.status == "ok"
                and self.euler_residual < EULER_FIXED_POINT_TOL)

    @property
    def jacobians_match(self) -> bool:
        return (self.status == "ok"
                and self.jacobian_max_diff < JACOBIAN_MATCH_TOL)


def check_fixed_point_coincidence(flow: QPFlow, eps) -> FixedPointCoincidence:
    """Locate the QP discretization's interior fixed point and test the Euler map on it."""
    if flow.m != flow.n:
        return FixedPointCoincidence(
            status="skipped",
            reason=f"fixed-point solving needs m = n (got m={flow.m}, n={flow.n})")
    e = coerce_eps(eps)
    qp = qp_discretize(flow, e)
    em = euler_discretize(flow, e)
    try:
        fp = find_interior_fixed_point(qp)
    except FixedPointNotFound as err:
        return FixedPointCoincidence(status="skipped", reason=str(err))
    res = euler_step(em, fp)
    # sup-norms over the empty state (n = 0) read 0
    scale = max((abs(v) for v in fp), default=1.0)
    e_resid = max((abs(a - b) for a, b in zip(res.values, fp)),
                  default=0.0) / scale
    j_qp = jacobian(qp, fp)
    j_eu = euler_jacobian(em, fp)
    j_diff = max((abs(a - b) for ra, rb in zip(j_qp, j_eu)
                  for a, b in zip(ra, rb)), default=0.0)
    return FixedPointCoincidence(status="ok", fixed_point=tuple(fp.x),
                                 euler_residual=e_resid,
                                 jacobian_max_diff=j_diff)


# -- commutation with changes of variables -------------------------------------


class FamilyKind(Enum):
    QP_EXP = "qp-exp"
    EULER_ADD = "euler-add"
    POWER_BASE = "power-base"
    CUSTOM_MULTIPLICATIVE = "custom-multiplicative"
    CUSTOM_ADDITIVE = "custom-additive"


@dataclass(frozen=True)
class DiscretizationFamily:
    """One update shape g: x' = x*g(xi), or x' = x + g(xi) for CUSTOM_ADDITIVE."""

    kind: FamilyKind
    shape: Callable[[float], float]
    label: str = ""

    def __post_init__(self):
        if not callable(self.shape):
            raise InvalidArgumentError(f"{self.kind.value}: the shape is not callable")
        if not self.label:
            object.__setattr__(self, "label", self.kind.value)

    @staticmethod
    def qp_exp() -> "DiscretizationFamily":
        return DiscretizationFamily(FamilyKind.QP_EXP, math.exp)

    @staticmethod
    def euler_add() -> "DiscretizationFamily":
        return _EULER_ADD

    @staticmethod
    def power_base(a: float) -> "DiscretizationFamily":
        if not a > 0.0:
            raise InvalidArgumentError("power family needs a positive base")
        return DiscretizationFamily(FamilyKind.POWER_BASE, lambda xi: a ** xi,
                                    label=f"power-base({a:g})")

    @staticmethod
    def custom_multiplicative(label: str, shape) -> "DiscretizationFamily":
        return DiscretizationFamily(FamilyKind.CUSTOM_MULTIPLICATIVE,
                                    shape=shape, label=label)

    @staticmethod
    def custom_additive(label: str, shape) -> "DiscretizationFamily":
        return DiscretizationFamily(FamilyKind.CUSTOM_ADDITIVE,
                                    shape=shape, label=label)


_EULER_ADD = DiscretizationFamily(FamilyKind.EULER_ADD, lambda xi: 1.0 + xi)


@dataclass(frozen=True)
class CommutativityVerdict:
    family: str
    mode: str                      # "exact-matrix" or "pointwise"
    commutes: bool
    max_discrepancy: float | None = None
    witness: tuple[float, ...] | None = None
    note: str = ""


def _family_update(family: DiscretizationFamily, qp: QPSystem,
                   s: State) -> tuple[float, ...]:
    """One step of the family's update shape; raw output vector.

    Only the coefficients of `qp` are read: (eps lam*, eps A*, B) of the
    discretized flow.
    """
    g = family.shape
    xi = _field(qp, s)[1]
    if family.kind is FamilyKind.CUSTOM_ADDITIVE:
        return tuple(x + g(f) for x, f in zip(s, xi))
    return tuple(x * g(f) for x, f in zip(s, xi))


def _default_probe_states(n: int) -> list[State]:
    grid = itertools.product((0.5, 1.0, 2.0), repeat=n)
    return [State(pt) for pt in grid]


def check_commutativity(flow: QPFlow, t: QMTransform, eps,
                        family: DiscretizationFamily,
                        states: Sequence[State] | None = None
                        ) -> CommutativityVerdict:
    """Compare discretize-then-transform against transform-then-discretize.

    The exponential family (and any fixed power base a > 0, since a**xi =
    exp(xi ln a) with the same ln a factor on both routes) is compared at the
    exact matrix level.  Every other family is compared pointwise on a grid
    of positive states; the verdict reports the largest discrepancy found,
    never a claim beyond the sampled evidence (NotApplicableError if none).
    """
    e = coerce_eps(eps)
    if t.n != flow.n:
        raise DimensionMismatchError("transform size does not match flow")

    # each route discretized once; the pointwise probes read their float forms
    disc = qp_discretize(flow, e)
    disc_t = qp_discretize(apply_qm(flow, t), e)
    if family.kind in (FamilyKind.QP_EXP, FamilyKind.POWER_BASE):
        note = ""
        if family.kind is FamilyKind.POWER_BASE:
            note = ("common factor ln(base) absorbed into the coefficients "
                    "on both routes")
        return CommutativityVerdict(family=family.label, mode="exact-matrix",
                                    commutes=(apply_qm(disc, t) == disc_t),
                                    note=note)

    probes = list(states) if states is not None else _default_probe_states(flow.n)
    worst = 0.0
    witness: tuple[float, ...] | None = None
    compared = 0
    for z in probes:
        try:
            route_a = _family_update(family, disc_t, z)
            x = phi_inverse(t, z)
            raw = _family_update(family, disc, x)
            route_b = phi(t, State(raw))
        except (OverflowDivergenceError, ValueError, OverflowError):
            continue
        compared += 1
        gap = max((abs(a - b) for a, b in zip(route_a, route_b)), default=0.0)
        if gap > worst:
            worst = gap
            witness = tuple(z.x)
    if compared == 0:
        raise NotApplicableError(
            "no probe state was computable on both routes")
    return CommutativityVerdict(family=family.label, mode="pointwise",
                                commutes=(worst == 0.0),
                                max_discrepancy=worst, witness=witness,
                                note=f"{compared} probe states compared")


def canonicalization_commutes(flow: QPFlow, eps) -> bool:
    """Exact check: LV-canonicalizing then discretizing equals the reverse order."""
    e = coerce_eps(eps)
    lhs, _ = to_lv_canonical(qp_discretize(flow, e))
    rhs = qp_discretize(lv_canonical_flow(flow), e)
    return lhs == rhs
