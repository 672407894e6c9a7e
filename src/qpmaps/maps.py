"""Quasipolynomial maps and flows: representation and floating-point dynamics.

A QP map updates each positive variable multiplicatively,

    x_i(p+1) = x_i(p) * exp(lam_i + sum_j A[i][j] * prod_k x_k(p)**B[j][k]),

so the positive orthant is invariant.  Coefficients are stored as exact
rationals (structural modules reuse them exactly).  Each system converts
them to floats once, on its first float use, and every float reader (step,
Jacobians, Euler and family updates) reads one kernel that computes the field
xi_i = lam_i + sum_j A[i][j] q_j as a correctly rounded fsum.  Quasimonomials
are evaluated in log space to avoid domain errors for non-integer exponents.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from typing import NamedTuple

from .errors import (
    DimensionMismatchError,
    DuplicateQuasimonomialsError,
    FixedPointNotFound,
    NonPositiveStateError,
    NotNonRedundantError,
    OverflowDivergenceError,
    SingularMatrixError,
)
from .linalg import (
    RationalMatrix,
    as_fraction,
    column_matrix,
    hstack,
    inverse,
    rank,
    solve,
)

# Arguments of exp() beyond this magnitude are treated as divergence; the
# positive side would overflow double precision near 709, the negative side
# would underflow x' to exactly 0 and silently break positivity.
DEFAULT_EXP_BOUND = 700.0

FIXED_POINT_RESIDUAL = 1e-9

# the largest argument that math.exp takes without raising OverflowError
EXP_MAX = math.log(sys.float_info.max)


def ordered_sum(terms) -> float:
    """The floats added left to right on every Python (from 3.12 `sum` compensates)."""
    return reduce(operator.add, terms, 0.0)


def checked_exp(t: float) -> float:
    """exp(t), raising OverflowDivergenceError where it would overflow."""
    if t > EXP_MAX:
        raise OverflowDivergenceError(
            f"exp argument {t:.6g} is past the float range", argument=t)
    return math.exp(t)


@dataclass(frozen=True)
class State:
    """Strictly positive, finite state vector."""

    x: tuple[float, ...]

    def __post_init__(self):
        vals = tuple(float(v) for v in self.x)
        object.__setattr__(self, "x", vals)
        for i, v in enumerate(vals):
            if not (math.isfinite(v) and v > 0.0):
                raise NonPositiveStateError(
                    f"component {i} = {v!r} is not strictly positive and finite")

    @classmethod
    def _checked(cls, x: tuple[float, ...]) -> "State":
        """A State of floats the caller has just found finite and positive."""
        s = object.__new__(cls)
        object.__setattr__(s, "x", x)
        return s

    def __len__(self) -> int:
        return len(self.x)

    def __iter__(self):
        return iter(self.x)

    def __getitem__(self, i: int) -> float:
        return self.x[i]

    def logs(self) -> tuple[float, ...]:
        return tuple(math.log(v) for v in self.x)


def power_terms(rows: tuple[tuple[float, ...], ...]) -> tuple:
    """Per row of float exponents: the index j when the row is the basis
    vector e_j, else its nonzero (k, c) pairs."""
    out = []
    for row in rows:
        pairs = tuple((k, c) for k, c in enumerate(row) if c)
        unit = len(pairs) == 1 and pairs[0][1] == 1.0
        out.append(pairs[0][0] if unit else pairs)
    return tuple(out)


def power_values(terms: tuple, s: State, bound: float = math.inf) -> list[float]:
    """prod_k x_k**c_k for each row of power_terms, in log space.

    A unit row e_j gives x_j itself, exactly, and needs no logs.  A log-value
    above `bound`, or past the float range, raises OverflowDivergenceError.
    """
    logs = None
    out = []
    for term in terms:
        if type(term) is int:
            out.append(s.x[term])
            continue
        if logs is None:
            logs = s.logs()
        t = math.fsum([c * logs[k] for k, c in term])
        if t > bound:
            raise OverflowDivergenceError(
                f"quasimonomial log-value {t:.3g} exceeds bound {bound}",
                argument=t)
        out.append(checked_exp(t))
    return out


class FloatForm(NamedTuple):
    """The float data every orbit reader uses, built once per system."""

    lam: tuple[float, ...]
    a_terms: tuple[tuple[tuple[int, float], ...], ...]  # nonzero (j, A_ij)
    b_terms: tuple                                      # power_terms of B


@dataclass(frozen=True)
class QPSystem:
    """The validated data (lam, A, B) shared by maps, flows and Euler maps.

    `lam` has length n, `A` is n x m, `B` is m x n.  Duplicate rows of B are
    rejected because equal exponent rows describe the same quasimonomial;
    build through merge_degenerate_qms when the raw data may contain them.
    The subclasses differ only in how the data is read, so structural code
    reads `.lam`, `.A` and `.B` on any of them; equality stays per type.
    """

    lam: tuple[Fraction, ...]
    A: RationalMatrix
    B: RationalMatrix

    def __post_init__(self):
        object.__setattr__(self, "lam", tuple(as_fraction(v) for v in self.lam))
        n, a, b = len(self.lam), self.A, self.B
        if a.rows != n:
            raise DimensionMismatchError(f"A has {a.rows} rows, expected n={n}")
        if b.cols != n:
            raise DimensionMismatchError(f"B has {b.cols} cols, expected n={n}")
        if b.rows != a.cols:
            raise DimensionMismatchError(
                f"A has {a.cols} cols but B has {b.rows} rows; both must equal m")
        keys = b._row_form  # equal rows have equal integer forms
        if len(set(keys)) < len(keys):
            j = next(j for j, key in enumerate(keys) if key in keys[:j])
            raise DuplicateQuasimonomialsError(
                f"rows {keys.index(keys[j])} and {j} of B are identical; "
                "merge them with merge_degenerate_qms")

    @property
    def n(self) -> int:
        return len(self.lam)

    @property
    def m(self) -> int:
        return self.B.rows

    @cached_property
    def _mmatrix(self) -> RationalMatrix:
        # kept, so that its integer forms and pivots are built once per system
        return hstack(column_matrix(self.lam), self.A)

    @cached_property
    def _float_form(self) -> FloatForm:
        # built on first float use, never in __post_init__: the structural
        # code builds many systems it never steps
        try:
            return FloatForm(
                lam=tuple(float(v) for v in self.lam),
                a_terms=tuple(tuple((j, a) for j, a in enumerate(row) if a)
                              for row in self.A.to_float_rows()),
                b_terms=power_terms(self.B.to_float_rows()))
        except OverflowError as err:
            raise OverflowDivergenceError(
                f"a coefficient is past the float range: {err}") from err


@dataclass(frozen=True)
class QPMap(QPSystem):
    """Discrete-time quasipolynomial mapping with exact rational matrices."""


@dataclass(frozen=True, init=False)
class QPFlow(QPSystem):
    """Continuous-time quasipolynomial system; coefficients are per unit time.

    The constructor takes the starred names of the continuous-time notation,
    and `lam_star` and `A_star` stay readable as aliases of `lam` and `A`.
    """

    def __init__(self, lam_star: tuple[Fraction, ...], A_star: RationalMatrix,
                 B: RationalMatrix) -> None:
        QPSystem.__init__(self, lam_star, A_star, B)

    lam_star = property(lambda self: self.lam)
    A_star = property(lambda self: self.A)


def mmatrix(obj: QPSystem) -> RationalMatrix:
    """The n x (m+1) coefficient matrix (lam | A), one per system."""
    return obj._mmatrix


def _field(qp: QPSystem, s: State, exp_bound: float = DEFAULT_EXP_BOUND
           ) -> tuple[list[float], list[float]]:
    """The quasimonomials q and the field xi_i = lam_i + sum_j A[i][j] q_j.

    Every float reader derives from this one kernel; each xi_i is one
    correctly rounded fsum over the nonzero terms.
    """
    if len(s) != qp.n:
        raise DimensionMismatchError(f"state length {len(s)} != n={qp.n}")
    form = qp._float_form
    q = power_values(form.b_terms, s, exp_bound)
    try:
        xi = [math.fsum([lam_i] + [a * q[j] for j, a in terms])
              for lam_i, terms in zip(form.lam, form.a_terms)]
    except (OverflowError, ValueError) as err:  # past the range, or inf - inf
        raise OverflowDivergenceError(
            f"the field left the float range: {err}") from err
    return q, xi


def quasimonomials(qp: QPSystem, s: State) -> tuple[float, ...]:
    """Evaluate all m quasimonomials prod_k x_k**B[j][k] at the state."""
    return tuple(_field(qp, s)[0])


def step(qp: QPMap, s: State, exp_bound: float = DEFAULT_EXP_BOUND) -> State:
    """One update of the map; strictly positive output or OverflowDivergenceError."""
    out = []
    for i, arg in enumerate(_field(qp, s, exp_bound)[1]):
        if abs(arg) > exp_bound:
            raise OverflowDivergenceError(
                f"exponent argument {arg:.3g} for variable {i} exceeds "
                f"bound {exp_bound}", argument=arg)
        v = s[i] * checked_exp(arg)  # only an exp_bound above 709.78 can fail
        if not (math.isfinite(v) and v > 0.0):
            raise OverflowDivergenceError(
                f"variable {i} left the positive float range (value {v!r})",
                argument=arg)
        out.append(v)
    return State._checked(tuple(out))


def iterate(qp: QPMap, s0: State, steps: int,
            exp_bound: float = DEFAULT_EXP_BOUND) -> list[State]:
    """Orbit [s0, F(s0), ..., F^steps(s0)]; failures carry step and states."""
    traj = [s0]
    cur = s0
    for k in range(steps):
        try:
            cur = step(qp, cur, exp_bound)
        except OverflowDivergenceError as err:
            diverged = OverflowDivergenceError(
                f"orbit diverged at step {k + 1}: {err}",
                argument=err.argument, step_index=k + 1)
            diverged.states = traj
            raise diverged from err
        traj.append(cur)
    return traj


def _jacobian_rows(qp: QPSystem, s: State, q: list[float], gain: list[float],
                   diag: list[float]) -> tuple[tuple[float, ...], ...]:
    """Entries x_i gain_i sum_j A[i][j] B[j][l] q_j / x_l + delta_il diag_i."""
    form = qp._float_form
    rows = []
    for i, terms in enumerate(form.a_terms):
        inner = [0] * qp.n  # nonzero terms only, in a dense sum's order of j
        for j, a in terms:
            term = form.b_terms[j]
            if type(term) is int:  # B[j] is the unit row e_term
                inner[term] += a * q[j]
            else:
                for l, b in term:
                    inner[l] += a * b * q[j]
        row = [s[i] * gain[i] * v / s[l] for l, v in enumerate(inner)]
        row[i] += diag[i]
        rows.append(tuple(row))
    return tuple(rows)


def jacobian(qp: QPMap, s: State) -> tuple[tuple[float, ...], ...]:
    """Analytic Jacobian of one map step at the state.

    Entry (i, l) is d x_i' / d x_l =
        delta_il * E_i + x_i * E_i * sum_j A[i][j] B[j][l] q_j / x_l
    with E_i = exp(lam_i + sum_j A[i][j] q_j).
    """
    q, xi = _field(qp, s)
    exps = [checked_exp(f) for f in xi]
    return _jacobian_rows(qp, s, q, exps, exps)


def find_interior_fixed_point(qp: QPMap) -> State:
    """Interior fixed point of a non-redundant map with m = n.

    Solves lam + A q = 0 exactly; when every q_j is positive, recovers x from
    B log x = log q in floating point.  Raises FixedPointNotFound when A is
    singular, some q_j <= 0, q, B^-1 or the map's coefficients have no float
    form, or the residual check fails.
    """
    if qp.m != qp.n:
        raise DimensionMismatchError(
            f"fixed-point solving needs m = n, got m={qp.m}, n={qp.n}")
    n = qp.n
    if n == 0:
        return State(())
    try:
        q_col = solve(qp.A, column_matrix([-v for v in qp.lam]))
    except SingularMatrixError as err:
        raise FixedPointNotFound(
            f"coefficient matrix is singular for the quasimonomial system: {err}"
        ) from err
    q = [q_col[j, 0] for j in range(n)]
    if any(v <= 0 for v in q):
        raise FixedPointNotFound(
            "the quasimonomial system has no strictly positive solution")
    if rank(qp.B) < n:
        raise NotNonRedundantError(
            "B is singular; reduce or embed the map before fixed-point solving")
    try:  # ValueError: a q_j that rounds to 0.0 has no log
        b_inv = inverse(qp.B).to_float_rows()
        log_q = [math.log(float(v)) for v in q]
    except (OverflowDivergenceError, OverflowError, ValueError) as err:
        raise FixedPointNotFound(
            f"the fixed point's data is past the float range: {err}") from err
    fp = State(tuple(checked_exp(ordered_sum(b * lq for b, lq in zip(row, log_q)))
                     for row in b_inv))
    try:
        nxt = step(qp, fp)
    except OverflowDivergenceError as err:  # coefficients with no float form
        raise FixedPointNotFound(f"the map cannot be stepped in floats: {err}") from err
    scale = max(abs(v) for v in fp)
    resid = max(abs(a - b) for a, b in zip(nxt, fp)) / scale
    if resid >= FIXED_POINT_RESIDUAL:
        raise FixedPointNotFound(
            f"candidate fixed point has residual {resid:.3g}")
    return fp
