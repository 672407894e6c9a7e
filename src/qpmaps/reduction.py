"""Reduction to non-redundant form, embeddings, and Lotka-Volterra canonical forms.

A map is non-redundant when m >= n and both B and (lam | A) have full rank n.
Any map reaches that shape through three kinds of decoupling transforms:

  step 1  (m < n)          decouple variables absent from the quasimonomials,
  step 2  (rank B < n)     same construction driven by the kernel of B,
  step 3  (rank (lam|A) < n) decouple conserved coordinates; these are
                            quasimonomial constants of motion.

Each step applies an exact quasimonomial transform, drops the trailing
decoupled variables, rescales by the decoupled initial values where needed,
and merges quasimonomials that degenerate under the column deletion.  The
non-redundant map can then be conjugated to a Lotka-Volterra map (B = I)
whose coefficient matrix is the class invariant B (lam | A), going through a
dimension-raising embedding when m > n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .errors import (
    DimensionMismatchError,
    IllConditionedBlockError,
    InvalidArgumentError,
    NotApplicableError,
    NotNonRedundantError,
    OverflowDivergenceError,
    RankDeficientInputError,
)
from .linalg import (
    RationalMatrix,
    complete_to_invertible,
    inverse,
    kernel_basis,
    rank,
    vec_mat,
    vstack,
)
from .maps import QPFlow, QPMap, QPSystem, State, checked_exp, mmatrix, ordered_sum
from .transforms import QMTransform, apply_qm, phi, require_conjugable


class StepKind(Enum):
    STEP1 = "step1"
    STEP2 = "step2"
    STEP3 = "step3"


@dataclass(frozen=True)
class StepRecord:
    """One reduction event: the transform used and what it decoupled.

    `q_factors` holds the per-quasimonomial constants contributed by the
    decoupled initial values; it is present only on step-3 records.
    """

    kind: StepKind
    transform: QMTransform | None
    decoupled_indices: tuple[int, ...]
    q_factors: tuple[Fraction, ...] | None = None

    def __post_init__(self):
        if self.kind is not StepKind.STEP3 and self.q_factors is not None:
            raise InvalidArgumentError("q_factors only belong to step-3 records")


@dataclass(frozen=True)
class ConstantOfMotion:
    """Quasimonomial prod_k x_k**exponents[k] conserved along every orbit."""

    exponents: tuple[Fraction, ...]
    value: float | None = None


@dataclass(frozen=True)
class ReductionReport:
    original: QPMap
    final: QPMap
    steps: tuple[StepRecord, ...]
    constants: tuple[ConstantOfMotion, ...]


# -- quasimonomial bookkeeping ------------------------------------------------


def merge_degenerate_qms(lam, A: RationalMatrix, B: RationalMatrix) -> QPMap:
    """Build a QPMap from raw matrices, collapsing duplicate rows of B.

    Columns of A belonging to identical exponent rows are summed onto the
    first occurrence; row order is otherwise preserved.  This is the sanctioned
    way to construct a map from data that may describe a quasimonomial twice.
    """
    lam = tuple(Fraction(v) if not isinstance(v, Fraction) else v for v in lam)
    n = len(lam)
    if A.rows != n or B.cols != n or A.cols != B.rows:
        raise DimensionMismatchError("inconsistent lam/A/B shapes")
    # rows keyed by their integer forms; a dict keeps the first-occurrence order
    first: dict[tuple, int] = {}
    heads = [first.setdefault(key, j) for j, key in enumerate(B._row_form)]
    if len(first) == B.rows:  # no row repeats: A and B stay as they are
        return QPMap(lam=lam, A=A, B=B)
    groups = [[A.col(j) for j, h in enumerate(heads) if h == i] for i in first.values()]
    a = RationalMatrix.from_rows([map(sum, zip(*g)) for g in groups], cols=n)
    return QPMap(lam=lam, A=a.transpose(), B=B.take_rows(first.values()))


def _truncate(mapped: QPMap, r: int, q: tuple[Fraction, ...] | None) -> QPMap:
    """Drop trailing decoupled variables; scale columns by q; merge and fold.

    The column deletion can make exponent rows equal, which merge, and can
    leave an all-zero row: the constant quasimonomial 1, whose coefficient
    column is folded into lam.
    """
    a = mapped.A.take_rows(range(r))
    if q is not None:
        a = a.scale_cols(q)
    merged = merge_degenerate_qms(mapped.lam[:r], a, mapped.B.take_cols(range(r)))
    z = next((j for j, (ints, _) in enumerate(merged.B._row_form)
              if not any(ints)), None)
    if z is None:
        return merged
    keep = [j for j in range(merged.m) if j != z]
    lam = tuple(v + c for v, c in zip(merged.lam, merged.A.col(z)))
    return QPMap(lam=lam, A=merged.A.take_cols(keep),
                 B=merged.B.take_rows(keep))


# -- decoupling steps ---------------------------------------------------------


def _kernel_decouple(qp: QPMap, kind: StepKind
                     ) -> tuple[QPMap, StepRecord] | None:
    """Shared construction for steps 1 and 2; None when B has full column rank.

    Columns r+1..n of the transform are a kernel basis of B, so those
    variables disappear from every quasimonomial; the leading columns are the
    unit vectors that complete it, in ascending index order, which are the
    unit vectors of B's pivot columns.
    """
    n = qp.n
    kern = kernel_basis(qp.B)
    if not kern:
        return None
    r = n - len(kern)
    t = QMTransform(complete_to_invertible(
        RationalMatrix.from_rows(kern, cols=n), side="above").transpose())
    mapped = apply_qm(qp, t)
    if any(any(ints[r:]) for ints, _ in mapped.B._row_form):
        raise IllConditionedBlockError("kernel columns did not vanish")
    reduced = _truncate(mapped, r, None)
    record = StepRecord(kind=kind, transform=t,
                        decoupled_indices=tuple(range(r, n)))
    return reduced, record


def reduce_step1(qp: QPMap) -> tuple[QPMap, StepRecord] | None:
    """Reduce the m < n case; None when m >= n already holds."""
    if qp.m >= qp.n:
        return None
    return _kernel_decouple(qp, StepKind.STEP1)


def reduce_step2(qp: QPMap) -> tuple[QPMap, StepRecord] | None:
    """Bring B to full column rank; None when rank(B) = n already."""
    if qp.m < qp.n:
        raise DimensionMismatchError("m < n; run reduce_step1 first")
    return _kernel_decouple(qp, StepKind.STEP2)


def reduce_step3(qp: QPMap,
                 initial: State | None = None) -> tuple[QPMap, StepRecord] | None:
    """Decouple conserved coordinates until (lam | A) has full row rank.

    Builds the transform from a basis of the column space of (lam | A):
    complete it with unit columns, in ascending index order, to a basis F
    of R^n.  The projector that kills the column space then has the bottom
    n - r rows of F^-1 as its nonzero rows, in order; they form the bottom
    block of D.  Complete D to an invertible matrix and change variables by
    C = D^-1.  The trailing n - r variables of the transformed map are
    constants; each quasimonomial picks up the factor q_j contributed by
    those constant values (1 when no initial state is supplied), applied to
    its coefficient column.
    """
    n, m = qp.n, qp.m
    if m < n:
        raise DimensionMismatchError("m < n; run reduce_step1 first")
    if rank(qp.B) < n:
        raise RankDeficientInputError(
            "B must have full column rank; run reduce_step2 first")
    big_m = mmatrix(qp)
    col_pivots = big_m._pivots
    r = len(col_pivots)
    if r == n:
        return None

    basis_cols = big_m.take_cols(col_pivots)
    full_basis = complete_to_invertible(basis_cols, side="right")
    constraint = inverse(full_basis).take_rows(range(r, n))
    d = complete_to_invertible(constraint, side="above")
    t = QMTransform(d).inverse_transform()
    mapped = apply_qm(qp, t)
    new_m = mmatrix(mapped)
    if any(any(ints) for ints, _ in new_m._row_form[r:]):
        raise IllConditionedBlockError(
            "conserved rows of the coefficient matrix did not vanish")

    if initial is None:
        q = (Fraction(1),) * m
    else:
        y0 = phi(t, initial)
        b_rows = mapped.B.to_float_rows()
        vals = []
        for j in range(m):
            log_q = ordered_sum(b_rows[j][k] * math.log(y0[k]) for k in range(r, n))
            qf = checked_exp(log_q)
            if not (math.isfinite(qf) and qf > 0.0):
                raise OverflowDivergenceError(
                    f"initial-value factor for quasimonomial {j} left the "
                    f"float range ({qf!r})", argument=log_q)
            vals.append(Fraction(qf))
        q = tuple(vals)

    reduced = _truncate(mapped, r, q)
    record = StepRecord(kind=StepKind.STEP3, transform=t,
                        decoupled_indices=tuple(range(r, n)), q_factors=q)
    return reduced, record


# -- full reduction -----------------------------------------------------------


def push_state(record: StepRecord, s: State) -> State:
    """Image of a state under one reduction step (transform, then drop)."""
    y = phi(record.transform, s)
    keep = len(s) - len(record.decoupled_indices)
    return State(y.x[:keep])


def push_state_through(steps, s: State) -> State:
    for rec in steps:
        s = push_state(rec, s)
    return s


def apply_step(qp: QPMap, record: StepRecord) -> QPMap:
    """Replay one recorded step on a map; exact."""
    mapped = apply_qm(qp, record.transform)
    r = qp.n - len(record.decoupled_indices)
    return _truncate(mapped, r, record.q_factors)


def replay_steps(qp: QPMap, steps) -> QPMap:
    for rec in steps:
        qp = apply_step(qp, rec)
    return qp


def _pullback_exponents(steps, exponents) -> tuple[Fraction, ...]:
    """Rewrite a quasimonomial of a reduced stage in the original variables."""
    e = tuple(exponents)
    for rec in reversed(steps):  # the decoupled variables do not appear in it
        e = vec_mat(e + (0,) * (rec.transform.n - len(e)), rec.transform.c_inv)
    return e


def evaluate_constant(c: ConstantOfMotion, s: State) -> float:
    """Value of the quasimonomial prod_k x_k**e_k at a state, in log space."""
    if len(c.exponents) != len(s):
        raise DimensionMismatchError("exponent vector does not match state")
    # an exponent with no float form is an OverflowDivergenceError
    exps = RationalMatrix.from_rows([c.exponents], len(s)).to_float_rows()[0]
    return checked_exp(ordered_sum(e * lx for e, lx in zip(exps, s.logs()) if e))


def reduce(qp: QPMap, initial: State | None = None) -> ReductionReport:
    """Full reduction to non-redundant form with an exact audit trail.

    Runs step 1, or step 2 when step 1 does not apply (a step 1 that applies
    decouples the whole kernel of B), then step 3 until it finds nothing to
    decouple; each step strictly lowers the dimension.  Constants of motion
    discovered by step-3 passes are pulled back to the original variables;
    their values are filled in when an initial state is supplied.
    """
    require_conjugable(qp)
    if initial is not None and len(initial) != qp.n:
        raise DimensionMismatchError("initial state length does not match map")
    records: list[StepRecord] = []
    constants: list[ConstantOfMotion] = []
    cur, cur_state = qp, initial
    out = reduce_step1(cur) or reduce_step2(cur) or reduce_step3(cur, cur_state)
    while out is not None:
        if len(records) > qp.n:
            raise AssertionError("reduction exceeded its dimension cap")
        nxt, rec = out
        d = rec.transform.c_inv
        for j in range(nxt.n, cur.n) if rec.kind is StepKind.STEP3 else ():
            exps = _pullback_exponents(records, d.row(j))
            value = (evaluate_constant(ConstantOfMotion(exps), initial)
                     if initial is not None else None)
            constants.append(ConstantOfMotion(exponents=exps, value=value))
        cur = nxt
        records.append(rec)
        if cur_state is not None:
            cur_state = push_state(rec, cur_state)
        out = reduce_step3(cur, cur_state)

    final_m = mmatrix(cur)
    if not (cur.m >= cur.n and rank(cur.B) == cur.n and rank(final_m) == cur.n):
        raise AssertionError("reduction terminated on a redundant map")
    return ReductionReport(original=qp, final=cur, steps=tuple(records),
                           constants=tuple(constants))


# -- embedding and the Lotka-Volterra canonical form ---------------------------


def embed(qp: QPSystem) -> QPSystem:
    """Lift an m > n system to m variables by appending constant-1 coordinates.

    The new coordinates carry zero lam entries and zero coefficient rows, and
    B is extended on the right to an invertible m x m matrix by deterministic
    standard-basis completion.  On the level set where the appended
    coordinates equal 1, the embedded dynamics are the original dynamics.
    The result has the type of the input.
    """
    require_conjugable(qp)
    n, m = qp.n, qp.m
    if m == n:
        raise NotApplicableError("map already has m = n; nothing to embed")
    if m < n:
        raise NotApplicableError("embedding needs m > n; reduce the map first")
    if rank(qp.B) < n:
        raise RankDeficientInputError("B must have full column rank n")
    b_full = complete_to_invertible(qp.B, side="right")
    lam = qp.lam + (Fraction(0),) * (m - n)
    a_full = vstack(qp.A, RationalMatrix.zeros(m - n, m))
    return type(qp)(lam, a_full, b_full)


def to_lv_canonical(qp: QPSystem) -> tuple[QPSystem, tuple[ConstantOfMotion, ...]]:
    """Conjugate a non-redundant map or flow to its Lotka-Volterra form (B = I).

    For m = n this is the transform C = B^-1 and the result carries the exact
    coefficient matrix B (lam | A).  For m > n the system is embedded first;
    the resulting m-dimensional LV system has the same coefficient matrix and
    m - n independent quasimonomial constants of motion whose common level
    set {1, ..., 1} carries the original dynamics.  The result has the type
    of the input.
    """
    require_conjugable(qp)
    n, m = qp.n, qp.m
    if m < n:
        raise NotNonRedundantError("m >= n required; run reduce first")
    if rank(qp.B) != n:
        raise NotNonRedundantError(
            "B must have full column rank n; run reduce first")
    lifted = qp if m == n else embed(qp)
    t = QMTransform(lifted.B).inverse_transform()
    constants = tuple(
        ConstantOfMotion(exponents=t.C.row(j), value=1.0)
        for j in range(n, m))
    return apply_qm(lifted, t), constants


def lv_canonical_flow(flow: QPFlow) -> QPFlow:
    """Lotka-Volterra canonical form of a flow (B = I, coefficients B (lam*|A*))."""
    return to_lv_canonical(flow)[0]
