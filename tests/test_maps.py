"""QP map construction, dynamics, Jacobians and fixed points."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qpmaps import (
    QPMap,
    State,
    find_interior_fixed_point,
    iterate,
    jacobian,
    mmatrix,
    quasimonomials,
    step,
)
from qpmaps.errors import (
    DimensionMismatchError,
    DuplicateQuasimonomialsError,
    FixedPointNotFound,
    NonPositiveStateError,
    OverflowDivergenceError,
)
from qpmaps.linalg import RationalMatrix
from qpmaps.sampling import make_rng, random_positive_state, random_qp_map

M = RationalMatrix.from_rows


def lv1d(lam=1, a=-1):
    return QPMap(lam=(lam,), A=M([[a]]), B=M([[1]]))


def zero_field(n):
    return QPMap(lam=(0,) * n, A=RationalMatrix.zeros(n, n),
                 B=RationalMatrix.identity(n))


def test_state_validation():
    with pytest.raises(NonPositiveStateError):
        State((1.0, 0.0))
    with pytest.raises(NonPositiveStateError):
        State((1.0, -2.0))
    with pytest.raises(NonPositiveStateError):
        State((float("inf"),))
    assert State((1, 2)).x == (1.0, 2.0)


def test_duplicate_rows_rejected_with_hint():
    with pytest.raises(DuplicateQuasimonomialsError, match="merge_degenerate_qms"):
        QPMap(lam=(0, 0), A=RationalMatrix.zeros(2, 2),
              B=M([[1, 0], [1, 0]]))


def test_shape_validation():
    with pytest.raises(DimensionMismatchError):
        QPMap(lam=(0,), A=RationalMatrix.zeros(2, 1), B=M([[1]]))
    with pytest.raises(DimensionMismatchError):
        QPMap(lam=(0,), A=RationalMatrix.zeros(1, 2), B=M([[1]]))


def test_mmatrix_layout():
    qp = QPMap(lam=(1, 2), A=M([[3, 4], [5, 6]]), B=RationalMatrix.identity(2))
    assert mmatrix(qp) == M([[1, 3, 4], [2, 5, 6]])


def test_quasimonomial_examples():
    qp = zero_field(2)
    assert quasimonomials(qp, State((2.0, 3.0))) == (2.0, 3.0)
    qp = QPMap(lam=(0, 0), A=RationalMatrix.zeros(2, 2), B=M([[1, 1], [1, 0]]))
    assert quasimonomials(qp, State((2.0, 3.0))) == pytest.approx((6.0, 2.0))
    qp = QPMap(lam=(0, 0), A=RationalMatrix.zeros(2, 1), B=M([[-1, 2]]))
    assert quasimonomials(qp, State((2.0, 3.0))) == pytest.approx((4.5,))


def test_step_examples():
    assert step(zero_field(1), State((5.0,))).x == (5.0,)
    assert step(lv1d(), State((1.0,))).x == pytest.approx((1.0,))
    assert step(lv1d(), State((2.0,))).x == pytest.approx((2 * math.exp(-1),))


def test_iterate_examples():
    traj = iterate(zero_field(2), State((1.5, 2.5)), 10)
    assert all(s.x == (1.5, 2.5) for s in traj)
    traj = iterate(lv1d(), State((1.0,)), 5)
    assert all(abs(s[0] - 1.0) < 1e-12 for s in traj)
    traj = iterate(lv1d(), State((2.0,)), 2)
    x1 = 2 * math.exp(-1)
    assert traj[1].x == pytest.approx((x1,))
    assert traj[2].x == pytest.approx((x1 * math.exp(1 - x1),))


def test_overflow_reports_step_index():
    runaway = lv1d(lam=5, a=5)
    with pytest.raises(OverflowDivergenceError) as info:
        iterate(runaway, State((10.0,)), 50)
    assert info.value.step_index is not None
    assert info.value.step_index >= 1


def test_jacobian_examples():
    assert jacobian(zero_field(2), State((1.5, 0.5))) == ((1.0, 0.0), (0.0, 1.0))
    assert jacobian(lv1d(), State((1.0,)))[0][0] == pytest.approx(0.0, abs=1e-14)
    assert jacobian(lv1d(), State((2.0,)))[0][0] == pytest.approx(-math.exp(-1))


def fd_jacobian(qp, s, h_rel=1e-6):
    """Central finite differences; the independent oracle for jacobian()."""
    n = qp.n
    cols = []
    for l in range(n):
        h = h_rel * s[l]
        up = list(s.x)
        dn = list(s.x)
        up[l] += h
        dn[l] -= h
        fu = step(qp, State(tuple(up)))
        fd = step(qp, State(tuple(dn)))
        cols.append([(a - b) / (2 * h) for a, b in zip(fu, fd)])
    return [[cols[l][i] for l in range(n)] for i in range(n)]


def test_jacobian_matches_finite_differences():
    rng = make_rng("fd-jacobian")
    for _ in range(40):
        n = rng.randint(1, 3)
        m = rng.randint(1, 4)
        qp = random_qp_map(rng, n, m, max_num=2, max_den=2)
        s = random_positive_state(rng, n, 0.5, 2.0)
        try:
            analytic = jacobian(qp, s)
            approx = fd_jacobian(qp, s)
        except OverflowDivergenceError:
            continue
        scale = max(1.0, max(abs(v) for row in analytic for v in row))
        worst = max(abs(a - b) for ra, rb in zip(analytic, approx)
                    for a, b in zip(ra, rb))
        assert worst / scale < 1e-6


def test_step_commutes_with_variable_permutation():
    rng = make_rng("permutation")
    for _ in range(25):
        n = rng.randint(2, 4)
        m = rng.randint(1, 4)
        qp = random_qp_map(rng, n, m, max_num=1, max_den=2)
        perm = list(range(n))
        rng.shuffle(perm)
        lam_p = tuple(qp.lam[perm[i]] for i in range(n))
        a_p = RationalMatrix.from_rows(
            [[qp.A[perm[i], j] for j in range(m)] for i in range(n)], cols=m)
        b_p = RationalMatrix.from_rows(
            [[qp.B[j, perm[k]] for k in range(n)] for j in range(m)], cols=n)
        permuted = QPMap(lam=lam_p, A=a_p, B=b_p)
        s = random_positive_state(rng, n, 0.5, 2.0)
        s_p = State(tuple(s[perm[i]] for i in range(n)))
        try:
            out = step(qp, s)
            out_p = step(permuted, s_p)
        except OverflowDivergenceError:
            continue
        for i in range(n):
            assert out_p[i] == pytest.approx(out[perm[i]], rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.data())
def test_positivity_invariance(n, data):
    rng = make_rng(f"positivity-{n}-{data.draw(st.integers(0, 10**6))}")
    qp = random_qp_map(rng, n, rng.randint(1, 4), max_num=2, max_den=2)
    s = random_positive_state(rng, n, 0.5, 2.0)
    try:
        traj = iterate(qp, s, 20)
    except OverflowDivergenceError:
        return
    assert all(v > 0.0 for st_ in traj for v in st_)


def test_fixed_point_examples():
    assert find_interior_fixed_point(lv1d()).x == pytest.approx((1.0,))
    qp = QPMap(lam=(1, 1), A=M([[-1, 0], [0, -2]]), B=RationalMatrix.identity(2))
    assert find_interior_fixed_point(qp).x == pytest.approx((1.0, 0.5))
    with pytest.raises(FixedPointNotFound):
        find_interior_fixed_point(lv1d(lam=1, a=1))


def test_fixed_point_dimension_guard():
    qp = QPMap(lam=(0,), A=RationalMatrix.zeros(1, 2), B=M([[1], [2]]))
    with pytest.raises(DimensionMismatchError):
        find_interior_fixed_point(qp)


def test_fixed_point_residual_certificate():
    rng = make_rng("fixed-points")
    found = 0
    while found < 10:
        n = rng.randint(1, 3)
        lam = tuple(Fraction(rng.randint(1, 3)) for _ in range(n))
        diag = [Fraction(-rng.randint(1, 3)) for _ in range(n)]
        a = RationalMatrix.from_rows(
            [[diag[i] if i == j else Fraction(0) for j in range(n)]
             for i in range(n)], cols=n)
        qp = QPMap(lam=lam, A=a, B=RationalMatrix.identity(n))
        fp = find_interior_fixed_point(qp)
        nxt = step(qp, fp)
        resid = max(abs(x - y) for x, y in zip(nxt, fp)) / max(fp)
        assert resid < 1e-9
        found += 1


def test_overflow_beyond_double_range_is_divergence():
    # with exp_bound above ~709.78, math.exp itself overflows; that must
    # still surface as the package's divergence error
    qp = QPMap(lam=(800,), A=M([[0]]), B=M([[1]]))
    with pytest.raises(OverflowDivergenceError):
        step(qp, State((1.0,)), exp_bound=1000)
    qp = QPMap(lam=(0,), A=M([[1]]), B=M([[800]]))
    with pytest.raises(OverflowDivergenceError):
        step(qp, State((math.e,)), exp_bound=1000)


def test_fixed_point_lets_unexpected_errors_through(monkeypatch):
    import qpmaps.maps

    def broken_solve(mat, rhs):
        raise ZeroDivisionError("not a singularity")

    monkeypatch.setattr(qpmaps.maps, "solve", broken_solve)
    with pytest.raises(ZeroDivisionError):
        find_interior_fixed_point(lv1d())


def test_fixed_point_beyond_the_float_range_is_divergence():
    # q = 10 solves lam + A q = 0, and x = q**1000 overflows a double
    qp = QPMap(lam=(10,), A=M([[-1]]), B=M([[Fraction(1, 1000)]]))
    with pytest.raises(OverflowDivergenceError):
        find_interior_fixed_point(qp)


def test_divergence_carries_the_orbit_before_it(monkeypatch):
    import qpmaps.maps

    calls = []
    real_step = qpmaps.maps.step

    def counting_step(*args, **kwargs):
        calls.append(1)
        return real_step(*args, **kwargs)

    monkeypatch.setattr(qpmaps.maps, "step", counting_step)
    # x' = x exp(x): from 5 the first argument is 5, the second 5 e^5 > 700
    qp = QPMap(lam=(0,), A=M([[1]]), B=M([[1]]))
    with pytest.raises(OverflowDivergenceError) as info:
        iterate(qp, State((5.0,)), 10)
    assert info.value.step_index == 2
    assert info.value.states == [State((5.0,)), real_step(qp, State((5.0,)))]
    assert len(calls) == 2
