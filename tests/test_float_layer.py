"""The float layer: one float form per system, and every reader against a reference.

The references here are written from the defining formulas with plain float
lists and math.fsum, independently of the package's float form and kernel.
"""

import gc
import math
import random
from fractions import Fraction

import pytest

from qpmaps import (
    DiscretizationFamily,
    EulerMap,
    QMTransform,
    QPFlow,
    QPMap,
    State,
    check_commutativity,
    check_fixed_point_coincidence,
    euler_discretize,
    euler_jacobian,
    euler_step,
    iterate,
    jacobian,
    phi,
    phi_inverse,
    qp_discretize,
    quasimonomials,
    step,
)
from qpmaps.discretization import _family_update
from qpmaps.errors import FixedPointNotFound, OverflowDivergenceError
from qpmaps.maps import _field, find_interior_fixed_point
from qpmaps.linalg import RationalMatrix
from qpmaps.sampling import (
    random_flow,
    random_fraction,
    random_invertible_transform,
    random_positive_state,
)

M = RationalMatrix.from_rows
RTOL = 1e-13
FD_RTOL = 1e-5


# -- independent reference ------------------------------------------------------


def ref_system(qp, eps=Fraction(1)):
    lam = [float(eps * v) for v in qp.lam]
    a = [[float(eps * qp.A[i, j]) for j in range(qp.m)] for i in range(qp.n)]
    b = [[float(qp.B[j, k]) for k in range(qp.n)] for j in range(qp.m)]
    return lam, a, b


def ref_field(system, x):
    lam, a, b = system
    logs = [math.log(v) for v in x]
    q = [math.exp(math.fsum(bk * lk for bk, lk in zip(row, logs))) for row in b]
    return [math.fsum([lam[i]] + [c * qj for c, qj in zip(a[i], q)])
            for i in range(len(lam))]


def ref_update(system, x, shape, additive=False):
    xi = ref_field(system, x)
    if additive:
        return [v + shape(f) for v, f in zip(x, xi)]
    return [v * shape(f) for v, f in zip(x, xi)]


def ref_step(system, x):
    return ref_update(system, x, math.exp)


def ref_euler(system, x):
    return ref_update(system, x, lambda f: 1.0 + f)


def assert_close(got, want, x):
    # every reader's output is x_i times, or x_i plus, a function of xi_i,
    # so its rounding scales with x_i where the factor cancels toward 0
    assert len(got) == len(want)
    for g, w, xi in zip(got, want, x):
        assert abs(g - w) <= RTOL * max(abs(w), xi), (got, want)


def central_difference(update, x, h_rel=1e-5):
    n = len(x)
    cols = []
    for l in range(n):
        h = h_rel * x[l]
        up, down = list(x), list(x)
        up[l] += h
        down[l] -= h
        fu, fd = update(up), update(down)
        cols.append([(fu[i] - fd[i]) / (2 * h) for i in range(n)])
    return [[cols[l][i] for l in range(n)] for i in range(n)]


def assert_jacobian(jac, fd):
    scale = max(1.0, max(abs(v) for row in fd for v in row))
    for ra, rb in zip(jac, fd):
        for a, b in zip(ra, rb):
            assert abs(a - b) <= FD_RTOL * scale, (jac, fd)


def mixed_system(rng: random.Random, n: int = 3):
    """(lam, A, B) with two unit rows and two general rows in B, and zeros in A."""
    units = rng.sample(range(n), 2)
    b = [[int(k == j) for k in range(n)] for j in units]
    # leading entries keep the general rows apart from each other and from
    # the unit rows
    b.append([Fraction(1, 2)] + [random_fraction(rng, 2, 2) for _ in range(n - 1)])
    b.append([0, Fraction(-3, 2)]
             + [random_fraction(rng, 2, 2) for _ in range(n - 2)])
    m = len(b)
    a = [[0 if rng.random() < 0.3 else random_fraction(rng, 2, 3)
          for _ in range(m)] for _ in range(n)]
    a[0][0] = 0
    lam = tuple(random_fraction(rng, 2, 3) for _ in range(n))
    return lam, M(a, cols=m), M(b, cols=n)


# -- every reader against the reference -----------------------------------------


@pytest.mark.parametrize("seed", range(6))
def test_map_step_and_jacobian_match_the_reference(seed):
    rng = random.Random(f"float-ref:{seed}")
    qp = QPMap(*mixed_system(rng))
    system = ref_system(qp)
    for _ in range(4):
        s = random_positive_state(rng, qp.n, 0.5, 2.0)
        assert_close(step(qp, s).x, ref_step(system, s.x), s.x)
        assert_jacobian(jacobian(qp, s),
                        central_difference(lambda x: ref_step(system, x), s.x))


@pytest.mark.parametrize("seed", range(6))
def test_euler_step_and_jacobian_match_the_reference(seed):
    rng = random.Random(f"float-ref-euler:{seed}")
    em = EulerMap(*mixed_system(rng))
    system = ref_system(em)
    for _ in range(4):
        s = random_positive_state(rng, em.n, 0.5, 2.0)
        assert_close(euler_step(em, s).values, ref_euler(system, s.x), s.x)
        assert_jacobian(euler_jacobian(em, s),
                        central_difference(lambda x: ref_euler(system, x), s.x))


def dense_jacobian(qp, s, gain, diag):
    """Jacobian entries from the dense float rows of A and B: every inner sum
    adds all m terms, zeros included, one after another in increasing j."""
    q = _field(qp, s)[0]
    a, b = qp.A.to_float_rows(), qp.B.to_float_rows()
    rows = []
    for i in range(qp.n):
        row = []
        for l in range(qp.n):
            inner = 0
            for j in range(qp.m):
                inner += a[i][j] * b[j][l] * q[j]
            val = s[i] * gain[i] * inner / s[l]
            if i == l:
                val += diag[i]
            row.append(val)
        rows.append(tuple(row))
    return tuple(rows)


@pytest.mark.parametrize("seed", range(8))
def test_sparse_jacobians_equal_the_dense_sums(seed):
    rng = random.Random(f"dense-jacobian:{seed}")
    lam, a, b = mixed_system(rng, 3 + seed % 3)
    a = M([[0] * a.cols] + [a.row(i) for i in range(1, a.rows)], cols=a.cols)
    qp, em = QPMap(lam, a, b), EulerMap(lam, a, b)
    for _ in range(3):
        s = random_positive_state(rng, qp.n, 0.5, 2.0)
        exps = [math.exp(f) for f in _field(qp, s)[1]]
        assert jacobian(qp, s) == dense_jacobian(qp, s, exps, exps)
        xi = _field(em, s)[1]
        assert euler_jacobian(em, s) == dense_jacobian(
            em, s, [1.0] * em.n, [1.0 + f for f in xi])


# x' = x (10**400 - x): every float reader meets a coefficient past the range
HUGE_FLOW = QPFlow(lam_star=(10**400,), A_star=M([[-1]]), B=M([[1]]))


@pytest.mark.parametrize("read", [
    lambda: jacobian(QPMap(lam=(800,), A=M([[0]]), B=M([[1]])), State((1.0,))),
    lambda: euler_step(euler_discretize(HUGE_FLOW, 1), State((1.0,))),
    lambda: euler_jacobian(euler_discretize(HUGE_FLOW, 1), State((1.0,))),
    lambda: quasimonomials(HUGE_FLOW, State((1.0,))),
    lambda: step(qp_discretize(HUGE_FLOW, 1), State((1.0,))),
    # the field's terms are +inf and -inf
    lambda: step(QPMap(lam=(0,), A=M([[10**10, -10**10]]),
                       B=M([[2], [Fraction(201, 100)]])), State((1e151,))),
])
def test_float_range_overflow_is_divergence(read):
    with pytest.raises(OverflowDivergenceError):
        read()


def test_fixed_point_past_the_float_range_is_not_found():
    # q = 10**400 solves lam + A q = 0 and has no float form
    with pytest.raises(FixedPointNotFound):
        find_interior_fixed_point(qp_discretize(HUGE_FLOW, Fraction(1, 10)))
    rep = check_fixed_point_coincidence(HUGE_FLOW, Fraction(1, 10))
    assert rep.status == "skipped" and "float range" in rep.reason


def test_fixed_point_of_coefficients_past_the_float_range_is_skipped():
    # x = 1 is the fixed point, but lam and A have no float form to step with
    flow = QPFlow(lam_star=(10**400,), A_star=M([[-10**400]]), B=M([[1]]))
    with pytest.raises(FixedPointNotFound):
        find_interior_fixed_point(qp_discretize(flow, Fraction(1, 10)))
    rep = check_fixed_point_coincidence(flow, Fraction(1, 10))
    assert rep.status == "skipped" and "float range" in rep.reason
    assert rep.fixed_point is None and not rep.euler_fixes_point


FAMILIES = [
    (DiscretizationFamily.qp_exp(), math.exp, False),
    (DiscretizationFamily.euler_add(), lambda f: 1.0 + f, False),
    (DiscretizationFamily.power_base(2.0), lambda f: 2.0 ** f, False),
    (DiscretizationFamily.custom_multiplicative(
        "second-order", lambda f: 1.0 + f + f * f / 2), None, False),
    (DiscretizationFamily.custom_additive("identity", lambda f: f), None, True),
]


@pytest.mark.parametrize("family, shape, additive", FAMILIES,
                         ids=[f.label for f, _, _ in FAMILIES])
@pytest.mark.parametrize("seed", range(4))
def test_family_updates_match_the_reference(family, shape, additive, seed):
    rng = random.Random(f"float-ref-family:{seed}")
    lam, a, b = mixed_system(rng)
    flow = QPFlow(lam_star=lam, A_star=a, B=b)
    eps = Fraction(1, 10)
    system = ref_system(flow, eps)
    shape = shape or family.shape
    for _ in range(4):
        s = random_positive_state(rng, flow.n, 0.5, 2.0)
        assert_close(_family_update(family, qp_discretize(flow, eps), s),
                     ref_update(system, s.x, shape, additive), s.x)


# -- one float form per system ----------------------------------------------------


@pytest.fixture
def float_row_calls(monkeypatch):
    calls = []
    original = RationalMatrix.to_float_rows

    def counting(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(RationalMatrix, "to_float_rows", counting)
    return calls


def test_iterate_converts_the_matrices_once(float_row_calls):
    qp = QPMap(lam=(Fraction(1), Fraction(1, 2)),
               A=M([[-1, "1/4"], ["1/5", "-1/2"]]), B=M([[1, 0], [0, 1]]))
    traj = iterate(qp, State((0.8, 1.1)), 200)
    assert len(traj) == 201
    assert len(float_row_calls) <= 2
    iterate(qp, traj[-1], 200)
    jacobian(qp, traj[-1])
    assert len(float_row_calls) <= 2


def test_pointwise_commutativity_converts_once_per_system(float_row_calls):
    rng = random.Random("float-once:commute")
    flow = random_flow(rng, 3, 3)
    t = random_invertible_transform(rng, 3)
    del float_row_calls[:]
    verdict = check_commutativity(flow, t, Fraction(1, 20),
                                  DiscretizationFamily.euler_add())
    compared = int(verdict.note.split()[0])
    assert compared > 6
    # both discretized systems (A and B each) and the transform's pair
    assert len(float_row_calls) <= 6


def test_float_forms_do_not_cross_between_systems():
    s = State((0.7, 1.3))
    first = QPMap(lam=(1, -1), A=M([[-1, "1/2"], [0, -1]]), B=M([[1, 0], [0, 1]]))
    want = ref_step(ref_system(first), s.x)
    assert_close(step(first, s).x, want, s.x)
    del first
    gc.collect()
    second = QPMap(lam=("1/3", 2), A=M([[0, -1], ["1/4", "-1/2"]]),
                   B=M([[2, 1], [0, 1]]))
    want = ref_step(ref_system(second), s.x)
    assert_close(step(second, s).x, want, s.x)

    data = (("1/2", "-1/3"), M([[-1, "1/3"], ["1/2", 0]]), M([[1, 1], [0, 1]]))
    qp, em = QPMap(*data), EulerMap(*data)
    system = ref_system(qp)
    for _ in range(2):
        assert_close(step(qp, s).x, ref_step(system, s.x), s.x)
        assert_close(euler_step(em, s).values, ref_euler(system, s.x), s.x)


def test_inverse_transform_swaps_the_float_rows():
    c = M([[2, 1], [1, 1]])
    s = State((0.6, 1.7))
    fresh = QMTransform(c)
    built = QMTransform(c)
    phi(built, s)
    phi_inverse(built, s)
    for t in (fresh, built):
        inv = t.inverse_transform()
        assert phi(inv, s) == phi_inverse(t, s)
        assert phi_inverse(inv, s) == phi(t, s)


def test_iterate_does_not_check_its_states_again(monkeypatch):
    qp = QPMap(lam=(Fraction(1), Fraction(1, 2)),
               A=M([[-1, "1/4"], ["1/5", "-1/2"]]), B=M([[1, 0], [1, 1]]))
    s0 = State((0.8, 1.1))
    checks = []
    original = State.__post_init__

    def counting(self):
        checks.append(self)
        original(self)

    monkeypatch.setattr(State, "__post_init__", counting)
    traj = iterate(qp, s0, 200)
    assert len(traj) == 201
    # step has checked every component itself
    assert checks == []
    assert all(type(v) is float and v > 0.0 for s in traj for v in s)
