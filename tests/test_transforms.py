"""Quasimonomial transforms: form invariance, conjugacy and class equivalence."""

from fractions import Fraction

import pytest

from qpmaps import (
    QMTransform,
    QPMap,
    State,
    apply_qm,
    class_invariant,
    conjugacy_residual,
    iterate,
    mmatrix,
    phi,
    phi_inverse,
    same_class,
)
from qpmaps.errors import (
    DimensionMismatchError,
    NotNonRedundantError,
    OverflowDivergenceError,
    NotSameClassError,
    SingularMatrixError,
)
from qpmaps.linalg import RationalMatrix, rank
from qpmaps.sampling import (
    make_rng,
    random_invertible_transform,
    random_nonredundant_map,
    random_positive_state,
)
from conftest import sample_conjugacy_triple

M = RationalMatrix.from_rows


def test_transform_requires_invertible():
    with pytest.raises(SingularMatrixError):
        QMTransform(M([[1, 2], [2, 4]]))
    with pytest.raises(DimensionMismatchError):
        QMTransform(M([[1, 2]]))


def test_apply_qm_identity_and_example():
    qp = QPMap(lam=(1, 2), A=M([[1, 0], [0, 1]]), B=RationalMatrix.identity(2))
    ident = QMTransform(RationalMatrix.identity(2))
    assert apply_qm(qp, ident) == qp

    t = QMTransform(M([[2, 0], [0, 1]]))
    out = apply_qm(qp, t)
    assert out.B == M([[2, 0], [0, 1]])
    assert out.lam == (Fraction(1, 2), Fraction(2))
    assert out.A == M([[Fraction(1, 2), 0], [0, 1]])


def test_apply_qm_composition():
    rng = make_rng("composition")
    for _ in range(20):
        qp = random_nonredundant_map(rng, 2, 3)
        t1 = random_invertible_transform(rng, 2)
        t2 = random_invertible_transform(rng, 2)
        combined = QMTransform(t1.C @ t2.C)
        assert apply_qm(apply_qm(qp, t1), t2) == apply_qm(qp, combined)


def test_phi_examples_and_roundtrip():
    t = QMTransform(M([[2, 0], [0, 1]]))
    assert phi(t, State((4.0, 3.0))).x == pytest.approx((2.0, 3.0))
    ident = QMTransform(RationalMatrix.identity(2))
    s = State((1.37, 0.62))
    assert phi(ident, s).x == s.x

    rng = make_rng("phi-roundtrip")
    for _ in range(30):
        n = rng.randint(1, 4)
        t = random_invertible_transform(rng, n)
        s = random_positive_state(rng, n, 0.5, 2.0)
        back = phi_inverse(t, phi(t, s))
        for a, b in zip(back, s):
            assert a == pytest.approx(b, rel=1e-12)


def test_conjugacy_residual_identity_and_structure_guard():
    rng = make_rng("conjugacy-basic")
    qp = random_nonredundant_map(rng, 2, 2)
    ident = QMTransform(RationalMatrix.identity(2))
    assert conjugacy_residual(qp, qp, ident, State((1.5, 0.7))) < 1e-14
    other = QPMap(lam=qp.lam, A=qp.A, B=qp.B @ M([[2, 0], [0, 1]]))
    with pytest.raises(NotSameClassError):
        conjugacy_residual(qp, other, ident, State((1.5, 0.7)))


def test_conjugacy_residual_random_triples():
    rng = make_rng("conjugacy-random")
    for _ in range(25):
        qp, t, s0 = sample_conjugacy_triple(rng, steps=1)
        mapped = apply_qm(qp, t)
        assert conjugacy_residual(qp, mapped, t, s0) < 1e-10


def test_conjugacy_residual_detects_perturbation():
    rng = make_rng("conjugacy-perturbed")
    qp, t, s0 = sample_conjugacy_triple(rng, steps=1)
    mapped = apply_qm(qp, t)
    bumped = QPMap(lam=(mapped.lam[0] + Fraction(1, 1000),) + mapped.lam[1:],
                   A=mapped.A, B=mapped.B)
    states = [s0] + [random_positive_state(rng, qp.n, 0.5, 2.0)
                     for _ in range(10)]
    residuals = [conjugacy_residual(qp, bumped, t, s) for s in states]
    assert max(residuals) >= 1e-4


def test_orbit_conjugacy():
    rng = make_rng("orbit-conjugacy")
    for _ in range(10):
        qp, t, s0 = sample_conjugacy_triple(rng, steps=50)
        mapped = apply_qm(qp, t)
        traj = iterate(qp, s0, 50)
        other = iterate(mapped, phi(t, s0), 50)
        for a, b in zip(traj, other):
            img = phi(t, a)
            scale = max(abs(v) for v in img)
            assert max(abs(x - y) for x, y in zip(img, b)) / scale < 1e-8


def test_class_invariant_examples():
    lv = QPMap(lam=(1, 2), A=M([[1, 0], [0, 1]]), B=RationalMatrix.identity(2))
    assert class_invariant(lv) == mmatrix(lv)
    one = QPMap(lam=(1,), A=M([[-1]]), B=M([[2]]))
    assert class_invariant(one) == M([[2, -2]])


def test_class_invariant_exact_under_transforms():
    rng = make_rng("invariant")
    for _ in range(50):
        n = rng.randint(1, 4)
        m = rng.randint(n, 6)
        qp = random_nonredundant_map(rng, n, m)
        t = random_invertible_transform(rng, n)
        assert class_invariant(apply_qm(qp, t)) == class_invariant(qp)


def test_same_class_identity_and_roundtrip():
    rng = make_rng("same-class")
    qp = random_nonredundant_map(rng, 2, 3)
    ident = same_class(qp, qp)
    assert ident is not None and ident.C == RationalMatrix.identity(2)
    for _ in range(20):
        n = rng.randint(1, 3)
        m = rng.randint(n, 5)
        qp = random_nonredundant_map(rng, n, m)
        t = random_invertible_transform(rng, n)
        mapped = apply_qm(qp, t)
        got = same_class(qp, mapped)
        assert got is not None and got.C == t.C
        back = same_class(mapped, qp)
        assert back is not None and back.C == t.c_inv


def test_same_class_negative_and_guards():
    rng = make_rng("same-class-neg")
    a = QPMap(lam=(1, 1), A=M([[-1, 0], [0, -2]]), B=RationalMatrix.identity(2))
    b = QPMap(lam=(1, 2), A=M([[-1, 0], [0, -2]]), B=RationalMatrix.identity(2))
    assert same_class(a, b) is None

    small = QPMap(lam=(1,), A=M([[-1]]), B=M([[1]]))
    with pytest.raises(DimensionMismatchError):
        same_class(a, small)

    rank_deficient = QPMap(lam=(1, 1), A=M([[-1, 0], [0, -2]]),
                           B=M([[1, 2], [2, 4]]))
    assert rank(rank_deficient.B) < 2
    with pytest.raises(NotNonRedundantError):
        same_class(a, rank_deficient)


def test_apply_qm_keeps_flows_and_rejects_euler_maps():
    from qpmaps import QPFlow, apply_qm_flow, euler_discretize
    from qpmaps.errors import NotApplicableError

    flow = QPFlow(lam_star=(1, 2), A_star=M([[-1, 0], [1, -1]]),
                  B=M([[1, 1], [0, 1]]))
    t = QMTransform(M([[1, 1], [0, 1]]))
    out = apply_qm(flow, t)
    assert isinstance(out, QPFlow)
    assert out == apply_qm_flow(flow, t)
    assert out.B == flow.B @ t.C and out.A_star == t.c_inv @ flow.A_star
    with pytest.raises(NotApplicableError):
        apply_qm(euler_discretize(flow, Fraction(1, 10)), t)


def test_phi_beyond_the_float_range_is_divergence():
    t = QMTransform(M([[3]]))
    assert phi_inverse(t, State((1e100,)))[0] == pytest.approx(1e300)
    with pytest.raises(OverflowDivergenceError):
        phi_inverse(t, State((1e300,)))
    with pytest.raises(OverflowDivergenceError):
        phi(t.inverse_transform(), State((1e300,)))


def test_inverse_transform_swaps_the_stored_pair(monkeypatch):
    import qpmaps.transforms

    t = QMTransform(M([[2, 1], [1, 1]]))

    def no_inverse(mat):
        raise AssertionError("inverse_transform inverted again")

    monkeypatch.setattr(qpmaps.transforms, "inverse", no_inverse)
    back = t.inverse_transform()
    monkeypatch.undo()
    assert back.C == t.c_inv and back.c_inv == t.C
    assert back == QMTransform(t.c_inv)
    assert back.inverse_transform() == t
