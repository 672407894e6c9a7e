"""QP vs Euler discretizations: scaling, fixed points, closeness, commutation."""

import dataclasses
import math
from fractions import Fraction

import pytest

from qpmaps import (
    DiscretizationFamily,
    FamilyKind,
    QPFlow,
    State,
    canonicalization_commutes,
    check_commutativity,
    check_fixed_point_coincidence,
    class_invariant,
    compare_discretizations,
    euler_discretize,
    euler_jacobian,
    euler_step,
    flow_class_invariant,
    jacobian,
    qp_discretize,
)
from qpmaps.errors import (
    InvalidArgumentError,
    ModelFileError,
    NotApplicableError,
    OrbitEscapedError,
    QPError,
)
from qpmaps.discretization import _family_update
from qpmaps.linalg import RationalMatrix, complete_to_invertible
from qpmaps.reduction import StepKind, StepRecord
from qpmaps.sampling import (
    make_rng,
    random_positive_state,
    random_flow,
    random_invertible_transform,
)

M = RationalMatrix.from_rows


def flow_1d(lam=1, a=-1):
    return QPFlow(lam_star=(lam,), A_star=M([[a]]), B=M([[1]]))


def test_qp_discretize_scaling():
    flow = flow_1d()
    qp = qp_discretize(flow, Fraction(1, 2))
    assert qp.lam == (Fraction(1, 2),)
    assert qp.A == M([[Fraction(-1, 2)]])
    assert qp.B == flow.B

    tiny = qp_discretize(flow, Fraction(1, 10**9))
    assert float(tiny.lam[0]) < 1e-8


def test_qp_discretize_additive_in_eps():
    rng = make_rng("eps-linearity")
    for _ in range(20):
        flow = random_flow(rng, rng.randint(1, 3), rng.randint(1, 4))
        e1, e2 = Fraction(1, 7), Fraction(2, 5)
        both = qp_discretize(flow, e1 + e2)
        a = qp_discretize(flow, e1)
        b = qp_discretize(flow, e2)
        assert both.lam == tuple(x + y for x, y in zip(a.lam, b.lam))
        assert both.A == a.A + b.A


def test_class_invariant_scales_with_eps():
    rng = make_rng("eps-invariant")
    for _ in range(30):
        flow = random_flow(rng, rng.randint(1, 3), rng.randint(1, 4))
        eps = Fraction(rng.randint(1, 9), rng.randint(10, 40))
        qp = qp_discretize(flow, eps)
        assert class_invariant(qp) == flow_class_invariant(flow).scale(eps)


def test_euler_step_examples():
    still = QPFlow(lam_star=(0,), A_star=M([[0]]), B=M([[1]]))
    res = euler_step(euler_discretize(still, 1), State((4.2,)))
    assert res.values == (4.2,) and res.positive

    res = euler_step(euler_discretize(flow_1d(), 1), State((3.0,)))
    assert res.values == (-3.0,) and not res.positive

    res = euler_step(euler_discretize(flow_1d(), Fraction(1, 10)), State((1.0,)))
    assert res.values == (1.0,) and res.positive


def test_compare_discretizations_trivial_cases():
    still = QPFlow(lam_star=(0, 0), A_star=RationalMatrix.zeros(2, 2),
                   B=RationalMatrix.identity(2))
    series = compare_discretizations(still, Fraction(1, 10), State((1.0, 2.0)), 1.0)
    assert series.sup_diffs == (0.0,) * 11

    series = compare_discretizations(flow_1d(), Fraction(1, 10), State((1.0,)), 1.0)
    assert max(series.sup_diffs) < 1e-15  # shared fixed point


def test_compare_discretizations_first_order_ratio():
    coarse = compare_discretizations(flow_1d(), Fraction(1, 50), State((0.5,)), 1.0)
    fine = compare_discretizations(flow_1d(), Fraction(1, 100), State((0.5,)), 1.0)
    assert len(coarse.times) == 51 and len(fine.times) == 101
    assert coarse.times[-1] == pytest.approx(1.0)
    ratio = coarse.terminal / fine.terminal
    assert 1.6 <= ratio <= 2.4


def test_compare_discretizations_escape():
    with pytest.raises(OrbitEscapedError) as info:
        compare_discretizations(flow_1d(), Fraction(1), State((3.0,)), 5.0)
    assert info.value.scheme == "euler"
    assert info.value.step_index == 1


def test_fixed_point_coincidence_1d():
    for eps in (Fraction(1, 10), Fraction(1, 4), Fraction(1, 2)):
        rep = check_fixed_point_coincidence(flow_1d(), eps)
        assert rep.status == "ok"
        assert rep.fixed_point == pytest.approx((1.0,))
        assert rep.euler_residual < 1e-10
        assert rep.jacobian_max_diff < 1e-12
        qp = qp_discretize(flow_1d(), eps)
        j = jacobian(qp, State(rep.fixed_point))
        assert j[0][0] == pytest.approx(1.0 - float(eps), abs=1e-12)


def test_fixed_point_coincidence_2d_diagonal():
    flow = QPFlow(lam_star=(1, 1), A_star=M([[-1, 0], [0, -2]]),
                  B=RationalMatrix.identity(2))
    rep = check_fixed_point_coincidence(flow, Fraction(1, 8))
    assert rep.status == "ok"
    assert rep.fixed_point == pytest.approx((1.0, 0.5))
    assert rep.euler_residual < 1e-10
    assert rep.jacobian_max_diff < 1e-12


def test_fixed_point_coincidence_skips():
    no_positive = flow_1d(lam=1, a=1)
    rep = check_fixed_point_coincidence(no_positive, Fraction(1, 10))
    assert rep.status == "skipped" and "positive" in rep.reason

    wide = QPFlow(lam_star=(1,), A_star=M([[1, -1]]), B=M([[1], [2]]))
    rep = check_fixed_point_coincidence(wide, Fraction(1, 10))
    assert rep.status == "skipped" and "m = n" in rep.reason


def test_euler_jacobian_matches_qp_at_fixed_point_only():
    flow = flow_1d()
    eps = Fraction(1, 10)
    qp = qp_discretize(flow, eps)
    em = euler_discretize(flow, eps)
    away = State((2.0,))
    j_qp = jacobian(qp, away)[0][0]
    j_eu = euler_jacobian(em, away)[0][0]
    assert abs(j_qp - j_eu) > 1e-3  # schemes differ away from the fixed point


def test_commutativity_qp_exp_exact():
    rng = make_rng("commute-exp")
    for _ in range(30):
        n = rng.randint(1, 3)
        flow = random_flow(rng, n, rng.randint(1, 4))
        t = random_invertible_transform(rng, n)
        eps = Fraction(rng.randint(1, 9), rng.randint(5, 30))
        v = check_commutativity(flow, t, eps, DiscretizationFamily.qp_exp())
        assert v.mode == "exact-matrix" and v.commutes


def test_commutativity_power_base_two():
    rng = make_rng("commute-pow")
    for _ in range(10):
        n = rng.randint(1, 3)
        flow = random_flow(rng, n, rng.randint(1, 3))
        t = random_invertible_transform(rng, n)
        v = check_commutativity(flow, t, Fraction(1, 10),
                                DiscretizationFamily.power_base(2.0))
        assert v.commutes and "ln(base)" in v.note


def test_commutativity_euler_documented_witness():
    flow = flow_1d()
    t_c2 = __import__("qpmaps").QMTransform(M([[2]]))
    grid = [State((0.5,)), State((1.0,)), State((2.0,))]
    v = check_commutativity(flow, t_c2, Fraction(1, 10),
                            DiscretizationFamily.euler_add(), states=grid)
    assert v.mode == "pointwise"
    assert not v.commutes
    assert v.max_discrepancy > 0.0


def test_commutativity_additive_and_custom_shapes():
    flow = flow_1d()
    rng = make_rng("commute-custom")
    t = random_invertible_transform(rng, 1)
    if t.C.is_identity():
        t = __import__("qpmaps").QMTransform(M([[2]]))
    shapes = [
        DiscretizationFamily.custom_additive("additive-identity", lambda x: x),
        DiscretizationFamily.custom_additive("additive-cubic",
                                             lambda x: x + x ** 3),
        DiscretizationFamily.custom_multiplicative(
            "logistic", lambda x: 2.0 / (1.0 + math.exp(-x))),
        DiscretizationFamily.custom_multiplicative("affine",
                                                   lambda x: 1.0 + 0.5 * x),
    ]
    for fam in shapes:
        v = check_commutativity(flow, t, Fraction(1, 10), fam)
        assert v.mode == "pointwise"
        assert v.max_discrepancy > 0.0


def test_commutativity_exponential_shape_agrees_pointwise():
    # the exponential update probed pointwise shows no discrepancy beyond roundoff
    flow = flow_1d()
    t = __import__("qpmaps").QMTransform(M([[2]]))
    fam = DiscretizationFamily.custom_multiplicative("exp", math.exp)
    v = check_commutativity(flow, t, Fraction(1, 10), fam)
    assert v.max_discrepancy < 1e-12


def test_canonicalization_commutes_with_discretization():
    rng = make_rng("commute-canonical")
    done = 0
    while done < 20:
        n = rng.randint(1, 3)
        m = rng.randint(n, 4)
        flow = random_flow(rng, n, m)
        from qpmaps.linalg import rank
        if rank(flow.B) != n:
            continue
        eps = Fraction(rng.randint(1, 9), rng.randint(5, 30))
        assert canonicalization_commutes(flow, eps)
        done += 1


def test_positivity_asymmetry_witness():
    # the exponential scheme cannot leave the orthant; Euler demonstrably does
    flow = flow_1d()
    qp = qp_discretize(flow, 1)
    from qpmaps import step
    out = step(qp, State((3.0,)))
    assert out[0] > 0.0
    res = euler_step(euler_discretize(flow, 1), State((3.0,)))
    assert not res.positive


def test_nonpositive_time_step_is_a_package_error():
    flow = QPFlow(lam_star=(1,), A_star=M([[-1]]), B=M([[1]]))
    for eps in (0, Fraction(-1, 10), -0.5):
        with pytest.raises(ModelFileError):
            qp_discretize(flow, eps)
    with pytest.raises(QPError):
        euler_discretize(flow, 0)


@pytest.mark.parametrize("eps", ["abc", float("nan"), "1/0", float("inf"),
                                 None])
def test_invalid_time_step_is_a_model_file_error(eps):
    flow = flow_1d()
    with pytest.raises(ModelFileError):
        qp_discretize(flow, eps)
    with pytest.raises(ModelFileError):
        compare_discretizations(flow, eps, State((0.5,)), 1.0)


def test_commutativity_without_computable_probes_is_not_applicable():
    flow = QPFlow(lam_star=(-100,), A_star=M([[0]]), B=M([[1]]))
    t = random_invertible_transform(make_rng("steep"), 1)
    with pytest.raises(NotApplicableError, match="no probe state"):
        check_commutativity(flow, t, 1, DiscretizationFamily.euler_add())


@pytest.mark.parametrize("horizon", [float("nan"), float("inf"), None, "abc",
                                     -1.0, "-1/2"])
def test_invalid_horizon_is_a_model_file_error(horizon):
    with pytest.raises(ModelFileError, match="horizon_time"):
        compare_discretizations(flow_1d(), Fraction(1, 10), State((0.5,)),
                                horizon)


def test_zero_and_rational_string_horizons_are_valid():
    flow, s0 = flow_1d(), State((0.5,))
    assert compare_discretizations(flow, Fraction(1, 10), s0, 0).times == (0.0,)
    series = compare_discretizations(flow, Fraction(1, 10), s0, "1/2")
    assert len(series.times) == 6


# -- a family is a kind and a shape -----------------------------------------------


@pytest.mark.parametrize("make", [
    lambda: DiscretizationFamily.power_base(0),
    lambda: DiscretizationFamily.power_base(-1),
    lambda: DiscretizationFamily.power_base(float("nan")),
    lambda: DiscretizationFamily.custom_multiplicative("x", None),
    lambda: DiscretizationFamily.custom_additive("x", 2.0),
])
def test_family_rejects_bad_base_or_shape(make):
    with pytest.raises(ValueError):
        make()


@pytest.mark.parametrize("call", [
    lambda: complete_to_invertible(RationalMatrix.identity(2), side="middle"),
    lambda: DiscretizationFamily(FamilyKind.QP_EXP, shape="exp"),
    lambda: DiscretizationFamily.power_base(-2.0),
    lambda: StepRecord(StepKind.STEP1, None, (), q_factors=(Fraction(1),)),
], ids=["completion side", "family shape", "power base", "step-1 q_factors"])
def test_bad_arguments_are_package_errors_and_value_errors(call):
    with pytest.raises(InvalidArgumentError) as info:
        call()
    assert isinstance(info.value, QPError) and isinstance(info.value, ValueError)


def test_named_constructors_keep_kind_and_label():
    shape = math.tanh
    cases = [
        (DiscretizationFamily.qp_exp(), FamilyKind.QP_EXP, "qp-exp"),
        (DiscretizationFamily.euler_add(), FamilyKind.EULER_ADD, "euler-add"),
        (DiscretizationFamily.power_base(2.0), FamilyKind.POWER_BASE,
         "power-base(2)"),
        (DiscretizationFamily.power_base(0.5), FamilyKind.POWER_BASE,
         "power-base(0.5)"),
        (DiscretizationFamily.custom_multiplicative("m", shape),
         FamilyKind.CUSTOM_MULTIPLICATIVE, "m"),
        (DiscretizationFamily.custom_additive("a", shape),
         FamilyKind.CUSTOM_ADDITIVE, "a"),
    ]
    for family, kind, label in cases:
        assert (family.kind, family.label) == (kind, label)
    assert [f.value for f in FamilyKind] == [
        "qp-exp", "euler-add", "power-base", "custom-multiplicative",
        "custom-additive"]


def test_family_is_a_kind_a_shape_and_a_label():
    assert [f.name for f in dataclasses.fields(DiscretizationFamily)] == [
        "kind", "shape", "label"]
    fam = DiscretizationFamily(FamilyKind.CUSTOM_ADDITIVE, math.tanh)
    assert fam.label == "custom-additive"
    assert DiscretizationFamily.euler_add() is DiscretizationFamily.euler_add()
    assert DiscretizationFamily.power_base(10.0).shape(2.0) == 100.0


def test_euler_step_is_the_euler_family_update():
    rng = make_rng("euler-is-family")
    for n in (1, 2, 3):
        flow = random_flow(rng, n, n + 1)
        eps = Fraction(1, 7)
        em = euler_discretize(flow, eps)
        family = DiscretizationFamily.euler_add()
        for _ in range(3):
            s = random_positive_state(rng, n, 0.5, 2.0)
            # bit for bit: the Euler update is written once
            assert euler_step(em, s).values == _family_update(
                family, qp_discretize(flow, eps), s)
