"""Reduction steps, the full reduction, embeddings and LV canonical forms."""

from fractions import Fraction

import pytest

from qpmaps import (
    ConstantOfMotion,
    QMTransform,
    QPMap,
    State,
    StepKind,
    class_invariant,
    embed,
    evaluate_constant,
    iterate,
    merge_degenerate_qms,
    mmatrix,
    phi,
    phi_inverse,
    push_state_through,
    reduce,
    reduce_step1,
    reduce_step2,
    reduce_step3,
    replay_steps,
    same_class,
    step,
    to_lv_canonical,
)
from qpmaps.errors import (
    DimensionMismatchError,
    DuplicateQuasimonomialsError,
    NotApplicableError,
    NotNonRedundantError,
    OverflowDivergenceError,
    RankDeficientInputError,
)
from qpmaps.linalg import RationalMatrix, inverse, rank
from qpmaps.sampling import (
    make_rng,
    random_nonredundant_map,
    random_positive_state,
    random_qp_map,
)
from conftest import bounded_orbit, inflate_map, orbit_condition_product

M = RationalMatrix.from_rows


def worked_example(lam1=1, lam2=Fraction(1, 2)):
    """3-variable map whose coefficient matrix has a zero third row."""
    return QPMap(lam=(lam1, lam2, 0),
                 A=M([[1, -1, 0], [0, 1, -1], [0, 0, 0]]),
                 B=M([[1, 1, 1], [1, 1, 0], [1, 0, 0]]))


# -- merging -------------------------------------------------------------------


def test_merge_sums_columns_of_equal_rows():
    lam = (Fraction(1), Fraction(2))
    a = M([[1, 2, 3], [4, 5, 6]])
    b = M([[1, 1], [1, 1], [1, 0]])
    merged = merge_degenerate_qms(lam, a, b)
    assert merged.B == M([[1, 1], [1, 0]])
    assert merged.A == M([[3, 3], [9, 6]])
    assert merged.lam == lam


def test_merge_noop_and_full_collapse():
    lam = (Fraction(0),)
    a = M([[1, 2]])
    b = M([[1], [1]])
    merged = merge_degenerate_qms(lam, a, b)
    assert merged.m == 1 and merged.A == M([[3]])

    clean = QPMap(lam=(1,), A=M([[2]]), B=M([[3]]))
    again = merge_degenerate_qms(clean.lam, clean.A, clean.B)
    assert again == clean


@pytest.mark.parametrize("first, second", [
    ((Fraction(2, 4), 1), (Fraction(1, 2), Fraction(1))),
    ((1, 0), (Fraction(1), Fraction(0))),
    (("1/2", "-3"), (Fraction(1, 2), -3)),
])
def test_duplicate_rows_written_differently(first, second):
    lam = (Fraction(1), Fraction(2))
    a = M([[1, 2, 3], [4, 5, 6]])
    b = M([first, [0, 1], second])
    with pytest.raises(DuplicateQuasimonomialsError, match="rows 0 and 2"):
        QPMap(lam=lam, A=a, B=b)
    merged = merge_degenerate_qms(lam, a, b)
    assert merged.B == M([first, [0, 1]])
    assert merged.A == M([[4, 2], [10, 5]])


# -- step 1 --------------------------------------------------------------------


def test_step1_simple_decoupling():
    qp = QPMap(lam=(0, 0), A=M([[1], [1]]), B=M([[1, 0]]))
    out = reduce_step1(qp)
    assert out is not None
    reduced, rec = out
    assert rec.kind is StepKind.STEP1
    assert rec.decoupled_indices == (1,)
    assert reduced.n == 1 and reduced.B == M([[1]])
    assert reduced.lam == (0,) and reduced.A == M([[1]])


def test_step1_noop_when_m_ge_n():
    qp = QPMap(lam=(0,), A=M([[1, 1]]), B=M([[1], [2]]))
    assert reduce_step1(qp) is None


def test_step1_two_kernel_directions():
    qp = QPMap(lam=(0, 0, 0), A=M([[1], [2], [3]]), B=M([[1, 1, 1]]))
    reduced, rec = reduce_step1(qp)
    assert reduced.n == 1 and reduced.m == 1
    assert len(rec.decoupled_indices) == 2
    assert rank(reduced.B) == 1
    # kernel columns of the transform annihilate B
    prod = qp.B @ rec.transform.C
    assert all(prod[0, k] == 0 for k in (1, 2))


# -- step 2 --------------------------------------------------------------------


def test_step2_rank_deficient_B():
    qp = QPMap(lam=(1, 1), A=M([[1, 0], [0, 1]]), B=M([[1, 2], [2, 4]]))
    reduced, rec = reduce_step2(qp)
    assert rec.kind is StepKind.STEP2
    assert reduced.n == 1
    assert rank(reduced.B) == 1
    assert reduced.m >= reduced.n


def test_step2_noop_at_full_rank():
    qp = QPMap(lam=(1, 1), A=M([[1, 0], [0, 1]]), B=RationalMatrix.identity(2))
    assert reduce_step2(qp) is None


def test_step2_after_merge_path():
    merged = merge_degenerate_qms(
        (Fraction(1), Fraction(1)),
        M([[1, 0, 2], [0, 1, 1]]),
        M([[1, 1], [2, 2], [1, 1]]))
    assert merged.m == 2
    reduced, _ = reduce_step2(merged)
    assert reduced.n == 1 and reduced.m <= 2


def test_step2_requires_step1_first():
    qp = QPMap(lam=(0, 0), A=M([[1], [1]]), B=M([[1, 0]]))
    with pytest.raises(DimensionMismatchError):
        reduce_step2(qp)


def seeded_maps_with_a_kernel():
    """Random maps with m < n, and inflated redundant maps."""
    rng = make_rng("step1-then-step2")
    for trial in range(80):
        n = rng.randint(2, 5)
        if trial % 2:
            yield random_qp_map(rng, n, rng.randint(1, n - 1), max_num=2,
                                max_den=2, b_int=trial % 4 == 1)
        else:
            core = random_nonredundant_map(rng, n, n + trial % 3)
            yield inflate_map(rng, core, trial % 3, 1 + trial % 2)


def test_step2_finds_nothing_after_step1_applies():
    # step 1 keeps the pivot columns of B, which are independent
    applied = 0
    for qp in seeded_maps_with_a_kernel():
        out = reduce_step1(qp)
        if out is not None:
            applied += 1
            assert reduce_step2(out[0]) is None
    assert applied >= 60


def test_reduce_runs_step2_only_when_step1_does_not_apply(monkeypatch):
    import qpmaps.reduction as reduction

    seen = []

    def counting(qp):
        seen.append(qp)
        return reduce_step2(qp)

    monkeypatch.setattr(reduction, "reduce_step2", counting)
    for qp in seeded_maps_with_a_kernel():
        seen.clear()
        report = reduction.reduce(qp)
        step1_applied = report.steps and report.steps[0].kind is StepKind.STEP1
        assert seen == ([] if step1_applied else [qp])


@pytest.mark.parametrize("reduce_step, qp", [
    (reduce_step1, QPMap(lam=(0, 0), A=M([[1], [1]]), B=M([[1, 0]]))),
    (reduce_step1, QPMap(lam=(0, 0, 0), A=M([[1], [2], [3]]),
                         B=M([[1, 1, 1]]))),
    (reduce_step1, QPMap(lam=(0, 0), A=M([[1], [1]]), B=M([[0, 1]]))),
    (reduce_step2, QPMap(lam=(1, 1), A=M([[1, 0], [0, 1]]),
                         B=M([[1, 2], [2, 4]]))),
    (reduce_step2, QPMap(lam=(1, 1), A=M([[1, 0], [0, 1]]),
                         B=M([[0, 2], [0, 4]]))),
    (reduce_step2, QPMap(lam=(1, 1, 1), A=RationalMatrix.identity(3),
                         B=M([[1, 2, 3], [2, 4, 6], [1, 0, 1]]))),
    (reduce_step2, QPMap(lam=(1, 1, 1), A=RationalMatrix.identity(3),
                         B=M([[1, 1, 1], [2, 2, 2], [3, 3, 3]]))),
])
def test_kernel_steps_multiply_only_to_apply_the_transform(monkeypatch,
                                                          reduce_step, qp):
    calls = []
    original = RationalMatrix.__matmul__

    def counting(self, other):
        calls.append((self.rows, other.cols))
        return original(self, other)

    monkeypatch.setattr(RationalMatrix, "__matmul__", counting)
    reduced, rec = reduce_step(qp)
    # C^-1 lam, C^-1 A and B C; the transform is built without products
    assert len(calls) == 3
    monkeypatch.undo()
    assert reduced.n == qp.n - len(rec.decoupled_indices)
    prod = qp.B @ rec.transform.C
    assert all(prod[j, k] == 0 for j in range(qp.m)
               for k in rec.decoupled_indices)


# -- step 3 --------------------------------------------------------------------


def test_step3_noop_at_full_rank_M():
    qp = QPMap(lam=(1, 1), A=M([[-1, 0], [0, -2]]), B=RationalMatrix.identity(2))
    assert reduce_step3(qp) is None


def test_step3_guards():
    qp = QPMap(lam=(1, 1), A=M([[1, 0], [2, 0]]), B=M([[1, 2], [2, 4]]))
    with pytest.raises(RankDeficientInputError):
        reduce_step3(qp)


def test_step3_worked_example_matrices():
    qp = worked_example()
    out = reduce_step3(qp)
    assert out is not None
    reduced, rec = out
    assert reduced.B == M([[1, 1], [1, 0]])
    assert reduced.lam == (1, Fraction(1, 2))
    # q = 1: the two merged coefficient columns are summed
    assert reduced.A == M([[0, 0], [1, -1]])
    assert rec.q_factors == (1, 1, 1)
    assert rec.decoupled_indices == (2,)


def test_step3_worked_example_with_initial():
    qp = worked_example()
    out = reduce_step3(qp, State((1.0, 1.0, 2.0)))
    reduced, rec = out
    # q_1 = x3(0)**1 = 2, q_2 = q_3 = 1
    assert rec.q_factors == (2, 1, 1)
    assert reduced.A == M([[1, 0], [1, -1]])


def test_step3_proportional_M_rows():
    qp = QPMap(lam=(1, 2), A=M([[1, 0], [2, 0]]), B=RationalMatrix.identity(2))
    reduced, rec = reduce_step3(qp)
    assert reduced.n == 1
    assert reduced.B == M([[1], [2]])
    assert reduced.lam == (1,)
    assert rank(mmatrix(reduced)) == 1
    # conserved coordinate x1 * x2^(-1/2)
    assert rec.transform.c_inv.row(1) == (1, Fraction(-1, 2))


def test_step1_permutes_when_pivot_column_trails():
    qp = QPMap(lam=(0, 0), A=M([[1], [1]]), B=M([[0, 1]]))
    reduced, rec = reduce_step1(qp)
    assert rec.transform.C == M([[0, 1], [1, 0]])
    assert reduced.B == M([[1]])
    # retained coordinate is the original second variable
    s = State((1.3, 0.7))
    assert phi(rec.transform, s).x == (0.7, 1.3)
    nxt = step(qp, s)
    assert step(reduced, State((0.7,)))[0] == pytest.approx(
        phi(rec.transform, nxt)[0], rel=1e-12)


def test_step2_permutes_when_pivot_column_trails():
    qp = QPMap(lam=(1, 1), A=M([[1, 0], [0, 1]]), B=M([[0, 2], [0, 4]]))
    reduced, _ = reduce_step2(qp)
    assert reduced.n == 1
    assert reduced.B == M([[2], [4]])
    assert rank(reduced.B) == 1


def test_step3_folds_constant_quasimonomial():
    # the first exponent row lands on the deleted column only, so its
    # quasimonomial becomes the constant 1 and its coefficient joins lam
    qp = QPMap(lam=(1, 2), A=M([[1, 0], [2, 0]]), B=M([[2, -1], [1, 0]]))
    reduced, rec = reduce_step3(qp)
    assert reduced.lam == (2,)
    assert reduced.A == M([[0]])
    assert reduced.B == M([[1]])
    assert rec.transform.c_inv.row(1) == (1, Fraction(-1, 2))
    # the folded map reproduces the original first coordinate from the
    # default level set (decoupled coordinate starting at 1)
    x0 = State((1.2, 1.44))  # x1 * x2^(-1/2) = 1 exactly at this start
    traj = iterate(qp, x0, 5)
    red_traj = iterate(reduced, State((1.2,)), 5)
    for a, b in zip(traj, red_traj):
        assert a[0] == pytest.approx(b[0], rel=1e-10)


def test_reduce_fuzz_arbitrary_shapes():
    rng = make_rng("reduce-fuzz")
    for trial in range(150):
        n = rng.randint(1, 4)
        m = rng.randint(1, 4)
        qp = random_qp_map(rng, n, m, max_num=2, max_den=2,
                           b_int=(trial % 2 == 0))
        rep = reduce(qp)
        final = rep.final
        assert final.m >= final.n
        assert rank(final.B) == final.n
        assert rank(mmatrix(final)) == final.n
        assert replay_steps(qp, rep.steps) == final


# -- full reduction -------------------------------------------------------------


def test_reduce_noop_report():
    qp = random_nonredundant_map(make_rng("noop"), 2, 3)
    rep = reduce(qp)
    assert rep.steps == () and rep.final == qp and rep.constants == ()


def test_reduce_worked_example_chain():
    rep = reduce(worked_example())
    assert rep.final.B == M([[1, 1], [1, 0]])
    assert [r.kind for r in rep.steps] == [StepKind.STEP3]
    assert len(rep.constants) == 1
    assert rep.constants[0].exponents == (0, 0, 1)


def test_reduce_identity_map_decouples_everything():
    qp = QPMap(lam=(0, 0), A=RationalMatrix.zeros(2, 2),
               B=RationalMatrix.identity(2))
    rep = reduce(qp, State((1.5, 2.5)))
    assert rep.final.n == 0 and rep.final.m == 0
    assert len(rep.constants) == 2
    values = sorted(c.value for c in rep.constants)
    assert values == pytest.approx([1.5, 2.5])


def test_reduce_replay_reproduces_final_exactly():
    rng = make_rng("replay")
    for _ in range(20):
        core = random_nonredundant_map(rng, rng.randint(1, 2), rng.randint(2, 3))
        inflated = inflate_map(rng, core, rng.randint(0, 2), rng.randint(0, 2))
        rep = reduce(inflated)
        assert replay_steps(inflated, rep.steps) == rep.final


def test_reduce_certificates_on_inflated_maps():
    rng = make_rng("certificates")
    for _ in range(30):
        n = rng.randint(1, 2)
        m = rng.randint(n, 3)
        core = random_nonredundant_map(rng, n, m)
        inflated = inflate_map(rng, core, rng.randint(0, 2), rng.randint(0, 2))
        rep = reduce(inflated)
        final = rep.final
        assert final.m >= final.n
        assert rank(final.B) == final.n
        assert rank(mmatrix(final)) == final.n
        assert final.n == core.n  # rank of B*M is preserved by inflation


def test_reduce_inflate_round_trip_same_class():
    rng = make_rng("round-trip")
    done = 0
    while done < 15:
        n = rng.randint(1, 2)
        m = rng.randint(n, 3)
        core = random_nonredundant_map(rng, n, m)
        inflated = inflate_map(rng, core, rng.randint(1, 2), rng.randint(0, 1))
        rep = reduce(inflated)
        if rep.final.m != core.m:
            continue  # a quasimonomial degenerated during column deletion
        assert class_invariant(rep.final) == class_invariant(core)
        assert same_class(rep.final, core) is not None
        done += 1


def test_reduce_dynamics_preserved_along_orbit():
    rng = make_rng("dynamics")
    done = 0
    while done < 10:
        n = rng.randint(1, 2)
        m = rng.randint(n, 3)
        core = random_nonredundant_map(rng, n, m)
        inflated = inflate_map(rng, core, rng.randint(0, 1), rng.randint(0, 1))
        x0 = random_positive_state(rng, inflated.n, 0.8, 1.25)
        traj = bounded_orbit(inflated, x0, 50, lo=1e-4, hi=1e4)
        if traj is None or orbit_condition_product(inflated, traj, 1e6) > 1e6:
            continue
        rep = reduce(inflated, x0)
        if not rep.steps:
            continue
        z0 = push_state_through(rep.steps, x0)
        reduced_traj = bounded_orbit(rep.final, z0, 50, lo=1e-8, hi=1e8)
        if reduced_traj is None:
            continue
        for x_p, z_p in zip(traj, reduced_traj):
            img = push_state_through(rep.steps, x_p)
            scale = max(max(abs(v) for v in img), 1e-30) if len(img) else 1.0
            gap = max((abs(a - b) for a, b in zip(img, z_p)), default=0.0)
            assert gap / scale < 1e-8
        # step-3 decoupled coordinates are constants of the transformed orbit
        for idx, rec in enumerate(rep.steps):
            if rec.kind is not StepKind.STEP3:
                continue
            prefix = rep.steps[:idx]
            imgs = [phi(rec.transform, push_state_through(prefix, x_p))
                    for x_p in traj]
            for k in rec.decoupled_indices:
                vals = [im[k] for im in imgs]
                assert max(vals) - min(vals) <= 1e-9 * max(abs(v) for v in vals)
        done += 1


def test_reduce_constants_conserved():
    rng = make_rng("constants")
    done = 0
    while done < 10:
        n = rng.randint(1, 2)
        m = rng.randint(n, 3)
        core = random_nonredundant_map(rng, n, m)
        inflated = inflate_map(rng, core, rng.randint(1, 2), rng.randint(0, 1))
        x0 = random_positive_state(rng, inflated.n, 0.8, 1.25)
        traj = bounded_orbit(inflated, x0, 100, lo=1e-4, hi=1e4)
        if traj is None:
            continue
        rep = reduce(inflated, x0)
        if not rep.constants:
            continue
        for c in rep.constants:
            ref = evaluate_constant(c, traj[0])
            assert c.value == pytest.approx(ref, rel=1e-12)
            for s in traj:
                assert evaluate_constant(c, s) == pytest.approx(ref, rel=1e-9)
        done += 1


# -- embedding -----------------------------------------------------------------


def test_embed_example():
    qp = QPMap(lam=(Fraction(1, 2),), A=M([[-1, Fraction(1, 3)]]),
               B=M([[1], [2]]))
    emb = embed(qp)
    assert emb.B == M([[1, 1], [2, 0]])
    assert rank(emb.B) == 2
    assert emb.lam == (Fraction(1, 2), 0)
    assert emb.A.row(1) == (0, 0)


def test_embed_guards():
    square = QPMap(lam=(1,), A=M([[-1]]), B=M([[1]]))
    with pytest.raises(NotApplicableError):
        embed(square)
    deficient = QPMap(lam=(1, 1), A=M([[1, 0, 0], [0, 1, 0]]),
                      B=M([[1, 2], [2, 4], [3, 6]]))
    with pytest.raises(RankDeficientInputError):
        embed(deficient)


def test_embed_level_set_exactly_invariant():
    rng = make_rng("embed-level")
    for _ in range(10):
        n = rng.randint(1, 2)
        m = rng.randint(n + 1, n + 2)
        qp = random_nonredundant_map(rng, n, m)
        emb = embed(qp)
        x0 = random_positive_state(rng, n, 0.8, 1.25)
        lifted = State(x0.x + (1.0,) * (m - n))
        try:
            nxt = step(emb, lifted)
            base = step(qp, x0)
        except Exception:
            continue
        assert nxt.x[n:] == (1.0,) * (m - n)
        for a, b in zip(nxt.x[:n], base.x):
            assert a == pytest.approx(b, rel=1e-12)


def test_embed_matches_original_trajectory():
    qp = QPMap(lam=(Fraction(1, 4),), A=M([[Fraction(-1, 4), Fraction(-1, 8)]]),
               B=M([[1], [2]]))
    emb = embed(qp)
    x0 = State((0.9,))
    lifted = State((0.9, 1.0))
    traj = iterate(qp, x0, 20)
    lifted_traj = iterate(emb, lifted, 20)
    for a, b in zip(traj, lifted_traj):
        assert abs(a[0] - b[0]) <= 1e-12 * abs(a[0])
        assert b[1] == 1.0


# -- LV canonical form -----------------------------------------------------------


def test_lv_canonical_identity_input():
    lv = QPMap(lam=(1, 2), A=M([[-1, 0], [0, -1]]), B=RationalMatrix.identity(2))
    out, constants = to_lv_canonical(lv)
    assert out == lv and constants == ()


def test_lv_canonical_square_example():
    qp = QPMap(lam=(2, 1), A=RationalMatrix.identity(2), B=M([[2, 0], [0, 1]]))
    out, constants = to_lv_canonical(qp)
    assert out.B.is_identity()
    assert mmatrix(out) == M([[4, 2, 0], [1, 0, 1]])
    assert constants == ()


def test_lv_canonical_rejects_redundant():
    qp = QPMap(lam=(1, 1), A=M([[1, 0], [0, 1]]), B=M([[1, 2], [2, 4]]))
    with pytest.raises(NotNonRedundantError):
        to_lv_canonical(qp)
    thin = QPMap(lam=(0, 0), A=M([[1], [1]]), B=M([[1, 0]]))
    with pytest.raises(NotNonRedundantError):
        to_lv_canonical(thin)


def test_lv_canonical_rectangular_case():
    qp = QPMap(lam=(Fraction(1, 4),), A=M([[Fraction(-1, 4), Fraction(-1, 8)]]),
               B=M([[1], [2]]))
    lv, constants = to_lv_canonical(qp)
    assert lv.n == 2 and lv.B.is_identity()
    assert mmatrix(lv) == class_invariant(qp)
    assert len(constants) == 1
    exps = [c.exponents for c in constants]
    stacked = RationalMatrix.from_rows(exps, cols=2)
    assert rank(stacked) == len(constants)

    # orbit on the level set matches the original dynamics through phi
    emb = embed(qp)
    t = QMTransform(inverse(emb.B))
    x0 = State((0.9,))
    z0 = phi(t, State((0.9, 1.0)))
    traj = iterate(qp, x0, 20)
    lv_traj = iterate(lv, z0, 20)
    for a, z in zip(traj, lv_traj):
        back = phi_inverse(t, z)
        assert back[0] == pytest.approx(a[0], rel=1e-8)
        assert back[1] == pytest.approx(1.0, rel=1e-10)
    for c in constants:
        for z in lv_traj:
            assert evaluate_constant(c, z) == pytest.approx(1.0, rel=1e-9)


def test_evaluate_constant_examples():
    c = ConstantOfMotion(exponents=(Fraction(0), Fraction(0)))
    assert evaluate_constant(c, State((3.0, 4.0))) == 1.0
    c = ConstantOfMotion(exponents=(Fraction(1), Fraction(-1)))
    assert evaluate_constant(c, State((6.0, 3.0))) == pytest.approx(2.0)


def test_lv_canonical_of_a_flow_is_a_flow():
    from qpmaps import QPFlow, flow_class_invariant, lv_canonical_flow

    for b in (M([[1, 1], [1, 0]]), M([[1, 0], [1, 1], [2, 1]])):
        m = b.rows
        flow = QPFlow(lam_star=(1, -1),
                      A_star=M([[j - i for j in range(m)] for i in range(2)]),
                      B=b)
        lv, constants = to_lv_canonical(flow)
        assert isinstance(lv, QPFlow)
        assert lv.B.is_identity()
        assert mmatrix(lv) == flow_class_invariant(flow)
        assert len(constants) == m - 2
        assert lv == lv_canonical_flow(flow)


def test_reduction_machinery_rejects_euler_maps():
    from qpmaps import QPFlow, euler_discretize

    flow = QPFlow(lam_star=(1,), A_star=M([[-1, 1]]), B=M([[1], [2]]))
    em = euler_discretize(flow, Fraction(1, 10))
    for call in (to_lv_canonical, embed, reduce):
        with pytest.raises(NotApplicableError):
            call(em)


def conserved_cube_map():
    """x2 is conserved and enters through the quasimonomial x2**3."""
    return QPMap(lam=(Fraction(1, 2), 0), A=M([[-1, 1], [0, 0]]),
                 B=M([[1, 0], [0, 3]]))


def test_step3_factor_beyond_the_float_range_is_divergence():
    # the decoupled factor is (1e300)**3, past the largest double
    with pytest.raises(OverflowDivergenceError):
        reduce_step3(conserved_cube_map(), State((1.0, 1e300)))
    with pytest.raises(OverflowDivergenceError):
        reduce(conserved_cube_map(), State((1.0, 1e300)))


def test_constant_beyond_the_float_range_is_divergence():
    c = ConstantOfMotion(exponents=(Fraction(3),))
    assert evaluate_constant(c, State((1e100,))) == pytest.approx(1e300)
    with pytest.raises(OverflowDivergenceError):
        evaluate_constant(c, State((1e300,)))


def test_exact_values_with_no_float_form_are_divergence():
    # neither reader may leak the bare OverflowError of float(10**400)
    huge = Fraction(10) ** 400
    with pytest.raises(OverflowDivergenceError):
        evaluate_constant(ConstantOfMotion(exponents=(huge,)), State((2.0,)))
    t = QMTransform(M([[1, 0], [huge, 1]]))
    for read in (phi, phi_inverse):
        with pytest.raises(OverflowDivergenceError):
            read(t, State((1.0, 2.0)))
