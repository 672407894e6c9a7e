"""Quasipolynomial mappings: exact structural algebra and float dynamics."""

from .errors import (
    DimensionMismatchError,
    DuplicateQuasimonomialsError,
    FixedPointNotFound,
    IllConditionedBlockError,
    InvalidArgumentError,
    ModelFileError,
    NonPositiveStateError,
    NotApplicableError,
    NotNonRedundantError,
    NotSameClassError,
    OrbitEscapedError,
    OverflowDivergenceError,
    QPError,
    RankDeficientInputError,
    SingularMatrixError,
)
from .linalg import (
    RationalMatrix,
    complete_to_invertible,
    inverse,
    kernel_basis,
    rank,
)
from .maps import (
    QPFlow,
    QPMap,
    State,
    find_interior_fixed_point,
    iterate,
    jacobian,
    mmatrix,
    quasimonomials,
    step,
)
from .transforms import (
    QMTransform,
    apply_qm,
    apply_qm_flow,
    class_invariant,
    conjugacy_residual,
    flow_class_invariant,
    phi,
    phi_inverse,
    same_class,
)
from .reduction import (
    ConstantOfMotion,
    ReductionReport,
    StepKind,
    StepRecord,
    embed,
    evaluate_constant,
    lv_canonical_flow,
    merge_degenerate_qms,
    push_state,
    push_state_through,
    reduce,
    reduce_step1,
    reduce_step2,
    reduce_step3,
    replay_steps,
    to_lv_canonical,
)
from .discretization import (
    CommutativityVerdict,
    DiscretizationFamily,
    DivergenceSeries,
    EulerMap,
    EulerStepResult,
    FamilyKind,
    FixedPointCoincidence,
    canonicalization_commutes,
    check_commutativity,
    check_fixed_point_coincidence,
    compare_discretizations,
    euler_discretize,
    euler_jacobian,
    euler_step,
    qp_discretize,
)
from .modelfile import LoadedModel, load_model, model_document, parse_model, save_model

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
