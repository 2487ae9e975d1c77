"""Exact-arithmetic toolkit for source modules of blocks with cyclic defect
groups; `verify.CERTIFIED` names the closed forms that a matrix oracle over
F_p certifies."""

from .blocks import (
    BlockDescriptor,
    WResult,
    analyze,
    infer_w,
    is_trivial_by_signs,
    metadata_criteria,
)
from .dade import (
    DadeElement,
    LiftCharacter,
    OddPrimeRequiredError,
    SignVector,
    dade_add,
    dade_zero,
    element_from_jordan,
    lift_character,
    psi,
    psi_inverse,
    w_module,
    w_module_sum,
)
from .groups import GroupSpec
from .modules import (
    ModuleSum,
    NotCappedError,
    cap_part,
    heller,
    induce,
    is_permutation,
    relative_heller,
    restrict,
    vertex,
)
from .oracle import (
    MatrixModule,
    OracleCapacityError,
    is_endo_permutation,
    jordan_type,
    tensor_decompose,
)
from .trees import (
    BrauerTree,
    TypeFunction,
    planar_isomorphic,
    similar,
    star,
    strongly_similar,
    type_functions,
    validate,
)

__version__ = "0.1.0"
