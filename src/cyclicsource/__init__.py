"""Exact-arithmetic toolkit for source modules of blocks with cyclic defect
groups, with every closed form certified by a matrix oracle over F_p."""

from .blocks import (
    BlockDescriptor,
    WResult,
    analyze,
    fong_shift,
    infer_w,
    is_trivial_by_signs,
    metadata_criteria,
    restrict_w,
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
    module,
    relative_heller,
    restrict,
    vertex,
)
from .oracle import (
    MatrixModule,
    OracleCapacityError,
    is_endo_permutation,
    jordan_type,
    realize,
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
