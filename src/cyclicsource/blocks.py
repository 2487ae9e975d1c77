"""Inferring the source module of a cyclic block from character data.

The non-exceptional character values at one element per layer of the defect
group determine the source module up to isomorphism: their signs, after a
global flip that normalizes the bottom layer to +1, are exactly the sign
vector of the Dade element of the source.  Group-theoretic triviality
criteria (principal block, centralizer/normalizer equalities, defect C_4)
enter as user-asserted metadata flags.  `verify.CERTIFIED` and
`verify.CROSS_CHECKED` name the closed forms that the `verify` sweeps check.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache

from . import dade
from .dade import DadeElement, OddPrimeRequiredError, SignVector
from .groups import GroupSpec

PROVENANCE_CHARACTER = "character-values"
PROVENANCE_PRINCIPAL = "principal-block"
PROVENANCE_LOCAL = "local-equality"
PROVENANCE_C4 = "c4-defect"


class CharacterValueError(ValueError):
    pass


class InconsistentDescriptorError(ValueError):
    pass


@dataclass(frozen=True)
class BlockDescriptor:
    """Input data for one block: the defect group, the character values
    chi(u_1)..chi(u_ell) of a non-exceptional character at one element per
    layer, and optional group-theoretic metadata flags."""

    group: GroupSpec
    chi_values: tuple[int, ...] | None = None
    is_principal: bool | None = None
    centralizer_equal: bool | None = None
    normalizer_equal: bool | None = None
    inertial_index: int | None = None
    label: str = ""

    def __post_init__(self) -> None:
        if self.group.ell < 1:
            raise ValueError("block defect group must be non-trivial")
        if self.chi_values is not None:
            values = tuple(map(operator.index, self.chi_values))
            object.__setattr__(self, "chi_values", values)
            if len(values) != self.group.ell:
                raise ValueError(
                    f"need {self.group.ell} character values, got {len(values)}"
                )
        if self.inertial_index is not None:
            e = operator.index(self.inertial_index)
            object.__setattr__(self, "inertial_index", e)
            if e < 1:
                raise ValueError("inertial index must be positive")
            # then e | p^ell - 1 as well, since p = 1 (mod e)
            if (self.group.p - 1) % e != 0:
                raise ValueError(
                    f"inertial index {e} does not divide p - 1 = {self.group.p - 1}"
                )


@dataclass(frozen=True)
class WResult:
    """The inferred source module: its Dade element, sign vector, and which
    criterion produced it; its Jordan size and triviality are read off the
    element."""

    dade: DadeElement
    signs: SignVector
    provenance: str

    def __post_init__(self) -> None:
        if self.dade.alpha and self.dade.alpha[0] != 0:
            raise ValueError("source module must have trivial bottom-layer action")

    @property
    def jordan(self) -> int:
        return dade.w_module(self.dade)

    @property
    def trivial(self) -> bool:
        return self.dade.is_zero


@lru_cache(maxsize=256)  # the result is frozen, so records may share it
def _trivial_result(group: GroupSpec, provenance: str) -> WResult:
    zero = dade.dade_zero(group)
    return WResult(zero, dade.psi(zero), provenance)


def _checked_values(b: BlockDescriptor) -> tuple[int, ...]:
    if b.group.p == 2:
        raise OddPrimeRequiredError(
            "character inference requires an odd prime"
        )
    if b.chi_values is None:
        raise CharacterValueError("no character values supplied")
    if 0 in b.chi_values:
        raise CharacterValueError(
            f"chi value at layer {b.chi_values.index(0) + 1} is zero; a "
            f"non-zero integer is required"
        )
    return b.chi_values


def infer_w(b: BlockDescriptor) -> WResult:
    """Recover the source module from the character values.

    Only the sign pattern matters: if the bottom-layer value is negative the
    character belongs to the Heller translate and every sign is flipped, so
    the normalized vector always starts with +1.  The inverse of the sign
    bijection then yields the Dade element, whose leading bit is forced to 0.
    """
    values = _checked_values(b)
    bottom = values[0] > 0
    sv = SignVector(b.group, tuple([1 if (v > 0) == bottom else -1
                                    for v in values]))
    element = dade.psi_inverse(sv)
    return WResult(dade=element, signs=sv, provenance=PROVENANCE_CHARACTER)


def is_trivial_by_signs(b: BlockDescriptor) -> bool:
    """True iff all character values share one strict sign, i.e. the source
    module is trivial; read off the signs alone, with the refusals of
    `infer_w`."""
    values = _checked_values(b)
    return all(v > 0 for v in values) or all(v < 0 for v in values)


def metadata_criteria(b: BlockDescriptor) -> WResult | None:
    """Metadata-only triviality criteria: the source module is trivial for a
    principal block, when C_G(D) = C_G(D_1) or N_G(D) = N_G(D_1), and when
    the defect group is C_4.  Returns None when no criterion applies (which
    is not a claim of non-triviality)."""
    if b.is_principal:
        return _trivial_result(b.group, PROVENANCE_PRINCIPAL)
    if b.centralizer_equal or b.normalizer_equal:
        return _trivial_result(b.group, PROVENANCE_LOCAL)
    if b.group.p == 2 and b.group.ell == 2:
        return _trivial_result(b.group, PROVENANCE_C4)
    return None


def analyze(b: BlockDescriptor) -> WResult:
    """Combined inference: character values when usable, metadata flags
    otherwise.  When both routes produce an answer and disagree, the input
    is invalid and a hard error is raised rather than preferring either."""
    from_flags = metadata_criteria(b)
    if b.chi_values is None or b.group.p == 2:  # no usable character values
        if from_flags is not None:
            return from_flags
        if b.chi_values is not None:
            raise OddPrimeRequiredError(
                "character inference requires an odd prime and no metadata "
                "criterion applies"
            )
        raise CharacterValueError(
            "descriptor carries neither character values nor an applicable "
            "metadata criterion"
        )
    from_chi = infer_w(b)
    if from_flags is None:
        return from_chi
    if not from_chi.trivial:
        raise InconsistentDescriptorError(
            f"metadata flags assert a trivial source module but the "
            f"character values give J_{from_chi.jordan}"
        )
    return from_flags

