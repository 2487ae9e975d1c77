"""The Dade group of a cyclic p-group as bit vectors.

For D = C_{p^ell} the group of capped endo-permutation modules is
elementary abelian, generated by the relative syzygies of the trivial module
(Dade, "Endo-permutation modules over p-groups II", Ann. of Math. 108,
1978).  An element is a bit vector alpha = (alpha_0..alpha_{ell-1}); bit
alpha_i names the syzygy relative to D_i, and the corresponding
indecomposable module is obtained by inflating the result for the quotient
group and applying the Heller operator when alpha_0 = 1.

For odd p the rank is ell and every bit vector is a distinct class.  For
p = 2 the rank is ell - 1 (and D(C_2) is trivial): bit alpha_{ell-1} names
the inflation of Omega_{C_2}(k) = k, the trivial class, so `DadeElement`
stores it as 0 and equal elements are equal classes.

For odd p the sign vector of the determinant-one lift character gives a
bijection onto {+-1}^ell with an explicit inverse.
"""

from __future__ import annotations

import operator
from itertools import product

from .groups import GroupSpec, _set, _Value
from .modules import ModuleSum, _check_group


class OddPrimeRequiredError(ValueError):
    pass


class DadeElement(_Value):
    """A class of the Dade group, named by its bit vector.  For p = 2 the
    bit alpha_{ell-1} is accepted but stored as 0, the canonical name of
    the class."""

    def __init__(self, group: GroupSpec, alpha: tuple[int, ...]) -> None:
        alpha = tuple(map(operator.index, alpha))
        if len(alpha) != group.ell:
            raise ValueError(
                f"alpha must have length {group.ell}, got {len(alpha)}"
            )
        if any(a not in (0, 1) for a in alpha):
            raise ValueError(f"alpha entries must be bits, got {alpha}")
        if group.p == 2 and alpha:
            alpha = alpha[:-1] + (0,)
        _set(self, "group", group)
        _set(self, "alpha", alpha)

    @property
    def is_zero(self) -> bool:
        return not any(self.alpha)

    def __str__(self) -> str:
        return "".join(str(a) for a in self.alpha)


class SignVector(_Value):
    def __init__(self, group: GroupSpec, signs: tuple[int, ...]) -> None:
        signs = tuple(map(operator.index, signs))
        if len(signs) != group.ell:
            raise ValueError(
                f"signs must have length {group.ell}, got {len(signs)}"
            )
        if any(s not in (1, -1) for s in signs):
            raise ValueError(f"sign entries must be +-1, got {signs}")
        _set(self, "group", group)
        _set(self, "signs", signs)


class LiftCharacter(_Value):
    """Character of the determinant-one lift of an indecomposable capped
    endo-permutation module: the degree plus one integer value per layer
    D_i \\ D_{i-1} (values are constant on layers)."""

    def __init__(self, group: GroupSpec, dim: int,
                 layer_values: tuple[int, ...]) -> None:
        values = tuple(map(operator.index, layer_values))
        dim = operator.index(dim)
        if len(values) != group.ell:
            raise ValueError(
                f"need {group.ell} layer values, got {len(values)}"
            )
        if dim <= 0 or any(v == 0 for v in values):
            raise ValueError("degree must be positive and layer values non-zero")
        _set(self, "group", group)
        _set(self, "dim", dim)
        _set(self, "layer_values", values)


def dade_zero(group: GroupSpec) -> DadeElement:
    return DadeElement(group, (0,) * group.ell)


def dade_add(a: DadeElement, b: DadeElement) -> DadeElement:
    """Composition in the Dade group: componentwise XOR (every class is
    2-torsion).  Classes over different groups raise GroupMismatchError."""
    _check_group(a, b)
    return DadeElement(a.group, tuple(x ^ y for x, y in zip(a.alpha, b.alpha)))


def w_module(e: DadeElement) -> int:
    """Jordan size n of the indecomposable module named by alpha.

    Recursion over the leading bit: alpha_0 = 0 inflates the module for
    D/D_1 (same dimension), alpha_0 = 1 additionally applies the Heller
    operator (dimension complements to p^ell).  The result is always
    coprime to p, i.e. the module is capped with full vertex.
    """
    dim = 1
    for depth, bit in enumerate(reversed(e.alpha), 1):
        if bit:
            dim = e.group.p**depth - dim
    return dim


def w_module_sum(e: DadeElement) -> ModuleSum:
    return ModuleSum(e.group, (w_module(e),))


def enumerate_elements(group: GroupSpec):
    """Every class of the Dade group once: the 2^ell bit vectors for odd p,
    the 2^(ell-1) vectors with alpha_{ell-1} = 0 for p = 2."""
    rank = group.ell - 1 if group.p == 2 and group.ell else group.ell
    for bits in product((0, 1), repeat=rank):
        yield DadeElement(group, bits + (0,) * (group.ell - rank))


def element_from_jordan(group: GroupSpec, n: int) -> DadeElement:
    """Invert `w_module`, one bit per layer from the top: at depth d a
    Heller step leaves a size above p^(d-1), an inflation one of at most
    p^(d-1), and undoing the step gives the size at depth d - 1; n is a
    class exactly when this ends at 1.  Injective on the classes of
    `enumerate_elements`; for p = 2 the image is the odd n < 2^ell."""
    alpha, size = [], operator.index(n)
    for depth in range(group.ell, 0, -1):
        alpha.append(int(size > group.p ** (depth - 1)))
        if alpha[-1]:
            size = group.p ** depth - size
    if size != 1:
        raise ValueError(
            f"J_{n} is not a capped endo-permutation class over {group}"
        )
    return DadeElement(group, tuple(alpha))


def lift_character(e: DadeElement) -> LiftCharacter:
    """Character values of the determinant-one lift, layer by layer.

    Base case: the trivial group, degree 1.  If alpha_0 = 0 the module is
    inflated, so the bottom layer sees the degree of the quotient character
    and the higher layers shift down.  If alpha_0 = 1 the Heller step is
    applied on top: the degree complements to p^ell and every value negates,
    because the projective character of the cover vanishes off the identity.
    Requires p odd: the determinant-one lift argument needs permutation
    lattices of trivial determinant.
    """
    if e.group.p == 2:
        raise OddPrimeRequiredError("character recursion undefined for p = 2")
    dim = 1
    layers: list[int] = []
    for depth, bit in enumerate(reversed(e.alpha), 1):
        layers = [dim] + layers
        if bit:
            dim = e.group.p**depth - dim
            layers = [-v for v in layers]
    return LiftCharacter(e.group, dim, tuple(layers))


def psi(e: DadeElement) -> SignVector:
    """Sign vector (omega(u_1)..omega(u_ell)): the i-th sign is the parity
    of the partial sum alpha_0 + ... + alpha_{i-1}.

    A bijection onto {+-1}^ell only for odd p.  For p = 2 it is injective
    but not onto, since the last bit of every element is 0."""
    signs = []
    total = 0
    for a in e.alpha:
        total += a
        signs.append(1 if total % 2 == 0 else -1)
    return SignVector(e.group, tuple(signs))


def psi_inverse(s: SignVector) -> DadeElement:
    """Inverse of `psi`: alpha_0 records the first sign, and each later bit
    records a sign change between consecutive layers.  For p = 2 only a
    left inverse: the last sign change is dropped with the bit alpha_{ell-1}
    that records it."""
    alpha = []
    prev = 1
    for sign in s.signs:
        alpha.append(0 if sign == prev else 1)
        prev = sign
    return DadeElement(s.group, tuple(alpha))
