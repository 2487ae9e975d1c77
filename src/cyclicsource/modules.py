"""Isomorphism-level arithmetic for modules over k[C_{p^ell}] in characteristic p.

The indecomposable modules over the group algebra of a cyclic p-group in
characteristic p are uniserial, one of each dimension 1..p^ell; we write J_n
for the one of dimension n.  A module up to isomorphism is therefore a finite
multiset of Jordan sizes, and everything in this file is closed-form
arithmetic on such multisets.  `verify.CERTIFIED` says which of these
functions the matrix oracle holds to explicit matrices.
"""

from __future__ import annotations

import operator
from collections import Counter

from .groups import GroupSpec, _set, _Value


class GroupMismatchError(ValueError):
    pass


class NotCappedError(ValueError):
    pass


class ModuleSum(_Value):
    """A finite multiset of Jordan sizes over a fixed cyclic p-group.

    parts are stored sorted in descending order; the zero module is the
    empty tuple.
    """

    def __init__(self, group: GroupSpec, parts: tuple[int, ...] = ()) -> None:
        parts = tuple(sorted(map(operator.index, parts), reverse=True))
        bound = group.order
        for n in parts:
            if not 1 <= n <= bound:
                raise ValueError(f"part {n} out of range 1..{bound} for {group}")
        _set(self, "group", group)
        _set(self, "parts", parts)

    @classmethod
    def _of(cls, group: GroupSpec, parts) -> "ModuleSum":
        """Built without the checks of __init__, from int parts computed
        in range."""
        m = object.__new__(cls)
        m.__dict__.update(group=group, parts=tuple(sorted(parts, reverse=True)))
        return m

    @property
    def dim(self) -> int:
        return sum(self.parts)

    def __str__(self) -> str:
        if not self.parts:
            return "0"
        return " + ".join(
            f"{mult}*J_{n}" if mult > 1 else f"J_{n}"
            for n, mult in sorted(Counter(self.parts).items(), reverse=True)
        )


def _check_group(a, b) -> None:  # ModuleSums or DadeElements
    if a.group != b.group:
        raise GroupMismatchError(f"group mismatch: {a.group} vs {b.group}")


def _check_subgroup(sub: GroupSpec, group: GroupSpec) -> None:
    if sub.p != group.p or sub.ell > group.ell:
        raise GroupMismatchError(f"{sub} is not a subgroup of {group}")


def heller(m: ModuleSum) -> ModuleSum:
    """Kernel-of-projective-cover operator, summand-wise.

    Projective parts (n = p^ell) are discarded; J_n goes to J_{p^ell - n}.
    An involution on projective-free modules.  It is the relative syzygy
    for i = 0, and is computed as that.
    """
    return relative_heller(m, 0)


def relative_heller(m: ModuleSum, i: int) -> ModuleSum:
    """Kernel of the minimal cover relative to the subgroup D_i, summand-wise.

    The indecomposables relatively projective with respect to D_i are exactly
    the J_n with p^(ell-i) | n (they are induced from D_i); those parts are
    discarded.  Any other J_n has minimal relatively projective cover
    J_m with m = p^(ell-i) * ceil(n / p^(ell-i)), and the kernel is J_{m-n}
    by uniseriality.  i = 0 is the ordinary Heller operator.
    """
    q = m.group.p ** (m.group.ell - m.group.subgroup(i).ell)
    # J_{m-n} above: m - n = q ceil(n / q) - n = -n mod q
    return ModuleSum._of(m.group, [-n % q for n in m.parts if n % q])


def restrict(m: ModuleSum, i: int) -> ModuleSum:
    """Restriction to the subgroup D_i.

    The generator of D_i acts as the p^(ell-i)-th power of the generator of
    D, and on a single unipotent Jordan block of size n that power has
    Jordan type: writing n = a*q + b with q = p^(ell-i) and 0 <= b < q,
    b blocks of size a+1 and q-b blocks of size a.  Dimension is preserved;
    i = 0 gives n copies of J_1 over the trivial group.
    """
    sub = m.group.subgroup(i)
    q = m.group.p ** (m.group.ell - sub.ell)
    out: list[int] = []
    for n in m.parts:
        a, b = divmod(n, q)
        out.extend([a + 1] * b)
        if a > 0:
            out.extend([a] * (q - b))
    return ModuleSum._of(sub, out)


def induce(m: ModuleSum, to: GroupSpec) -> ModuleSum:
    """Induction from the subgroup to the full group.

    m must live over a subgroup D_i of `to` (same p, smaller or equal ell);
    J_a over D_i induces to J_{a * p^(ell-i)} over D.
    """
    _check_subgroup(m.group, to)
    q = to.p ** (to.ell - m.group.ell)
    return ModuleSum._of(to, [n * q for n in m.parts])


def vertex(n: int, group: GroupSpec) -> int:
    """Subgroup index of the vertex of J_n: ell minus the p-adic valuation.

    J_{p^ell} is projective (vertex index 0); J_1 has full vertex ell.
    """
    n = operator.index(n)
    if not 1 <= n <= group.order:
        raise ValueError(f"Jordan size {n} out of range 1..{group.order}")
    v = 0
    while n % group.p == 0:
        n //= group.p
        v += 1
    return group.ell - v


def is_permutation(m: ModuleSum) -> bool:
    """True iff every part is a p-power (the transitive permutation modules
    over a cyclic p-group are exactly the J_{p^i})."""
    p_powers = {m.group.p ** i for i in range(m.group.ell + 1)}
    return all(n in p_powers for n in m.parts)


def cap_part(m: ModuleSum) -> int:
    """The unique part with full vertex (size coprime to p), if it exists.

    For a capped endo-permutation module this is its cap.  Uniqueness is up
    to isomorphism: repeated copies of one coprime size are fine, two
    different coprime sizes are not.  Whether m is endo-permutation at all
    is `oracle.is_endo_permutation`'s question.
    """
    if not m.parts:
        raise NotCappedError("not capped endo-permutation: zero module")
    coprime = {n for n in m.parts if n % m.group.p != 0}
    if len(coprime) != 1:
        raise NotCappedError(
            f"not capped endo-permutation: full-vertex parts {sorted(coprime)}"
        )
    return coprime.pop()
