"""Cyclic p-group bookkeeping: the primality test behind GroupSpec, and
the integer fields of GroupSpec and the records built on it."""

import random

import numpy as np
import pytest

from cyclicsource import groups, modules, oracle
from cyclicsource.blocks import BlockDescriptor
from cyclicsource.dade import (
    DadeElement,
    LiftCharacter,
    SignVector,
    element_from_jordan,
)
from cyclicsource.groups import (
    MAX_ORDER_DIGITS,
    PRIME_LIMIT,
    GroupSpec,
    is_prime,
    order_too_large,
)
from cyclicsource.modules import ModuleSum
from cyclicsource.trees import star


def sieve(limit):
    flags = [False, False] + [True] * (limit - 2)
    for q in range(2, int(limit**0.5) + 1):
        if flags[q]:
            flags[q * q :: q] = [False] * len(flags[q * q :: q])
    return flags


# psi_k, the least strong pseudoprime to the first k prime bases, for
# k = 1..12 (OEIS A014233, with the repeated values once)
PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
       341550071728321, 3825123056546413051, 318665857834031151167461)
BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def strong_probable_prime(n, a):
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def reference_is_prime(n):
    """Miller-Rabin on all 13 bases, exact below PRIME_LIMIT."""
    if n < 2 or any(n % q == 0 for q in BASES):
        return n in BASES
    return all(strong_probable_prime(n, a) for a in BASES)


class TestIsPrime:
    def test_agrees_with_sieve(self):
        flags = sieve(10**4)
        assert [n for n in range(10**4) if is_prime(n)] == \
            [n for n in range(10**4) if flags[n]]

    @pytest.mark.parametrize("n", [561, 41041, *PSI[1:]])
    def test_pseudoprimes_rejected(self, n):
        # Carmichael numbers, and psi_k, a strong pseudoprime to the first k
        # bases: is_prime must take one base more when n = psi_k
        assert not is_prime(n)

    @pytest.mark.parametrize("psi", PSI)
    def test_agrees_with_all_bases_around_each_bound(self, psi):
        # odd n within 10^4 of psi_k, where the number of bases changes
        rng = random.Random(psi)
        window = range(max(psi - 10**4, 0) | 1, psi + 10**4, 2)
        for n in sorted(rng.sample(window, 1500)) + [psi - 2, psi, psi + 2]:
            assert is_prime(n) == reference_is_prime(n), n

    def test_large_primes(self):
        assert is_prime(10**18 + 3)
        assert is_prime(2**61 - 1)

    def test_beyond_the_exact_range(self):
        assert not is_prime(2 * PRIME_LIMIT)
        with pytest.raises(ValueError, match="too large"):
            is_prime(PRIME_LIMIT)  # no factor among the 13 bases
        with pytest.raises(ValueError, match="too large"):
            GroupSpec(10**46 + 1, 1)


class TestOrderBound:
    @pytest.mark.parametrize("p, ell", [(2, 14284), (2, 14285), (3, 9012),
                                        (3, 9013), (1000003, 716),
                                        (1000003, 717), (10, 4299), (10, 4300)])
    def test_agrees_with_the_power(self, p, ell):
        # (10, 4300) sits exactly on the limit, where the power settles it
        assert order_too_large(p, ell) == (p**ell >= 10**MAX_ORDER_DIGITS)

    def test_group_rejects_huge_ell(self):
        with pytest.raises(ValueError, match="4300 digits"):
            GroupSpec(3, 10**9)
        assert GroupSpec(3, 9012).ell == 9012


class TestSubgroup:
    def test_chain_needs_no_primality_test(self, monkeypatch):
        # D_i inherits the prime of D, and p^i <= p^ell
        group = GroupSpec(1000003, 716)
        calls = []
        monkeypatch.setattr(groups, "is_prime",
                            lambda n: calls.append(n) or True)
        subs = [group.subgroup(i) for i in range(group.ell + 1)]
        assert calls == []
        assert subs == [GroupSpec(1000003, i) for i in range(717)]
        assert len(calls) == 717
        assert hash(subs[3]) == hash(GroupSpec(1000003, 3))

    @pytest.mark.parametrize("i", [-1, 4])
    def test_index_out_of_range(self, i):
        with pytest.raises(ValueError,
                           match=rf"^subgroup index {i} out of range 0\.\.3$"):
            GroupSpec(5, 3).subgroup(i)


C9 = GroupSpec(3, 2)
# a non-integer where an integer is needed; coerced, these would give C_9.0,
# a part 2.5, chi values (2, -1), the element 01, the sign 1, the lift
# character of degree 2 with values (1, -1), and an inertial index or
# multiplicity emitted as a float the parser refuses; a subgroup index or a
# Jordan size would give C_3.0, a module over ell = 1.5, J_1.0, the vertex
# 2, the class 11, or a TypeError from inside the matrix oracle
NOT_INTEGERS = {
    "group": lambda: GroupSpec(3.0, 2.0),
    "group-ell": lambda: GroupSpec(3, 2.0),
    "module-part": lambda: ModuleSum(C9, (2.5,)),
    "chi-floats": lambda: BlockDescriptor(C9, chi_values=(2.5, -1.7)),
    "chi-strings": lambda: BlockDescriptor(C9, chi_values=("2", "-1")),
    "inertial-index": lambda: BlockDescriptor(C9, inertial_index=2.0),
    "dade-bits": lambda: DadeElement(C9, (0.5, 1)),
    "signs": lambda: SignVector(C9, (1.5, -1)),
    "lift-degree": lambda: LiftCharacter(C9, 2.5, (1, -1)),
    "lift-values": lambda: LiftCharacter(C9, 2, (1.5, -1)),
    "multiplicity": lambda: star(2, 4.0, C9),
    "subgroup-index": lambda: C9.subgroup(1.0),
    "restrict-index": lambda: modules.restrict(ModuleSum(C9, ()), 1.5),
    "relative-heller-index":
        lambda: modules.relative_heller(ModuleSum(C9, (5,)), 1.0),
    "restrict-oracle-index":
        lambda: oracle.restrict_oracle(ModuleSum(C9, (5,)), 1.0),
    "relative-heller-oracle-index":
        lambda: oracle.relative_heller_oracle(ModuleSum(C9, (5,)), 1.0),
    "vertex-size": lambda: modules.vertex(7.5, C9),
    "class-size": lambda: element_from_jordan(C9, 7.0),
}


class TestIntegerFields:
    @pytest.mark.parametrize("make", NOT_INTEGERS.values(), ids=NOT_INTEGERS)
    def test_non_integers_refused(self, make):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            make()

    def test_numpy_integers_become_ints(self):
        group = GroupSpec(np.int64(3), np.int32(2))
        assert group == C9 and type(group.p) is type(group.ell) is int
        assert list(map(type, ModuleSum(C9, (np.int64(2),)).parts)) == [int]

    def test_numpy_subgroup_index_becomes_int(self):
        # taken as given, the index made p^(ell - i) an int64, which wraps
        # to 0 for C_{2^70}: J_3's relative syzygy came out as 0
        big = GroupSpec(2, 70)
        assert type(big.subgroup(np.int64(1)).ell) is int
        m = ModuleSum(big, (3,))
        for fn in (modules.restrict, modules.relative_heller):
            got = fn(m, np.int64(1))
            assert got == fn(m, 1) and list(map(type, got.parts)) == \
                [int] * len(got.parts)
        assert modules.relative_heller(m, np.int64(1)).parts == (2**69 - 3,)
