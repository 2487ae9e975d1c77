"""Cyclic p-group bookkeeping.

A group here is always D = C_{p^ell} together with its chain of subgroups
D_0 = 1 < D_1 < ... < D_ell = D, where D_i has order p^i.  Subgroups are
referred to by their chain index i.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_right
from dataclasses import dataclass


# Miller-Rabin with the first k primes as bases is exact below psi_k (OEIS
# A014233; Jaeschke 1993, Sorenson and Webster 2017), so the number of bases
# depends on the size of n: 3 below 25326001, all 13 below PRIME_LIMIT.
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_LIMIT = 3317044064679887385961981
_PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
        341550071728321, 341550071728321, 3825123056546413051,
        3825123056546413051, 3825123056546413051, 318665857834031151167461,
        PRIME_LIMIT)


def is_prime(n: int) -> bool:
    """Deterministic primality test.  Raises ValueError for n >= PRIME_LIMIT
    with no factor among the bases, where the test is no longer exact."""
    if n < 2 or any(n % q == 0 for q in _BASES):
        return n in _BASES
    if n >= PRIME_LIMIT:
        raise ValueError(f"p = {n} is too large: primality is decided "
                         f"below {PRIME_LIMIT}")
    s = ((n - 1) & (1 - n)).bit_length() - 1  # 2^s exactly divides n - 1
    for a in _BASES[:bisect_right(_PSI, n) + 1]:  # the least k with n < psi_k
        x = pow(a, (n - 1) >> s, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# The largest group order, in decimal digits.  CPython converts ints of at
# most 4,300 digits to and from str (sys.get_int_max_str_digits), so the
# program could not print a larger order or a module size it computes.
MAX_ORDER_DIGITS = 4300


def order_too_large(p: int, ell: int) -> bool:
    """True when p^ell (p >= 2) has more than MAX_ORDER_DIGITS digits.

    Decided from ell * log10(p), whose rounding error is far below 1e-6;
    only that close to the limit, where p^ell has about MAX_ORDER_DIGITS
    digits, is the power computed to settle the comparison exactly.
    """
    estimate = ell * math.log10(p)
    if abs(estimate - MAX_ORDER_DIGITS) > 1e-6:
        return estimate > MAX_ORDER_DIGITS
    return p ** ell >= 10 ** MAX_ORDER_DIGITS


@dataclass(frozen=True, order=True)
class GroupSpec:
    """A cyclic group of order p^ell.

    ell = 0 (the trivial group) is allowed so that restriction to D_0 has
    a home; block-level consumers require ell >= 1.
    """

    p: int
    ell: int

    def __post_init__(self) -> None:
        self.__dict__.update(p=operator.index(self.p), ell=operator.index(self.ell))
        if not is_prime(self.p):
            raise ValueError(f"p must be prime, got {self.p}")
        if self.ell < 0:
            raise ValueError(f"ell must be non-negative, got {self.ell}")
        if order_too_large(self.p, self.ell):
            raise ValueError(f"p^ell must have at most {MAX_ORDER_DIGITS} "
                             f"digits, got p = {self.p}, ell = {self.ell}")

    @property
    def order(self) -> int:
        return self.p ** self.ell

    def subgroup(self, i: int) -> "GroupSpec":
        """The subgroup D_i of order p^i."""
        i = operator.index(i)
        if not 0 <= i <= self.ell:
            raise ValueError(f"subgroup index {i} out of range 0..{self.ell}")
        # built without __post_init__: p is prime and p^i <= p^ell
        sub = object.__new__(GroupSpec)
        sub.__dict__.update(p=self.p, ell=i)
        return sub

    def __str__(self) -> str:
        return f"C_{self.order}"
