"""Cyclic p-group bookkeeping.

A group here is always D = C_{p^ell} together with its chain of subgroups
D_0 = 1 < D_1 < ... < D_ell = D, where D_i has order p^i.  Subgroups are
referred to by their chain index i.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_right


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


_set = object.__setattr__  # how a frozen value's __init__ stores a field


class _Value:
    """The base of the package's value classes, in place of the dataclass
    decorator, which with its import of `inspect` took much of every
    command's start-up.

    The fields are the parameters of the subclass's `__init__`, in order,
    and give it the repr, equality and hash of a dataclass: `GroupSpec(p=3,
    ell=2)`, equal to a value of the same class with equal fields, and the
    hash of the field tuple.  `__eq__` and `__hash__` are compiled for each
    class, as a dataclass's are: a generic one reads the fields half as
    fast.  A value is frozen: its `__init__` stores each field with `_set`,
    and assigning or deleting an attribute later raises AttributeError.  A
    class made with `frozen=False` is mutable and has no hash.  Instances
    keep their `__dict__`, where `cached_property` stores what it computes;
    that is no field.
    """

    def __init_subclass__(cls, frozen: bool = True) -> None:
        init = cls.__init__.__code__
        cls._fields = init.co_varnames[1:init.co_argcount]
        mine = "".join(f"self.{name}, " for name in cls._fields)
        theirs = "".join(f"other.{name}, " for name in cls._fields)
        methods = {}
        exec(f"def __eq__(self, other):\n"
             f"    if other.__class__ is self.__class__:\n"
             f"        return ({mine}) == ({theirs})\n"
             f"    return NotImplemented\n"
             f"def __hash__(self):\n"
             f"    return hash(({mine}))\n", {}, methods)
        cls.__eq__ = methods["__eq__"]
        cls.__hash__ = methods["__hash__"] if frozen else None
        if not frozen:
            cls.__setattr__ = object.__setattr__
            cls.__delattr__ = object.__delattr__

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class GroupSpec(_Value):
    """A cyclic group of order p^ell.

    ell = 0 (the trivial group) is allowed so that restriction to D_0 has
    a home; block-level consumers require ell >= 1.
    """

    def __init__(self, p: int, ell: int) -> None:
        p, ell = operator.index(p), operator.index(ell)
        if not is_prime(p):
            raise ValueError(f"p must be prime, got {p}")
        if ell < 0:
            raise ValueError(f"ell must be non-negative, got {ell}")
        if order_too_large(p, ell):
            raise ValueError(f"p^ell must have at most {MAX_ORDER_DIGITS} "
                             f"digits, got p = {p}, ell = {ell}")
        _set(self, "p", p)
        _set(self, "ell", ell)

    @property
    def order(self) -> int:
        return self.p ** self.ell

    def subgroup(self, i: int) -> "GroupSpec":
        """The subgroup D_i of order p^i."""
        i = operator.index(i)
        if not 0 <= i <= self.ell:
            raise ValueError(f"subgroup index {i} out of range 0..{self.ell}")
        # built without the checks of __init__: p is prime, p^i <= p^ell
        sub = object.__new__(GroupSpec)
        sub.__dict__.update(p=self.p, ell=i)
        return sub

    def __str__(self) -> str:
        return f"C_{self.order}"
