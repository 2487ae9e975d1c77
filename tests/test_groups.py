"""Cyclic p-group bookkeeping: the primality test behind GroupSpec."""

import pytest

from cyclicsource.groups import PRIME_LIMIT, GroupSpec, is_prime


def sieve(limit):
    flags = [False, False] + [True] * (limit - 2)
    for q in range(2, int(limit**0.5) + 1):
        if flags[q]:
            flags[q * q :: q] = [False] * len(flags[q * q :: q])
    return flags


class TestIsPrime:
    def test_agrees_with_sieve(self):
        flags = sieve(10**4)
        assert [n for n in range(10**4) if is_prime(n)] == \
            [n for n in range(10**4) if flags[n]]

    @pytest.mark.parametrize("n", [561, 41041, 3825123056546413051,
                                   318665857834031151167461])
    def test_pseudoprimes_rejected(self, n):
        # Carmichael numbers, and strong pseudoprimes to the first 9 and
        # to the first 12 prime bases
        assert not is_prime(n)

    def test_large_primes(self):
        assert is_prime(10**18 + 3)
        assert is_prime(2**61 - 1)

    def test_beyond_the_exact_range(self):
        assert not is_prime(2 * PRIME_LIMIT)
        with pytest.raises(ValueError, match="too large"):
            is_prime(PRIME_LIMIT)  # no factor among the 13 bases
        with pytest.raises(ValueError, match="too large"):
            GroupSpec(10**46 + 1, 1)
