import math

import pytest

from sstorus.modp import (
    PRIMALITY_LIMIT,
    alternating_power_sum,
    binom_mod_p,
    has_padic_carry,
    is_prime,
)


def pascal_triangle(limit):
    rows = [[1]]
    for n in range(1, limit + 1):
        prev = rows[-1]
        row = [1]
        for k in range(1, n):
            row.append(prev[k - 1] + prev[k])
        row.append(1)
        rows.append(row)
    return rows


class TestBinomModP:
    def test_examples(self):
        assert binom_mod_p(5, 2, 2) == 0  # C(5,2) = 10
        assert binom_mod_p(17, 0, 3) == 1
        assert binom_mod_p(0, 0, 5) == 1
        assert binom_mod_p(7, 3, 5) == 0  # C(7,3) = 35

    def test_k_above_n_is_zero(self):
        assert binom_mod_p(3, 5, 7) == 0

    def test_lucas_against_pascal_exhaustive(self):
        rows = pascal_triangle(200)
        for p in (2, 3, 5, 7):
            for n in range(201):
                row = rows[n]
                for k in range(n + 1):
                    assert binom_mod_p(n, k, p) == row[k] % p, (n, k, p)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            binom_mod_p(-1, 0, 2)

    def test_rejects_composite_modulus(self):
        with pytest.raises(ValueError):
            binom_mod_p(4, 2, 4)

    def test_returns_plain_int(self):
        assert type(binom_mod_p(7, 2, 5)) is int  # C(7,2) = 21


class TestPadicCarry:
    def test_examples(self):
        assert has_padic_carry(1, 1, 2) is True  # 1 + 1 = 10 base 2
        assert has_padic_carry(9, 0, 3) is False
        assert has_padic_carry(2, 2, 5) is False

    def test_kummer_equivalence_exhaustive(self):
        for p in (2, 3, 5):
            for a in range(64):
                for b in range(64):
                    carry = has_padic_carry(a, b, p)
                    assert carry == (binom_mod_p(a + b, a, p) == 0), (a, b, p)

    def test_rejects_composite_modulus(self):
        for n in (0, 1, 4, 6, 9, 91, 100):
            with pytest.raises(ValueError):
                has_padic_carry(1, 1, n)


class TestAlternatingPowerSum:
    def test_spec_values(self):
        assert alternating_power_sum(3, 2) == 0
        assert alternating_power_sum(3, 3) == -6
        assert alternating_power_sum(1, 0) == 0

    def test_identity_up_to_twelve(self):
        for a in range(1, 13):
            for b in range(a + 1):
                expected = 0 if b < a else (-1) ** a * math.factorial(a)
                assert alternating_power_sum(a, b) == expected, (a, b)

    def test_exact_big_integers(self):
        # 12! = 479001600 overflows 32-bit machine words
        assert alternating_power_sum(12, 12) == math.factorial(12)

    def test_rejects_nonpositive_a(self):
        with pytest.raises(ValueError):
            alternating_power_sum(0, 0)


def test_is_prime_basics():
    assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]


def trial_division(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_is_prime_matches_trial_division():
    assert [n for n in range(10**5) if is_prime(n)] == [
        n for n in range(10**5) if trial_division(n)
    ]


def test_is_prime_large_moduli():
    assert is_prime(2**61 - 1)
    assert is_prime(2**31 - 1)
    assert not is_prime(2**61 + 1)
    # strong pseudoprimes to the first 9 and to the first 12 prime bases
    assert not is_prime(3825123056546413051)
    assert not is_prime(318665857834031151167461)
    assert not is_prime(PRIMALITY_LIMIT - 2)


def test_is_prime_refuses_moduli_beyond_exact_range():
    for n in (PRIMALITY_LIMIT, 2**89 - 1):
        with pytest.raises(ValueError, match="too large"):
            is_prime(n)


@pytest.mark.parametrize("n", [7.0, True, False, 2.5, "7", None], ids=repr)
def test_is_prime_rejects_non_integers(n):
    # 7.0 used to pass as 7 and True as 1; neither is coerced now.
    with pytest.raises(ValueError, match="integer"):
        is_prime(n)
