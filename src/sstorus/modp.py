"""Binomial-coefficient arithmetic modulo a prime.

Everything here is exact: big integers in, canonical residues out.  The
base-p digit product (Lucas) and the carry criterion (Kummer) are
implemented independently of each other so they can be cross-checked
against plain integer binomials.
"""

from __future__ import annotations

from math import comb

# Deterministic Miller-Rabin: the first 13 prime bases decide primality
# exactly below psi_13 (Sorenson and Webster, Math. Comp. 86 (2017)).
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIMALITY_LIMIT = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin over the first 13 prime bases.

    Exact for n below `PRIMALITY_LIMIT` (about 3.3e24); larger n raise
    `ValueError` rather than get a probabilistic answer, and so does an n
    that is not an `int` (a float or a bool is not coerced).
    """
    if type(n) is not int:
        raise ValueError(f"primality needs an integer, got {n!r}")
    if n >= PRIMALITY_LIMIT:
        raise ValueError(f"modulus {n} is too large to test for primality")
    if n < 2:
        return False
    for a in _WITNESSES:
        if n % a == 0:
            return n == a
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    d = (n - 1) >> s
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _require_prime(p: int):
    if not is_prime(p):
        raise ValueError(f"modulus {p} is not prime")


def binom_mod_p(n: int, k: int, p: int) -> int:
    """C(n, k) mod p via the base-p digit product, as a residue in [0, p).

    Exact for arbitrarily large n, k; returns 0 whenever k > n.
    """
    _require_prime(p)
    if n < 0 or k < 0:
        raise ValueError("n and k must be non-negative")
    if k > n:
        return 0
    acc = 1
    while k:
        nd, n = n % p, n // p
        kd, k = k % p, k // p
        if kd > nd:
            return 0
        acc = acc * comb(nd, kd) % p
    return acc


def has_padic_carry(a: int, b: int, p: int) -> bool:
    """True iff adding a and b in base p produces at least one carry.

    Equivalent to C(a+b, a) being divisible by p.
    """
    _require_prime(p)
    if a < 0 or b < 0:
        raise ValueError("a and b must be non-negative")
    while a and b:
        if a % p + b % p >= p:
            return True
        a //= p
        b //= p
    return False


def alternating_power_sum(a: int, b: int) -> int:
    """Exact value of sum_{r=0}^{a} (-1)^r C(a, r) r^b, with 0^0 = 1.

    The sum vanishes for 0 <= b < a and equals (-1)^a a! at b = a.
    """
    if a < 1:
        raise ValueError("a must be positive")
    if b < 0:
        raise ValueError("b must be non-negative")
    total = 0
    for r in range(a + 1):
        term = comb(a, r) * r**b
        total = total - term if r & 1 else total + term
    return total
