"""Shared helpers for the test suite: random element generators and the
independent brute-force oracles the library is checked against."""

import itertools
from math import comb

from sstorus.canonical import count_c, count_c_prime
from sstorus.idempotents import idempotent_h
from sstorus.torus import Basis, ExponentVector, TorusElement, TorusSpec, element_to_dict


def random_label(spec, rng):
    q = spec.q
    return ExponentVector(
        tuple(rng.randrange(q) for _ in range(spec.m)),
        tuple(rng.randrange(q) for _ in range(spec.n)),
    )


def element_documents():
    """`element_to_dict` documents for the JSON writer: a zero element, an
    element with n = 0 (`"b": []`), both bases, and exponents and
    coefficients of several digits."""
    ev = ExponentVector
    elements = [
        TorusElement(TorusSpec(1, 1, 2, 1), Basis.BINOMIAL, {}),
        TorusElement(TorusSpec(2, 0, 3, 1), Basis.BINOMIAL, {ev((1, 2), ()): 2, ev((0, 0), ()): 1}),
        TorusElement(
            TorusSpec(1, 2, 101, 2, cap=10**30),
            Basis.IDEMPOTENT,
            {ev((10200,), (57, 3)): 97, ev((0,), (10000, 1)): 12},
        ),
        TorusElement(TorusSpec(3, 1, 13, 1), Basis.BINOMIAL, {ev((12, 0, 7), (11,)): 10}),
    ]
    return [element_to_dict(f) for f in elements]


def random_element(spec, rng, max_terms=3, basis=Basis.BINOMIAL):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        terms[random_label(spec, rng)] = rng.randrange(1, spec.p)
    return TorusElement(spec, basis, terms)


def integer_monomial_product(u, v):
    """Untruncated product of two binomial monomials over the integers.

    Returns a map from flat exponent tuples (which may reach beyond q) to
    exact integer coefficients, using
    C(x,a) C(x,b) = sum_i C(a+b-i, a-i) C(b, b-i) C(x, a+b-i) coordinatewise.
    """
    out = {(): 1}
    for ka, kb in zip(u.a + u.b, v.a + v.b):
        nxt = {}
        for ex, c in out.items():
            for i in range(min(ka, kb) + 1):
                coeff = comb(ka + kb - i, ka - i) * comb(kb, kb - i)
                key = ex + (ka + kb - i,)
                nxt[key] = nxt.get(key, 0) + c * coeff
        out = nxt
    return out


def naive_multiply_terms(f, g):
    """Quadratic reference product of two binomial-basis elements, computed
    with exact integers first and truncated/reduced at the very end."""
    spec = f.spec
    p, q, m = spec.p, spec.q, spec.m
    acc = {}
    for ev1, c1 in f.terms.items():
        for ev2, c2 in g.terms.items():
            for key, c in integer_monomial_product(ev1, ev2).items():
                if all(e < q for e in key):
                    acc[key] = (acc.get(key, 0) + c1 * c2 * c) % p
    return {
        ExponentVector(key[:m], key[m:]): c for key, c in acc.items() if c
    }


def from_idempotent_by_h(f):
    """Reference for `from_idempotent_basis`: substitute each idempotent
    label by its binomial expansion `idempotent_h` and sum."""
    acc = {}
    for label, c in f.terms.items():
        for ev, ch in idempotent_h(f.spec, label).terms.items():
            acc[ev] = acc.get(ev, 0) + c * ch
    return TorusElement(f.spec, Basis.BINOMIAL, acc)


def matching_defect(ev, spec):
    """Brute-force maximum bipartite matching between a-slots and b-slots
    joined when a_i + b_j is divisible by p."""
    p = spec.p
    edges = [
        (i, j)
        for i in range(spec.m)
        for j in range(spec.n)
        if (ev.a[i] + ev.b[j]) % p == 0
    ]
    best = 0
    for size in range(min(spec.m, spec.n), 0, -1):
        for subset in itertools.combinations(edges, size):
            lefts = {i for i, _ in subset}
            rights = {j for _, j in subset}
            if len(lefts) == size and len(rights) == size:
                return size
    return best


def coeff_vectors(elements, labels):
    index = {ev: t for t, ev in enumerate(labels)}
    out = []
    for e in elements:
        vec = [0] * len(labels)
        for ev, c in e.terms.items():
            vec[index[ev]] = c
        out.append(vec)
    return out


def split_sum_defect(m, n, d, q, p):
    """Reference for `count_defect`: q/p times count_c_prime(m - e, n - f)
    summed over every split position (e, f) with min(e, f) = d."""
    qp = q // p
    total = 0
    for e in range(d, m + 1):
        total += count_c_prime(m - e, n - d, p)
    for f in range(d + 1, n + 1):
        total += count_c_prime(m - d, n - f, p)
    return qp * total


def split_sum_total(m, n, q, p):
    """Reference for the total count: count_c plus q/p times
    count_c_prime(m - e, n - f) summed over every split (e, f) >= (1, 1)."""
    qp = q // p
    positive = 0
    for e in range(1, m + 1):
        for f in range(1, n + 1):
            positive += count_c_prime(m - e, n - f, p)
    return count_c(m, n, q, p) + qp * positive


def rectangle_sum_by_binomials(a, b, p):
    """R(a, b) = sum_l C(p - 1, l) C(b, l) C(p - 1 - l + a, a), each term
    from its three binomials."""
    if a < 0 or b < 0:
        return 0
    return sum(comb(p - 1, l) * comb(b, l) * comb(p - 1 - l + a, a) for l in range(min(b, p - 1) + 1))
