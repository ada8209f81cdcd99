"""The orthogonal idempotent basis of a truncated torus algebra and the two
change-of-basis maps.

For 0 <= a < q the element

    X_a = sum_{k=a}^{q-1} (-1)^(k-a) C(k, a) C(x, k)

is idempotent, X_a X_b = 0 for a != b, and sum_a X_a = 1.  Products over all
variables give the multivariate idempotents h_(a|b); in that basis the
algebra multiplies pointwise, and the coordinate of an element at a label is
its evaluation at that integer point (C(x, k) evaluated at v is C(v, k)).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import repeat
from math import comb
from operator import add, mul

from .torus import (
    Basis,
    ExponentVector,
    TorusElement,
    TorusSpec,
    _element,
    _require_basis,
    _require_same_spec,
)


@lru_cache(maxsize=8)
def _binomial_table(p: int, q: int):
    """B[v][k] = C(v, k) mod p for 0 <= v, k < q, by Pascal's rule, not Lucas."""
    B = [(1,) + (0,) * (q - 1)]
    for _ in range(1, q):
        B.append((1,) + tuple([(x + y) % p for x, y in zip(B[-1], B[-1][1:])]))
    return tuple(B)


def _univariate_terms(p: int, q: int, a: int):
    """Nonzero coefficients of X_a as ((exponent, coeff), ...)."""
    out = []
    for k in range(a, q):
        c = (-1) ** (k - a) * comb(k, a) % p
        if c:
            out.append((k, c))
    return tuple(out)


# The change of basis does not use this.  The one caller outside the tests,
# ss_basis.ss_nullspace_oracle, asks for each label once per call, so the
# cache hits only on repeated calls.  It stays (bounded to the largest dense
# oracle, 512 labels) because perfbench/tracer.py reads its cache_info.  It is
# typed, so that a plain tuple never hits the entry of the label it equals.
@lru_cache(maxsize=1024, typed=True)
def idempotent_h(spec: TorusSpec, ev: ExponentVector) -> TorusElement:
    """The primitive idempotent h_(a|b), expanded in the binomial basis.

    Distinct variables commute with no cross terms, so the product of the
    univariate idempotents is the coordinatewise cross product of their
    expansions, and every exponent lies in [a, q).
    """
    spec.check_label(ev)
    p, q = spec.p, spec.q
    partial = [(0, 1)]
    for a in ev.a + ev.b:
        tab = _univariate_terms(p, q, a)
        partial = [(t * q + k, c * ck % p) for t, c in partial for k, ck in tab]
    return _element(spec, Basis.BINOMIAL, partial)


def evaluate_point(f: TorusElement, point: ExponentVector) -> int:
    """Evaluate a binomial-basis element at an integer point of [0, q)^(m+n)."""
    _require_basis(f, Basis.BINOMIAL)
    spec = f.spec
    spec.check_label(point)
    B = _binomial_table(spec.p, spec.q)
    p = spec.p
    flat = point.a + point.b
    total = 0
    for ev, c in f.terms.items():
        prod = c
        for v, k in zip(flat, ev.a + ev.b):
            prod = prod * B[v][k] % p
            if not prod:
                break
        total = (total + prod) % p
    return total


@lru_cache(maxsize=4)
def _digit_tables(p: int):
    """(B, B_inv) with B[v][k] = C(v, k) and B_inv[k][a] = (-1)^(k-a) C(k, a)
    mod p for digits in [0, p), mutually inverse, built by Pascal's rule."""
    B = [[1] + [0] * (p - 1)]
    for _ in range(1, p):
        B.append([1] + [(x + y) % p for x, y in zip(B[-1], B[-1][1:])])
    B_inv = [[(-c if (k - a) & 1 else c) % p for a, c in enumerate(row)] for k, row in enumerate(B)]
    return tuple(map(tuple, B)), tuple(map(tuple, B_inv))


def _change_basis(f: TorusElement, table: tuple, basis: Basis) -> TorusElement:
    """Multiply the coefficients of f by the Kronecker power of the p x p
    `table` over all (m+n) r base-p digits of the labels (Yates's algorithm).

    The flat index of a label (v_1..v_(m+n)), sum_s v_s q^(m+n-1-s), has the
    base-p digits of its entries because q = p^r.  By Lucas's
    theorem C(v, k) mod p is the product of its digit binomials, so the
    mod-p Pascal matrix on [0, q)^(m+n), and its inverse, factor into one
    pass per digit.  A pass maps the dense list of all N coefficients
    through `table` on the lowest digit and puts the new digit on top (a
    perfect shuffle), so the digits end in place.  A pass skips the slices
    that are all zero and costs O(N) per live one; with every slice live, as
    a sparse f at small p soon has, it is (p+1)/2 terms per entry.  Memory O(N).
    """
    spec = f.spec
    p = spec.p
    vec = [0] * spec.dimension
    for t, c in f.coeffs.items():
        vec[t] = c
    rows = [[(d, w) for d, w in enumerate(row) if w] for row in table]
    zero = [0] * (spec.dimension // p)
    for _ in range((spec.m + spec.n) * spec.r):
        # cols[d][t]: lowest digit d, the rest t; None if all zero, and skipped
        cols = [c if any(c) else None for c in (vec[d::p] for d in range(p))]
        vec = []
        for row in rows:  # output digit e, in order, becomes the top
            acc = zero
            for d, w in row:
                if cols[d]:
                    prod = cols[d] if w == 1 else map(mul, cols[d], repeat(w))
                    acc = prod if acc is zero else list(map(add, acc, prod))
            vec += [x % p for x in acc]
    return _element(spec, basis, enumerate(vec))


def to_idempotent_basis(f: TorusElement) -> TorusElement:
    """Re-express a binomial-basis element in idempotent coordinates.

    The coordinate at a label equals the evaluation of f at that integer
    point, because h_(a|b) evaluates to 1 at (a|b) and to 0 at every other
    label: the map is the Pascal matrix C(v, k) mod p.
    """
    _require_basis(f, Basis.BINOMIAL)
    return _change_basis(f, _digit_tables(f.spec.p)[0], Basis.IDEMPOTENT)


def from_idempotent_basis(f: TorusElement) -> TorusElement:
    """Sum the binomial expansions of the idempotents: the inverse Pascal
    matrix (-1)^(k-a) C(k, a) mod p, the coefficients of X_a."""
    _require_basis(f, Basis.IDEMPOTENT)
    return _change_basis(f, _digit_tables(f.spec.p)[1], Basis.BINOMIAL)


def multiply_idempotent_basis(f: TorusElement, g: TorusElement) -> TorusElement:
    """Pointwise product of idempotent coordinates (the basis is orthogonal)."""
    _require_same_spec(f, g)
    _require_basis(f, Basis.IDEMPOTENT)
    _require_basis(g, Basis.IDEMPOTENT)
    small, large = sorted((f.coeffs, g.coeffs), key=len)
    terms = [(t, c * large[t]) for t, c in small.items() if t in large]
    return _element(f.spec, Basis.IDEMPOTENT, terms)
