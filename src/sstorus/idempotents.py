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
from math import comb

from .torus import (
    Basis,
    ExponentVector,
    TorusElement,
    TorusSpec,
    _require_basis,
    _require_same_spec,
)


@lru_cache(maxsize=8)
def _binomial_table(p: int, q: int):
    """B[v][k] = C(v, k) mod p for 0 <= v, k < q."""
    return tuple(tuple(comb(v, k) % p for k in range(q)) for v in range(q))


def _univariate_terms(p: int, q: int, a: int):
    """Nonzero coefficients of X_a as ((exponent, coeff), ...)."""
    out = []
    for k in range(a, q):
        c = (-1) ** (k - a) * comb(k, a) % p
        if c:
            out.append((k, c))
    return tuple(out)


def idempotent_univariate(spec: TorusSpec, block: str, index: int, a: int) -> TorusElement:
    """The idempotent X_a attached to one variable, in the binomial basis."""
    if not 0 <= a < spec.q:
        raise ValueError(f"index a = {a} outside [0, {spec.q})")
    slot, m = spec.slot(block, index), spec.m
    key = [0] * (m + spec.n)
    terms = {}
    for k, c in _univariate_terms(spec.p, spec.q, a):
        key[slot] = k
        terms[ExponentVector(tuple(key[:m]), tuple(key[m:]))] = c
    return TorusElement(spec, Basis.BINOMIAL, terms)


# Room for every label of the largest dense oracle (512 labels, see
# ss_basis.DENSE_ORACLE_LIMIT); the benchmark workloads use at most 204.
@lru_cache(maxsize=1024)
def idempotent_h(spec: TorusSpec, ev: ExponentVector) -> TorusElement:
    """The primitive idempotent h_(a|b), expanded in the binomial basis.

    Distinct variables commute with no cross terms, so the product of the
    univariate idempotents is the coordinatewise cross product of their
    expansions.
    """
    spec.check_label(ev)
    p, q, m = spec.p, spec.q, spec.m
    partial = [((), 1)]
    for a in ev.a + ev.b:
        tab = _univariate_terms(p, q, a)
        partial = [(ex + (k,), c * ck % p) for ex, c in partial for k, ck in tab]
    terms = {ExponentVector(ex[:m], ex[m:]): c for ex, c in partial if c}
    return TorusElement(spec, Basis.BINOMIAL, terms)


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


def to_idempotent_basis(f: TorusElement) -> TorusElement:
    """Re-express a binomial-basis element in idempotent coordinates.

    The coordinate at a label equals the evaluation of f at that integer
    point, because h_(a|b) evaluates to 1 at (a|b) and to 0 at every other
    label.
    """
    _require_basis(f, Basis.BINOMIAL)
    spec = f.spec
    p = spec.p
    B = _binomial_table(p, spec.q)
    flat_terms = [(ev.a + ev.b, c) for ev, c in f.terms.items()]
    out = {}
    for label in spec.labels():
        flat = label.a + label.b
        total = 0
        for key, c in flat_terms:
            prod = c
            for v, k in zip(flat, key):
                prod = prod * B[v][k] % p
                if not prod:
                    break
            total = (total + prod) % p
        if total:
            out[label] = total
    return TorusElement(spec, Basis.IDEMPOTENT, out)


def from_idempotent_basis(f: TorusElement) -> TorusElement:
    """Substitute each idempotent label by its binomial expansion and sum."""
    _require_basis(f, Basis.IDEMPOTENT)
    spec = f.spec
    acc: dict = {}
    for label, c in f.terms.items():
        for ev, ch in idempotent_h(spec, label).terms.items():
            acc[ev] = acc.get(ev, 0) + c * ch
    return TorusElement(spec, Basis.BINOMIAL, acc)


def multiply_idempotent_basis(f: TorusElement, g: TorusElement) -> TorusElement:
    """Pointwise product of idempotent coordinates (the basis is orthogonal)."""
    _require_same_spec(f, g)
    _require_basis(f, Basis.IDEMPOTENT)
    _require_basis(g, Basis.IDEMPOTENT)
    small, large = (f.terms, g.terms) if len(f.terms) <= len(g.terms) else (g.terms, f.terms)
    terms = {ev: c * large[ev] for ev, c in small.items() if ev in large}
    return TorusElement(f.spec, Basis.IDEMPOTENT, terms)
