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

import sys
from array import array
from functools import lru_cache
from itertools import compress
from math import comb

from .torus import (
    Basis,
    ExponentVector,
    TorusElement,
    TorusSpec,
    _element,
    _require_basis,
    _require_same_spec,
)

# The change of basis reduces its 64-bit fields mod p before any pass whose
# result could reach this.
_FIELD_LIMIT = 1 << 64
_TYPECODES = {array(c).itemsize: c for c in "QLI"}  # unsigned, by field bytes


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
    """Evaluate a binomial-basis element at an integer point of [0, q)^(m+n)
    by exact binomials C(v, k) mod p, independent of the change of basis."""
    _require_basis(f, Basis.BINOMIAL)
    spec = f.spec
    spec.check_label(point)
    p = spec.p
    flat = point.a + point.b
    total = 0
    for ev, c in f.terms.items():
        prod = c
        for v, k in zip(flat, ev.a + ev.b):
            prod = prod * comb(v, k) % p
            if not prod:
                break
        total = (total + prod) % p
    return total


# The most work `_change_basis` takes on: fields times the product terms that
# form them.  A dense element at (1,1,997,1) is 9.9e8 each way and takes 6-9 s
# (Python 3.11, shared 2-core x86 host); a dense one at (1,1,3001,1) is 1.35e10.
MAX_CHANGE_WORK = 2 * 10**9


def _change_basis(f: TorusElement, basis: Basis) -> TorusElement:
    """Re-express f in `basis` by the Kronecker power of the Pascal map on one
    base-p digit, over all (m+n) r digits of the labels (Yates's algorithm).

    The flat index of a label has the base-p digits of its entries, q = p^r,
    and by Lucas's theorem the mod-p Pascal matrix on [0, q)^(m+n) and its
    inverse factor into one pass per digit.  The map sends digit d to each
    e >= d with weight s^(e-d) e!/(d! (e-d)!) mod p, s = 1 towards idempotent
    coordinates and -1 back, from two length-p factorial lists.  The N
    coefficients are unsigned fields of one array; a pass reads each
    lowest-digit slice as one int, sums weights times the nonzero slices into
    each output digit's slice and puts that digit on top, so the digits end in
    place.  A running bound reduces the fields mod p before any pass could
    reach _FIELD_LIMIT; they are 32-bit if it never reaches 2^32 or that, else
    64-bit.  A p with (p-1)^2 p >= 2^64 is refused, and so is a call whose
    work, the sum of p - d over the live d of each pass times N/p, passes
    MAX_CHANGE_WORK.  Memory O(N + p)."""
    spec, p = f.spec, f.spec.p
    if (p - 1) ** 2 * p >= 1 << 64:
        raise ValueError(f"p = {p} is too large for 64-bit fields in the change of basis")
    # fact[k] = s^k k! and inv[k] = 1/k!, so the weight of d in e is
    # fact[e] (fact[d] inv[d]^2) inv[e-d], as s^(e-d) = s^e s^d; (p-1)! = -1.
    s = 1 if basis is Basis.IDEMPOTENT else p - 1
    fact, inv = [1] * p, [1] * (p - 1) + [p - 1]
    for k in range(1, p):
        fact[k] = fact[k - 1] * k * s % p
        inv[p - k - 1] = inv[p - k] * (p - k) % p
    passes, growth, bound, work = (spec.m + spec.n) * spec.r, p * (p - 1), p - 1, 0
    itemsize = 4 if bound * growth**passes < min(_FIELD_LIMIT, 1 << 32) else 8
    vec = array(_TYPECODES[itemsize], [0]) * spec.dimension
    for t, c in f.coeffs.items():
        vec[t] = c
    width = spec.dimension // p  # the fields of one slice
    size, order = vec.itemsize * width, sys.byteorder
    for _ in range(passes):
        if bound * growth >= _FIELD_LIMIT:
            vec, bound = array(vec.typecode, [x % p for x in vec]), p - 1
        bound *= growth
        live = [(d, c, fact[d] * inv[d] * inv[d] % p) for d in range(p)
                if (c := int.from_bytes(vec[d::p], order))]
        work += sum([p - d for d, _, _ in live]) * width
        if work > MAX_CHANGE_WORK:
            raise ValueError(f"the change of basis is too much work: about {work:.1e}"
                             f" field operations, above {MAX_CHANGE_WORK:.1e}")
        out = memoryview(vec).cast("B")  # vec is in live, so the output overwrites it
        for e, fe in enumerate(fact):  # output digit e becomes the top
            out[e * size : (e + 1) * size] = sum(
                [c if (w := fe * x * inv[e - d] % p) == 1 else w * c for d, c, x in live if d <= e]
            ).to_bytes(size, order)
    return _element(spec, basis, compress(enumerate(vec), vec))


def to_idempotent_basis(f: TorusElement) -> TorusElement:
    """Re-express a binomial-basis element in idempotent coordinates.

    The coordinate at a label equals the evaluation of f at that integer
    point, because h_(a|b) evaluates to 1 at (a|b) and to 0 at every other
    label: the map is the Pascal matrix C(v, k) mod p.
    """
    _require_basis(f, Basis.BINOMIAL)
    return _change_basis(f, Basis.IDEMPOTENT)


def from_idempotent_basis(f: TorusElement) -> TorusElement:
    """Sum the binomial expansions of the idempotents: the inverse Pascal
    matrix (-1)^(k-a) C(k, a) mod p, the coefficients of X_a."""
    _require_basis(f, Basis.IDEMPOTENT)
    return _change_basis(f, Basis.BINOMIAL)


def multiply_idempotent_basis(f: TorusElement, g: TorusElement) -> TorusElement:
    """Pointwise product of idempotent coordinates (the basis is orthogonal)."""
    _require_same_spec(f, g)
    _require_basis(f, Basis.IDEMPOTENT)
    _require_basis(g, Basis.IDEMPOTENT)
    small, large = sorted((f.coeffs, g.coeffs), key=len)
    terms = [(t, c * large[t]) for t, c in small.items() if t in large]
    return _element(f.spec, Basis.IDEMPOTENT, terms)
