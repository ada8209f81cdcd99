"""Shift-difference calculus on the torus algebra.

The shift s_ij replaces x_i by x_i - 1 and y_j by y_j + 1, expanded termwise
through

    C(x - 1, k) = sum_{l=0}^{k} (-1)^(k-l) C(x, l)
    C(y + 1, k) = C(y, k-1) + C(y, k),

and phi_ij(f) = f - s_ij(f) measures the failure of shift invariance.  An
element is supersymmetric when it is symmetric in the x variables and in the
y variables separately and every phi_ij(f) is divisible by x_i + y_j; for a
bisymmetric element the single pair (1, 1) already decides all pairs.
"""

from __future__ import annotations

import itertools
from collections import namedtuple

from .idempotents import from_idempotent_basis, to_idempotent_basis
from .torus import (
    Basis,
    ExponentVector,
    TorusElement,
    TorusSpec,
    _element,
    _require_basis,
    _require_same_spec,
    _weight,
)


def shift_substitute(f: TorusElement, i: int, j: int) -> TorusElement:
    """Apply the shift x_i -> x_i - 1, y_j -> y_j + 1 termwise.  New
    exponents are e <= k and, only when l >= 1, l - 1, so all in range: a
    flat index steps by the digit weights of x_i and y_j."""
    _require_basis(f, Basis.BINOMIAL)
    spec = f.spec
    q, wx, wy = spec.q, _weight(spec, "x", i), _weight(spec, "y", j)
    acc: dict = {}
    for t, c in f.coeffs.items():
        k = t // wx % q
        steps = (0,) if t // wy % q == 0 else (-wy, 0)
        base = t - k * wx
        for e in range(k + 1):
            ce = -c if (k - e) & 1 else c
            for step in steps:
                u = base + e * wx + step
                acc[u] = acc.get(u, 0) + ce
    return _element(spec, Basis.BINOMIAL, acc.items())


def phi(f: TorusElement, i: int, j: int) -> TorusElement:
    """The difference f - s_ij(f)."""
    coeffs = dict(f.coeffs)
    for t, c in shift_substitute(f, i, j).coeffs.items():
        coeffs[t] = coeffs.get(t, 0) - c
    return _element(f.spec, f.basis, coeffs.items())


DaggerWitness = namedtuple("DaggerWitness", "holds quotient")
DaggerWitness.__doc__ = """Outcome of a divisibility test by x_i + y_j.

When `holds`, `quotient` is the unique preimage supported on labels with
a_i + b_j prime to p, so that (x_i + y_j) * quotient recovers the input.
"""


def is_multiple_of_linear(g: TorusElement, i: int, j: int) -> DaggerWitness:
    """Decide divisibility by x_i + y_j inside the truncated algebra.

    Multiplication by x_i + y_j scales the idempotent coordinate at (a|b) by
    a_i + b_j, so g is a multiple exactly when its coordinates vanish
    wherever p divides a_i + b_j.
    """
    spec = g.spec
    p, q, wx, wy = spec.p, spec.q, _weight(spec, "x", i), _weight(spec, "y", j)
    gi = g if g.basis is Basis.IDEMPOTENT else to_idempotent_basis(g)
    quot = []
    for t, c in gi.coeffs.items():
        s = (t // wx % q + t // wy % q) % p
        if s == 0:
            return DaggerWitness(False, None)
        quot.append((t, c * pow(s, -1, p)))
    return DaggerWitness(True, _element(spec, Basis.IDEMPOTENT, quot))


def is_bisymmetric(f: TorusElement) -> bool:
    """Invariance under permuting the x slots and the y slots separately.

    Adjacent transpositions generate both symmetric groups, so checking the
    generators on the coefficient map suffices: swapping the digits u, v of
    weights w q and w moves a flat index by (v - u)(w q - w).
    """
    q, m, k = f.spec.q, f.spec.m, f.spec.m + f.spec.n
    coeffs = f.coeffs
    for s in itertools.chain(range(m - 1), range(m, k - 1)):
        w = q ** (k - 2 - s)
        for t, c in coeffs.items():
            v, u = t // w % q, t // w // q % q
            if u != v and coeffs.get(t + (v - u) * (w * q - w), 0) != c:
                return False
    return True


def symmetrize(ev: ExponentVector, spec: TorusSpec) -> TorusElement:
    """Sum of h over the distinct permutations of ev, coefficient 1 each."""
    spec.check_label(ev)
    orbit = set()
    for pa in set(itertools.permutations(ev.a)):
        for pb in set(itertools.permutations(ev.b)):
            orbit.add(ExponentVector(pa, pb))
    return TorusElement(spec, Basis.IDEMPOTENT, {o: 1 for o in orbit})


def satisfies_dagger(f: TorusElement, i: int, j: int) -> bool:
    """Whether phi_ij(f) is divisible by x_i + y_j, computed through the
    binomial-basis shift; the independent counterpart of the idempotent-side
    test inside `is_supersymmetric`."""
    fb = f if f.basis is Basis.BINOMIAL else from_idempotent_basis(f)
    return is_multiple_of_linear(phi(fb, i, j), i, j).holds


def _shift_invariant_where_divisible(f: TorusElement, i: int, j: int) -> bool:
    """Whether phi_ij(f) is divisible by x_i + y_j, read off idempotent
    coordinates.

    s_ij sends h_(a|b) to the idempotent with a_i + 1 and b_j - 1 (mod q), so
    phi_ij(f) has coordinate f(beta) - f(beta - delta) at beta.  The step
    delta keeps a_i + b_j fixed, and divisibility asks for that difference to
    vanish wherever p divides a_i + b_j.  A violation is nonzero at beta or at
    beta - delta, so comparing both neighbours of every support label finds
    it.
    """
    spec = f.spec
    p, q, wx, wy = spec.p, spec.q, _weight(spec, "x", i), _weight(spec, "y", j)
    coeffs = f.coeffs
    for t, c in coeffs.items():
        a, b = t // wx % q, t // wy % q
        if (a + b) % p:
            continue
        for step in (1, -1):
            if coeffs.get(t + ((a + step) % q - a) * wx + ((b - step) % q - b) * wy, 0) != c:
                return False
    return True


def is_supersymmetric(f: TorusElement) -> bool:
    """Bisymmetry plus the (1, 1) divisibility condition.

    Decided in idempotent coordinates, in time linear in the number of terms
    of idempotent input; binomial input is converted once.
    """
    if f.spec.n < 1:
        raise ValueError("supersymmetry needs at least one y variable")
    if not is_bisymmetric(f):
        return False
    fi = f if f.basis is Basis.IDEMPOTENT else to_idempotent_basis(f)
    return _shift_invariant_where_divisible(fi, 1, 1)


def freeze_slices(f: TorusElement, i: int, j: int) -> dict:
    """Group terms by the exponents of every variable other than (x_i, y_j).

    Returns a map from the frozen exponent data to elements of the rank-(1|1)
    algebra with the same p and r.
    """
    _require_basis(f, Basis.BINOMIAL)
    spec = f.spec
    ix, jy = spec.slot("x", i), spec.slot("y", j) - spec.m
    spec11 = TorusSpec(1, 1, spec.p, spec.r, cap=spec.cap)
    grouped: dict = {}
    for ev, c in f.terms.items():
        rest = (ev.a[:ix] + ev.a[ix + 1 :], ev.b[:jy] + ev.b[jy + 1 :])
        key = ExponentVector((ev.a[ix],), (ev.b[jy],))
        grouped.setdefault(rest, {})[key] = c
    return {
        rest: TorusElement(spec11, Basis.BINOMIAL, terms)
        for rest, terms in grouped.items()
    }


def star_system_check(
    a_coeffs: TorusElement, b_coeffs: TorusElement, i: int, j: int
) -> bool:
    """Coefficientwise check that the shift difference of the first element
    equals (x_i + y_j) times the second.

    Both inputs are binomial-basis coefficient families over the same
    algebra.  For every in-range label L the system requires

        -sum (-1)^(P_i - L_i) a_P  =  (L_i + L_j) b_L + L_i b_(L-e_i) + L_j b_(L-e_j)

    mod p, with P running over in-range labels that agree with L away from
    slots (i, j), P_i >= L_i, L_j <= P_j <= L_j + 1 and P != L.  Out-of-range
    coefficients are treated as zero.
    """
    _require_same_spec(a_coeffs, b_coeffs)
    _require_basis(a_coeffs, Basis.BINOMIAL)
    _require_basis(b_coeffs, Basis.BINOMIAL)
    spec = a_coeffs.spec
    p, q, wx, wy = spec.p, spec.q, _weight(spec, "x", i), _weight(spec, "y", j)
    A, B = a_coeffs.coeffs, b_coeffs.coeffs

    candidates = set()
    for t in A:
        k, l = t // wx % q, t // wy % q
        for e in range(k + 1):
            lam = t + (e - k) * wx
            candidates.add(lam)
            if l > 0:
                candidates.add(lam - wy)
    for t in B:
        candidates.add(t)
        if t // wx % q + 1 < q:
            candidates.add(t + wx)
        if t // wy % q + 1 < q:
            candidates.add(t + wy)

    for lam in candidates:
        li, lj = lam // wx % q, lam // wy % q
        lhs = 0
        for e in range(li, q):
            sign = -1 if (e - li) & 1 else 1
            shifted = lam + (e - li) * wx
            for pj in (lj, lj + 1):
                if pj >= q or (e == li and pj == lj):
                    continue
                c = A.get(shifted + (pj - lj) * wy, 0)
                if c:
                    lhs -= sign * c
        rhs = (li + lj) * B.get(lam, 0)
        if li:
            rhs += li * B.get(lam - wx, 0)
        if lj:
            rhs += lj * B.get(lam - wy, 0)
        if (lhs - rhs) % p:
            return False
    return True
