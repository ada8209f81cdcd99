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
    _ev,
    _require_basis,
    _require_same_spec,
)


def _put(key: tuple, slot: int, value: int) -> tuple:
    return key[:slot] + (value,) + key[slot + 1 :]


def shift_substitute(f: TorusElement, i: int, j: int) -> TorusElement:
    """Apply the shift x_i -> x_i - 1, y_j -> y_j + 1 termwise.  New
    exponents are t <= k and, only when l >= 1, l - 1, so all in range."""
    _require_basis(f, Basis.BINOMIAL)
    spec = f.spec
    ix, jy = spec.slot("x", i), spec.slot("y", j)
    m = spec.m
    acc: dict = {}
    for ev, c in f.terms.items():
        key = list(ev.a + ev.b)
        k, l = key[ix], key[jy]
        b_parts = (l,) if l == 0 else (l - 1, l)
        for t in range(k + 1):
            ct = -c if (k - t) & 1 else c
            key[ix] = t
            for lb in b_parts:
                key[jy] = lb
                new = tuple(key)
                acc[new] = acc.get(new, 0) + ct
    return _element(spec, Basis.BINOMIAL, [(_ev(ex[:m], ex[m:]), c) for ex, c in acc.items()])


def phi(f: TorusElement, i: int, j: int) -> TorusElement:
    """The difference f - s_ij(f)."""
    terms = dict(f.terms)
    for ev, c in shift_substitute(f, i, j).terms.items():
        terms[ev] = terms.get(ev, 0) - c
    return _element(f.spec, f.basis, terms.items())


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
    ix, jy = spec.slot("x", i), spec.slot("y", j) - spec.m
    gi = g if g.basis is Basis.IDEMPOTENT else to_idempotent_basis(g)
    p = spec.p
    quot = {}
    for ev, c in gi.terms.items():
        s = (ev.a[ix] + ev.b[jy]) % p
        if s == 0:
            return DaggerWitness(False, None)
        quot[ev] = c * pow(s, -1, p)
    return DaggerWitness(True, _element(spec, Basis.IDEMPOTENT, quot.items()))


def is_bisymmetric(f: TorusElement) -> bool:
    """Invariance under permuting the x slots and the y slots separately.

    Adjacent transpositions generate both symmetric groups, so checking the
    generators on the coefficient map suffices.  Labels are read as flat
    tuples a + b, so the y slots start at offset m.
    """
    m, n = f.spec.m, f.spec.n
    flat = {ev.a + ev.b: c for ev, c in f.terms.items()}
    for idx in itertools.chain(range(m - 1), range(m, m + n - 1)):
        for key, c in flat.items():
            u, v = key[idx], key[idx + 1]
            if u != v and flat.get(key[:idx] + (v, u) + key[idx + 2 :], 0) != c:
                return False
    return True


def symmetrize(ev: ExponentVector, spec: TorusSpec) -> TorusElement:
    """Sum of h over the distinct permutations of ev, coefficient 1 each."""
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
    p, q = spec.p, spec.q
    ix, jy = spec.slot("x", i), spec.slot("y", j)
    flat = {ev.a + ev.b: c for ev, c in f.terms.items()}
    for key, c in flat.items():
        a, b = key[ix], key[jy]
        if (a + b) % p:
            continue
        for step in (1, -1):
            nb = list(key)
            nb[ix], nb[jy] = (a + step) % q, (b - step) % q
            if flat.get(tuple(nb), 0) != c:
                return False
    return True


def is_supersymmetric(f: TorusElement, check_all_pairs: bool = False) -> bool:
    """Bisymmetry plus the (1, 1) divisibility condition.

    Decided in idempotent coordinates, in time linear in the number of terms
    of idempotent input; binomial input is converted once.  With
    `check_all_pairs` the remaining pairs are recomputed as a diagnostic; for
    a bisymmetric element they must all agree with (1, 1).
    """
    spec = f.spec
    if spec.n < 1:
        raise ValueError("supersymmetry needs at least one y variable")
    if not is_bisymmetric(f):
        return False
    fi = f if f.basis is Basis.IDEMPOTENT else to_idempotent_basis(f)
    d11 = _shift_invariant_where_divisible(fi, 1, 1)
    if check_all_pairs:
        for i in range(1, spec.m + 1):
            for j in range(1, spec.n + 1):
                if _shift_invariant_where_divisible(fi, i, j) != d11:
                    raise RuntimeError(
                        f"divisibility at pair ({i}, {j}) disagrees with (1, 1) "
                        "on a bisymmetric element"
                    )
    return d11


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
    ix, jy = spec.slot("x", i), spec.slot("y", j)
    p, q = spec.p, spec.q
    A = {ev.a + ev.b: c for ev, c in a_coeffs.terms.items()}
    B = {ev.a + ev.b: c for ev, c in b_coeffs.terms.items()}

    candidates = set()
    for key in A:
        bj = key[jy]
        for t in range(key[ix] + 1):
            lam = _put(key, ix, t)
            candidates.add(lam)
            if bj > 0:
                candidates.add(_put(lam, jy, bj - 1))
    for key in B:
        candidates.add(key)
        if key[ix] + 1 < q:
            candidates.add(_put(key, ix, key[ix] + 1))
        if key[jy] + 1 < q:
            candidates.add(_put(key, jy, key[jy] + 1))

    for lam in candidates:
        li, lj = lam[ix], lam[jy]
        lhs = 0
        for t in range(li, q):
            sign = -1 if (t - li) & 1 else 1
            shifted = _put(lam, ix, t)
            for pj in (lj, lj + 1):
                if pj >= q or (t == li and pj == lj):
                    continue
                c = A.get(_put(shifted, jy, pj), 0)
                if c:
                    lhs -= sign * c
        rhs = (li + lj) * B.get(lam, 0)
        if li:
            rhs += li * B.get(_put(lam, ix, li - 1), 0)
        if lj:
            rhs += lj * B.get(_put(lam, jy, lj - 1), 0)
        if (lhs - rhs) % p:
            return False
    return True
