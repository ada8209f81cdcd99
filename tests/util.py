"""Shared helpers for the test suite: random element generators and the
independent brute-force oracles the library is checked against."""

import itertools
import operator
from array import array
from collections import Counter
from functools import lru_cache
from itertools import repeat
from math import comb

from sstorus.canonical import (
    count_c,
    count_c_prime,
    enumerate_equivalence_class,
)
from sstorus.idempotents import evaluate_point, idempotent_h
from sstorus.modp import _require_prime
from sstorus.supersymmetry import phi, shift_substitute
from sstorus.torus import (
    Basis,
    ExponentVector,
    TorusElement,
    TorusSpec,
    _element,
    add,
    element_to_dict,
    multiply,
)


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


def phi_by_shift(f, i, j):
    """Reference for `phi`: f minus its shift, as two elements."""
    return f - shift_substitute(f, i, j)


def from_idempotent_by_h(f):
    """Reference for `from_idempotent_basis`: substitute each idempotent
    label by its binomial expansion `idempotent_h` and sum."""
    acc = {}
    for label, c in f.terms.items():
        for ev, ch in idempotent_h(f.spec, label).terms.items():
            acc[ev] = acc.get(ev, 0) + c * ch
    return TorusElement(f.spec, Basis.BINOMIAL, acc)


@lru_cache(maxsize=4)
def _digit_tables(p: int):
    """(B, B_inv) with B[v][k] = C(v, k) and B_inv[k][a] = (-1)^(k-a) C(k, a)
    mod p for digits in [0, p), mutually inverse, built by Pascal's rule."""
    B = [[1] + [0] * (p - 1)]
    for _ in range(1, p):
        B.append([1] + [(x + y) % p for x, y in zip(B[-1], B[-1][1:])])
    B_inv = [[(-c if (k - a) & 1 else c) % p for a, c in enumerate(row)] for k, row in enumerate(B)]
    return tuple(map(tuple, B)), tuple(map(tuple, B_inv))


# Reference for `idempotents._change_basis`: the same Yates passes over a
# Python list, reducing every entry mod p after each pass.  Only `operator.`
# was added, so that the names do not clash with `torus.add`.
def change_basis_by_lists(f: TorusElement, table: tuple, basis: Basis) -> TorusElement:
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
                    prod = cols[d] if w == 1 else map(operator.mul, cols[d], repeat(w))
                    acc = prod if acc is zero else list(map(operator.add, acc, prod))
            vec += [x % p for x in acc]
    return _element(spec, basis, enumerate(vec))


def divisibility_rows_by_element(spec, i, j):
    """Reference for the dense oracle's divisibility rows: phi(h_t, i, j) of
    every whole `idempotent_h` expansion, evaluated point by point at every
    label beta with p | a_i + b_j.  One row per beta and one entry per label
    t, both in label order."""
    p = spec.p
    labels = list(spec.labels())
    bad = [ev for ev in labels if (ev.a[i - 1] + ev.b[j - 1]) % p == 0]
    images = []
    for ev in labels:
        ph = phi(idempotent_h(spec, ev), i, j)
        images.append([evaluate_point(ph, beta) for beta in bad])
    return [list(row) for row in zip(*images)]


def per_label(spec: TorusSpec, per_pair) -> list:
    """Reference read-out of a per-pair table: for every label of
    `spec.labels()`, in order, the entry of `per_pair` (one per pair of
    sorted blocks, in lexicographic order) at the label's sorted blocks."""
    blocks = itertools.combinations_with_replacement
    pairs = itertools.product(blocks(range(spec.q), spec.m), blocks(range(spec.q), spec.n))
    entry = dict(zip(pairs, per_pair, strict=True))
    return [entry[tuple(sorted(ev.a)), tuple(sorted(ev.b))] for ev in spec.labels()]


# Reference for `ss_basis._pair_components`: the same union-find run over
# every label instead of over the pairs of sorted blocks.
def _label_components(spec: TorusSpec) -> array:
    """Labelling of the flat label indices by the least label, or root, of
    their component in the constraint graph of the supersymmetric subspace.

    Edges join each label to its adjacent swaps within each block and, where
    p divides a_1 + b_1, to beta - delta with delta = (+1 at x_1 | -1 at y_1)
    mod q: the two-term equalities that the rows of `ss_nullspace_oracle`
    amount to in idempotent coordinates.
    """
    if spec.n < 1:
        raise ValueError("the supersymmetric subspace needs n >= 1")
    m, p, q = spec.m, spec.p, spec.q
    k = m + spec.n
    weights = [q ** (k - 1 - s) for s in range(k)]
    swaps = [(s, weights[s] - weights[s + 1]) for s in range(k - 1) if s != m - 1]
    wx, wy = weights[0], weights[m]
    parent = list(range(spec.dimension))

    def find(t: int) -> int:
        while parent[t] != t:
            parent[t] = parent[parent[t]]
            t = parent[t]
        return t

    def union(s: int, t: int):
        rs, rt = find(s), find(t)
        if rs < rt:
            parent[rt] = rs
        elif rt < rs:
            parent[rs] = rt

    for t, digits in enumerate(itertools.product(range(q), repeat=k)):
        for s, w in swaps:
            lo, hi = digits[s], digits[s + 1]
            if lo < hi:
                union(t, t + (hi - lo) * w)
        a, b = digits[0], digits[m]
        if (a + b) % p == 0:
            union(t, t + ((a - 1) % q - a) * wx + ((b + 1) % q - b) * wy)

    # Roots link under smaller roots, so parent[t] <= t and one pass flattens.
    for t in range(len(parent)):
        parent[t] = parent[parent[t]]
    return array("q", parent)


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


def shape_is_canonical(ev, spec):
    """Reference for `is_canonical`: walk the label and test the canonical
    shape of the module docstring of `sstorus.canonical` directly, without
    `_canonical_form`."""
    p = spec.p
    d = len(ev.a) - len(unmatched_residues(ev, p)[0])
    a, b = ev.a, ev.b
    if d == 0:
        return all(a[i] <= a[i + 1] for i in range(len(a) - 1)) and all(
            b[j] <= b[j + 1] for j in range(len(b) - 1)
        )

    e = 0
    while e < len(a) and a[e] == 0:
        e += 1
    if e == 0:
        return False
    tail_a = a[e:]
    if not all(0 < v < p for v in tail_a):
        return False
    if any(tail_a[i] > tail_a[i + 1] for i in range(len(tail_a) - 1)):
        return False

    z = 0
    while z < len(b) and b[z] == 0:
        z += 1
    if z == len(b):
        f = len(b)
        tail_b = ()
    elif b[z] % p == 0:
        f = z + 1
        tail_b = b[z + 1 :]
    elif z >= 1:
        f = z
        tail_b = b[z:]
    else:
        return False
    if f < 1:
        return False
    if not all(0 < v < p for v in tail_b):
        return False
    if any(tail_b[i] > tail_b[i + 1] for i in range(len(tail_b) - 1)):
        return False

    if min(e, f) != d:
        return False
    return all((av + bv) % p for av in tail_a for bv in tail_b)


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
    """Reference for the defect-d count of `_counts_by_defect`: q/p times
    count_c_prime(m - e, n - f) summed over every split position (e, f) with
    min(e, f) = d."""
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


def compositions(total, parts):
    """Positive integer compositions of `total` into `parts` parts, in
    lexicographic order."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        if total >= 1:
            yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def unmatched_residues(ev, p):
    """The residues of the entries of ev left out of a maximum matching, one
    sorted tuple per block, from residue counts alone: the a entries of
    residue r and the b entries of residue -r mod p are pairwise compatible
    and compatible with nothing else, so the fewer of them all match."""
    counts = [Counter(v % p for v in block) for block in (ev.a, ev.b)]
    return tuple(
        tuple(sorted(r for r, k in c.items() for _ in range(k - min(k, other[-r % p]))))
        for c, other in (counts, counts[::-1])
    )


def class_signature(ev, spec):
    """Complete invariant of the equivalence class of ev, a second one
    beside the canonical form.

    Defect zero: the pair of sorted blocks.  Positive defect: the defect,
    the unmatched residue multisets of both blocks, and the total mod q.
    """
    ra, rb = unmatched_residues(ev, spec.p)
    d = len(ev.a) - len(ra)
    if d == 0:
        return (0, tuple(sorted(ev.a)), tuple(sorted(ev.b)))
    return (d, ra, rb, (sum(ev.a) + sum(ev.b)) % spec.q)


def symmetrize_by_permutations(ev, spec):
    """Reference for `symmetrize`: the set of every ordering of each block,
    from all len(block)! permutations, so only for short blocks."""
    orbit = set()
    for pa in set(itertools.permutations(ev.a)):
        for pb in set(itertools.permutations(ev.b)):
            orbit.add(ExponentVector(pa, pb))
    return TorusElement(spec, Basis.IDEMPOTENT, {o: 1 for o in orbit})


def build_Ha_by_labels(spec, a):
    """Reference for `build_Ha`: coefficient 1 at every label with some pair
    sum divisible by p and total a mod q, from a walk over all labels."""
    p, q = spec.p, spec.q
    terms = {
        ev: 1
        for ev in spec.labels()
        if (sum(ev.a) + sum(ev.b)) % q == a and any((u + v) % p == 0 for u in ev.a for v in ev.b)
    }
    return TorusElement(spec, Basis.IDEMPOTENT, terms)


def build_H(canonical, spec):
    """Reference for `class_sums`: coefficient 1 at every member of the
    equivalence class, closed by breadth-first search."""
    cls = enumerate_equivalence_class(canonical, spec)
    return TorusElement(spec, Basis.IDEMPOTENT, {ev: 1 for ev in cls.members})


def multiply_by_coordinate(f, block, index):
    """Left-multiply by the degree-one coordinate x_index or y_index, the
    monomial C(x_index, 1) or C(y_index, 1), through `multiply`."""
    spec = f.spec
    key = [0] * (spec.m + spec.n)
    key[spec.slot(block, index)] = 1
    coordinate = ExponentVector(tuple(key[: spec.m]), tuple(key[spec.m :]))
    return multiply(TorusElement(spec, Basis.BINOMIAL, {coordinate: 1}), f)


def multiply_by_linear(f, i, j):
    """Left-multiply by x_i + y_j (1-based indices into the two blocks)."""
    return add(multiply_by_coordinate(f, "x", i), multiply_by_coordinate(f, "y", j))


def idempotent_univariate(spec, block, index, a):
    """The idempotent X_a = sum_k (-1)^(k-a) C(k, a) C(x, k) attached to one
    variable, in the binomial basis, each coefficient from its own binomial
    (independent of the expansion `idempotent_h` uses)."""
    if not 0 <= a < spec.q:
        raise ValueError(f"index a = {a} outside [0, {spec.q})")
    slot, m = spec.slot(block, index), spec.m
    terms = {}
    for k in range(a, spec.q):
        key = [0] * (m + spec.n)
        key[slot] = k
        terms[ExponentVector(tuple(key[:m]), tuple(key[m:]))] = (-1) ** (k - a) * comb(k, a)
    return TorusElement(spec, Basis.BINOMIAL, terms)


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
