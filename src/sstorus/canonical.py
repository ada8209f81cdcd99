"""Defect, canonical labels, reduction to canonical form, equivalence
classes, and their closed-form counts.

The defect of a label (a_1..a_m | b_1..b_n) is the largest number of
disjoint index pairs (i, j) with a_i + b_j = 0 mod p.  The equivalence
relation is generated by permuting each block separately and, whenever
a_1 + b_1 = 0 mod p, replacing (a_1, b_1) by any pair with the same sum
mod q.  Every class contains exactly one canonical label:

  defect 0:  both blocks weakly increasing;
  defect d > 0:  a = (0^e, then entries in (0, p) weakly increasing),
                 b = (0^(f-1), a multiple of p, then entries in (0, p)
                 weakly increasing), min(e, f) = d, and no residual pair
                 (i > e, j > f) summing to 0 mod p.

A class of positive defect is determined by its defect, the residue
multisets of the unmatched entries and the total sum mod q; a class of
defect zero is just a permutation orbit.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations_with_replacement
from math import comb
from typing import Iterator, Optional

from .torus import ExponentVector, TorusSpec


@dataclass(frozen=True)
class CanonicalLabel:
    """A canonical label with its defect and, for defect > 0, the split
    indices (e, f) of the canonical shape."""

    ev: ExponentVector
    defect: int
    e: Optional[int] = None
    f: Optional[int] = None


@dataclass(frozen=True)
class EquivClass:
    canonical: CanonicalLabel
    members: tuple


def is_special(ev: ExponentVector, spec: TorusSpec) -> bool:
    """No pair sum a_i + b_j divisible by p."""
    p = spec.p
    return all((av + bv) % p for av in ev.a for bv in ev.b)


def is_ordinary(ev: ExponentVector, spec: TorusSpec) -> bool:
    return not is_special(ev, spec)


def _unmatched_residues(ev: ExponentVector, p: int):
    """Residues of the entries left out of a maximum matching, one sorted
    tuple per block.

    Compatible pairs are those of opposite residues, so the compatibility
    graph is a disjoint union of complete bipartite pieces, one per residue,
    and matching each a entry to any b entry still free in its piece is
    maximum.  The work is O(m + n), whatever p is.
    """
    free = {}
    for v in ev.b:
        v %= p
        free[v] = free.get(v, 0) + 1
    ra = []
    for v in ev.a:
        v %= p
        partner = -v % p
        k = free.get(partner)
        if k:
            free[partner] = k - 1
        else:
            ra.append(v)
    rb = [tau for tau, k in free.items() for _ in range(k)]
    return tuple(sorted(ra)), tuple(sorted(rb))


def defect(ev: ExponentVector, spec: TorusSpec) -> int:
    """Maximum number of disjoint pairs (i, j) with a_i + b_j = 0 mod p."""
    spec.check_label(ev)
    return len(ev.a) - len(_unmatched_residues(ev, spec.p)[0])


def class_signature(ev: ExponentVector, spec: TorusSpec):
    """Complete invariant of the equivalence class of ev.

    Defect zero: the pair of sorted blocks.  Positive defect: the defect,
    the unmatched residue multisets of both blocks, and the total mod q.
    """
    d = defect(ev, spec)
    if d == 0:
        return (0, tuple(sorted(ev.a)), tuple(sorted(ev.b)))
    return (d, *_unmatched_residues(ev, spec.p), ev.total() % spec.q)


def is_canonical(ev: ExponentVector, spec: TorusSpec) -> bool:
    p = spec.p
    d = defect(ev, spec)
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


def canonicalize(ev: ExponentVector, spec: TorusSpec) -> CanonicalLabel:
    """The canonical label equivalent to ev.

    Defect zero just sorts both blocks.  For positive defect the matched
    entries collapse into the canonical shape, the unmatched entries are
    replaced by their residues, and the slot at position f absorbs whatever
    multiple of p keeps the total constant mod q.
    """
    p, q = spec.p, spec.q
    d = defect(ev, spec)
    if d == 0:
        return CanonicalLabel(
            ExponentVector(tuple(sorted(ev.a)), tuple(sorted(ev.b))), 0
        )
    ra, rb = _unmatched_residues(ev, p)
    # Zero residues sort first: they join the matched zeros of the shape.
    e = d + ra.count(0)
    f = d + rb.count(0)
    bf = (ev.total() - sum(ra) - sum(rb)) % q
    new_a = (0,) * e + ra[e - d :]
    new_b = (0,) * (f - 1) + (bf,) + rb[f - d :]
    return CanonicalLabel(ExponentVector(new_a, new_b), d, e, f)


def _neighbors(t: tuple, m: int, p: int, q: int) -> Iterator[tuple]:
    """Images of the flat label t = a + b (a of length m) under the
    generating relations."""
    for i in range(len(t) - 1):
        if i != m - 1 and t[i] != t[i + 1]:
            yield t[:i] + (t[i + 1], t[i]) + t[i + 2 :]
    if len(t) > m and (t[0] + t[m]) % p == 0:
        s = t[0] + t[m]
        middle, rest = t[1:m], t[m + 1 :]
        for a1 in range(q):
            yield (a1,) + middle + ((s - a1) % q,) + rest


def enumerate_equivalence_class(
    canonical: CanonicalLabel, spec: TorusSpec
) -> EquivClass:
    """Breadth-first closure of the canonical label under the generating
    relations, over flat int tuples; members come back sorted."""
    if not is_canonical(canonical.ev, spec):
        raise ValueError(f"{canonical.ev} is not canonical")
    m = spec.m
    start = canonical.ev.a + canonical.ev.b
    seen = {start}
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        for nxt in _neighbors(cur, m, spec.p, spec.q):
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    members = tuple(ExponentVector(t[:m], t[m:]) for t in sorted(seen))
    return EquivClass(canonical, members)


def _canonical_shapes(spec: TorusSpec) -> Iterator[tuple]:
    """Every canonical label as a tuple (a, b, defect, e, f), unordered.

    They are generated from their shape (see the module docstring), so the
    cost grows with the number of classes, not with q^(m+n).  Defect zero:
    for each sorted b, the sorted a over the values whose residue avoids
    every -b_j mod p.  Positive defect: every split (e, f), unit tail of a,
    unit tail of b with no pair sum divisible by p, and multiple of p at
    position f of b.
    """
    m, n, p, q = spec.m, spec.n, spec.p, spec.q
    for b in combinations_with_replacement(range(q), n):
        bad = {-v % p for v in b}
        allowed = [v for v in range(q) if v % p not in bad]
        for a in combinations_with_replacement(allowed, m):
            yield a, b, 0, None, None
    units = range(1, p)
    for e in range(1, m + 1):
        for tail_a in combinations_with_replacement(units, m - e):
            a = (0,) * e + tail_a
            allowed = [v for v in units if p - v not in tail_a]
            for f in range(1, n + 1):
                d = min(e, f)
                for tail_b in combinations_with_replacement(allowed, n - f):
                    for bf in range(0, q, p):
                        yield a, (0,) * (f - 1) + (bf,) + tail_b, d, e, f


def enumerate_canonical(spec: TorusSpec) -> list:
    """All canonical labels, in lexicographic order."""
    # Labels are distinct, so the sort never compares past (a, b).
    return [
        CanonicalLabel(ExponentVector(a, b), d, e, f)
        for a, b, d, e, f in sorted(_canonical_shapes(spec))
    ]


def compositions(total: int, parts: int) -> Iterator[tuple]:
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


def count_c(m: int, n: int, q: int, p: int) -> int:
    """Number of defect-zero canonical labels: weakly increasing blocks with
    no pair sum divisible by p.

    The condition is symmetric in the blocks, so call the smaller one b
    (n <= m): the sum below has O(min(p, n)^2) terms.  Grouping the b block
    by the l residue classes it occupies leaves q - l*q/p admissible values
    for every a entry.  The sorted b blocks that occupy every one of l given
    classes number, by inclusion-exclusion over the classes left out,
    sum_i (-1)^(l-i) C(l, i) C(i*q/p + n - 1, n).
    """
    if n > m:
        m, n = n, m
    if n == 0:
        return comb(q + m - 1, m)
    qp = q // p
    total = 0
    for l in range(1, min(p - 1, n) + 1):
        onto = sum(
            (-1) ** (l - i) * comb(l, i) * comb(i * qp + n - 1, n)
            for i in range(l + 1)
        )
        total += comb(p, l) * comb(q - qp * l + m - 1, m) * onto
    return total


def count_c_prime(m: int, n: int, p: int) -> int:
    """Like count_c at q = p but with every entry strictly inside (0, p)."""
    if m == 0 and n == 0:
        return 1
    if n == 0:
        return comb(m + p - 2, m)
    if m == 0:
        return comb(n + p - 2, n)
    total = 0
    for l in range(1, min(n, p - 2) + 1):
        total += comb(p - 1, l) * comb(n - 1, n - l) * comb(m + p - l - 2, m)
    return total


def count_defect(m: int, n: int, d: int, q: int, p: int) -> int:
    """Number of canonical labels of defect d >= 1.

    Scales linearly in q/p; at q = p it sums the residual counts over the
    admissible split positions (e, f) with min(e, f) = d.
    """
    if d < 1:
        raise ValueError("defect counts require d >= 1")
    qp = q // p
    total = 0
    for e in range(d, m + 1):
        total += count_c_prime(m - e, n - d, p)
    for f in range(d + 1, n + 1):
        total += count_c_prime(m - d, n - f, p)
    return qp * total


def _count_canonical_total(m: int, n: int, q: int, p: int) -> int:
    qp = q // p
    positive = 0
    for e in range(1, m + 1):
        for f in range(1, n + 1):
            positive += count_c_prime(m - e, n - f, p)
    return count_c(m, n, q, p) + qp * positive


def count_canonical_total(spec: TorusSpec) -> int:
    """Total number of canonical labels for the given algebra."""
    if spec.n < 1:
        raise ValueError("canonical counting requires n >= 1")
    return _count_canonical_total(spec.m, spec.n, spec.q, spec.p)


def count_ordinary_points_m1(m: int, p: int) -> int:
    """Number of labels (a_1..a_m | b) over [0, p) with some a_i + b = 0
    mod p, by inclusion-exclusion."""
    if m < 1:
        raise ValueError("m must be >= 1")
    total = 0
    for i in range(m):
        term = comb(m, i) * p ** (i + 1)
        total += term if (i + m - 1) % 2 == 0 else -term
    return total
