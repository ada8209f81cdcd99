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

from collections import deque, namedtuple
from collections.abc import Iterator
from itertools import combinations_with_replacement
from math import comb

from .modp import _require_prime, _require_sizes
from .torus import ExponentVector, TorusSpec


CanonicalLabel = namedtuple("CanonicalLabel", "ev defect e f", defaults=(None, None))
CanonicalLabel.__doc__ = """A canonical label with its defect and, for defect > 0,
the split indices (e, f) of the canonical shape."""


EquivClass = namedtuple("EquivClass", "canonical members")


def is_special(ev: ExponentVector, spec: TorusSpec) -> bool:
    """No pair sum a_i + b_j divisible by p."""
    spec.check_label(ev)
    p = spec.p
    return all((av + bv) % p for av in ev.a for bv in ev.b)


def is_ordinary(ev: ExponentVector, spec: TorusSpec) -> bool:
    return not is_special(ev, spec)


def _unmatched_residues(a: tuple, b: tuple, p: int):
    """Residues of the entries of the label (a | b) left out of a maximum
    matching, one sorted tuple per block.

    Compatible pairs are those of opposite residues, so the compatibility
    graph is a disjoint union of complete bipartite pieces, one per residue,
    and matching each a entry to any b entry still free in its piece is
    maximum.  The work is O(m + n), whatever p is.
    """
    free = {}
    for v in b:
        v %= p
        free[v] = free.get(v, 0) + 1
    ra = []
    for v in a:
        v %= p
        partner = -v % p
        k = free.get(partner)
        if k:
            free[partner] = k - 1
        else:
            ra.append(v)
    rb = [tau for tau, k in free.items() for _ in range(k)]
    return tuple(sorted(ra)), tuple(sorted(rb))


def _canonical_form(a: tuple, b: tuple, p: int, q: int) -> tuple:
    """The canonical label of the class of (a | b), unchecked, as the tuple
    (a, b, defect, e, f) that `_canonical_shapes` yields.

    Defect zero just sorts both blocks.  For positive defect the matched
    entries collapse into the canonical shape, the unmatched entries are
    replaced by their residues, and the slot at position f absorbs whatever
    multiple of p keeps the total constant mod q.
    """
    ra, rb = _unmatched_residues(a, b, p)
    d = len(a) - len(ra)
    if d == 0:
        return tuple(sorted(a)), tuple(sorted(b)), 0, None, None
    # Zero residues sort first: they join the matched zeros of the shape.
    e = d + ra.count(0)
    f = d + rb.count(0)
    bf = (sum(a) + sum(b) - sum(ra) - sum(rb)) % q
    return (0,) * e + ra[e - d :], (0,) * (f - 1) + (bf,) + rb[f - d :], d, e, f


def defect(ev: ExponentVector, spec: TorusSpec) -> int:
    """Maximum number of disjoint pairs (i, j) with a_i + b_j = 0 mod p."""
    spec.check_label(ev)
    return len(ev.a) - len(_unmatched_residues(ev.a, ev.b, spec.p)[0])


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
    """The canonical label equivalent to ev (see `_canonical_form`)."""
    spec.check_label(ev)
    a, b, d, e, f = _canonical_form(ev.a, ev.b, spec.p, spec.q)
    return CanonicalLabel(ExponentVector(a, b), d, e, f)


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
    if not isinstance(canonical, CanonicalLabel):
        raise ValueError(f"expected a CanonicalLabel, got {canonical!r}")
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


def count_c(m: int, n: int, q: int, p: int) -> int:
    """Number of defect-zero canonical labels: weakly increasing blocks with
    no pair sum divisible by p.

    The condition is symmetric in the blocks, so call the smaller one b
    (n <= m): the sum below has O(min(p, n)^2) terms.  Grouping the b block
    by the l residue classes it occupies leaves q - l*q/p admissible values
    for every a entry.  The sorted b blocks that occupy every one of l given
    classes number, by inclusion-exclusion over the classes left out,
    sum_i (-1)^(l-i) C(l, i) C(i*q/p + n - 1, n).  Those big binomials are
    formed once per i.
    """
    _require_sizes(m, n)
    _require_prime(p)
    # q > 1 divides p^k for k >= log2(q) exactly when q is a power of p.
    if type(q) is not int or q < 2 or pow(p, q.bit_length(), q):
        raise ValueError(f"q = {q!r} is not a power of p = {p}")
    if n > m:
        m, n = n, m
    if n == 0:
        return comb(q + m - 1, m)
    qp = q // p
    k = min(p - 1, n)
    blocks = [comb(i * qp + n - 1, n) for i in range(k + 1)]
    total = 0
    for l in range(1, k + 1):
        onto = sum((-1) ** (l - i) * comb(l, i) * blocks[i] for i in range(l + 1))
        total += comb(p, l) * comb(q - qp * l + m - 1, m) * onto
    return total


def count_c_prime(m: int, n: int, p: int) -> int:
    """Like count_c at q = p but with every entry strictly inside (0, p)."""
    _require_sizes(m, n)
    _require_prime(p)
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


def _rectangle_sum(a: int, b: int, p: int) -> int:
    """R(a, b): count_c_prime(M, N, p) summed over 0 <= M <= a, 0 <= N <= b
    (0 if a or b < 0).

    With l unit residues in the N block, count_c_prime has
    C(p - 1, l) C(N - 1, l - 1) C(p - 2 - l + M, M) labels, and the
    hockey-stick identities sum the last two factors over N <= b and M <= a:
    R(a, b) = sum_l C(p - 1, l) C(b, l) C(p - 1 - l + a, a).  The terms
    l = 0 and l = p - 1 are the empty blocks, so no boundary case is apart.
    Consecutive terms differ by the factor
    (p - 1 - l)^2 (b - l) / ((l + 1)^2 (p - 1 - l + a)), and each term is an
    integer, so one exact division per term replaces its binomials.
    """
    if a < 0 or b < 0:
        return 0
    term = total = comb(p - 1 + a, a)
    for l in range(min(b, p - 1)):
        term = term * (p - 1 - l) ** 2 * (b - l) // ((l + 1) ** 2 * (p - 1 - l + a))
        total += term
    return total


def _counts_by_defect(m: int, n: int, q: int, p: int, top: int) -> list:
    """count_c, then the counts of defects 1, .., top - 1 and of all defects
    >= top: they sum to the total if top >= 1 or min(m, n) = 0.  Defect d is
    q/p times the rectangle sum over splits e, f >= d less that over e, f >=
    d + 1, with the smaller block as b (count_c_prime is symmetric in them)."""
    small, large = sorted((m, n))
    rects = [_rectangle_sum(large - d, small - d, p) for d in range(1, top + 1)] + [0]
    return [count_c(m, n, q, p)] + [q // p * (x - y) for x, y in zip(rects, rects[1:])]


# The most work `count` takes on, in the units of `_count_work`.  At
# (m, n, p) = (400, 400, 401), `--by-defect` is 3.8e8 and its sums take
# about 0.4 s (Python 3.11, shared 2-core x86 host).
MAX_COUNT_WORK = 5 * 10**8


def _count_work(m: int, n: int, q: int, p: int, top: int) -> int:
    """Estimated cost of `_counts_by_defect`, from small ints: terms times
    the bits of the largest binomial.

    count_c's double sum has about k^2 terms (k = min(m, n, p - 1)), and
    each of the top rectangle sums min(m, n, p).  A binomial C(x, y) formed
    has at most x < q + m + n bits and at most min(y, x - y) * log2(x)
    bits, where min(y, x - y) <= min(m + n, q).
    """
    s = min(m, n)
    terms = min(s, p - 1) ** 2 + min(s, p) * top
    x = q + m + n
    return terms * min(x, min(m + n, q) * x.bit_length())


def count_canonical_total(spec: TorusSpec) -> int:
    """Total number of canonical labels for the given algebra."""
    if spec.n < 1:
        raise ValueError("canonical counting requires n >= 1")
    return sum(_counts_by_defect(spec.m, spec.n, spec.q, spec.p, 1))


def count_ordinary_points_m1(m: int, p: int) -> int:
    """Number of labels (a_1..a_m | b) over [0, p) with some a_i + b = 0
    mod p, by inclusion-exclusion."""
    _require_sizes(m)
    _require_prime(p)
    if m < 1:
        raise ValueError("m must be >= 1")
    total = 0
    for i in range(m):
        term = comb(m, i) * p ** (i + 1)
        total += term if (i + m - 1) % 2 == 0 else -term
    return total
