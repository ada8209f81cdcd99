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
from heapq import merge
from itertools import combinations_with_replacement
from math import comb

from .modp import _require_prime, _require_sizes
from .torus import ExponentVector, TorusSpec


CanonicalLabel = namedtuple("CanonicalLabel", "ev defect e f", defaults=(None, None))
CanonicalLabel.__doc__ = """A canonical label with its defect and, for defect > 0,
the split indices (e, f) of the canonical shape."""


EquivClass = namedtuple("EquivClass", "canonical members")


def _is_special(a: tuple, b: tuple, p: int) -> bool:
    """Whether no pair sum a_i + b_j of the blocks is divisible by p."""
    return all((u + v) % p for u in a for v in b)


def is_special(ev: ExponentVector, spec: TorusSpec) -> bool:
    """No pair sum a_i + b_j divisible by p."""
    spec.check_label(ev)
    return _is_special(ev.a, ev.b, spec.p)


def is_ordinary(ev: ExponentVector, spec: TorusSpec) -> bool:
    return not is_special(ev, spec)


def _canonical_form(a: tuple, b: tuple, p: int, q: int) -> tuple:
    """The canonical label of the class of (a | b), unchecked, as the tuple
    (a, b, defect, e, f) that `_canonical_shapes` yields.  Both blocks must
    be sorted: the class depends only on their multisets, and a label of
    defect zero with sorted blocks is its own canonical label, returned as is.

    Compatible pairs are those of opposite residues, so the compatibility
    graph is a disjoint union of complete bipartite pieces, one per residue,
    and matching each a entry to any b entry still free in its piece is a
    maximum matching, in O(m + n) whatever p is.  For positive defect the
    matched entries collapse into the canonical shape, the unmatched entries
    are replaced by their sorted residues, and the slot at position f
    absorbs whatever multiple of p keeps the total constant mod q.
    """
    free = {}  # -v mod p -> how many b entries v still unmatched
    for v in b:
        v = -v % p
        free[v] = free.get(v, 0) + 1
    ra = []
    for v in a:
        v %= p
        k = free.get(v)
        if k:
            free[v] = k - 1
        else:
            ra.append(v)
    d = len(a) - len(ra)
    if d == 0:
        return a, b, 0, None, None
    ra.sort()
    rb = sorted(-tau % p for tau, k in free.items() for _ in range(k))
    # Zero residues sort first: they join the matched zeros of the shape.
    e, f = d + ra.count(0), d + rb.count(0)
    bf = (sum(a) + sum(b) - sum(ra) - sum(rb)) % q
    return (0,) * e + tuple(ra[e - d :]), (0,) * (f - 1) + (bf, *rb[f - d :]), d, e, f


def _label_form(ev: ExponentVector, spec: TorusSpec) -> tuple:
    """`_canonical_form` of a checked label, its blocks sorted first."""
    spec.check_label(ev)
    return _canonical_form(tuple(sorted(ev.a)), tuple(sorted(ev.b)), spec.p, spec.q)


def defect(ev: ExponentVector, spec: TorusSpec) -> int:
    """Maximum number of disjoint pairs (i, j) with a_i + b_j = 0 mod p."""
    return _label_form(ev, spec)[2]


def is_canonical(ev: ExponentVector, spec: TorusSpec) -> bool:
    # The canonical label of a class is its own canonical form.
    return _label_form(ev, spec)[:2] == ev


def canonicalize(ev: ExponentVector, spec: TorusSpec) -> CanonicalLabel:
    """The canonical label equivalent to ev (see `_canonical_form`)."""
    a, b, d, e, f = _label_form(ev, spec)
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
    relations, over flat int tuples; members come back sorted.  `ValueError`
    unless `canonical` is what `canonicalize` gives for its label, defect and
    split indices included, as ints (True == 1 is no match)."""
    if not isinstance(canonical, CanonicalLabel):
        raise ValueError(f"expected a CanonicalLabel, got {canonical!r}")
    expected = canonicalize(canonical.ev, spec)
    if canonical != expected or [*map(type, canonical)] != [*map(type, expected)]:
        raise ValueError(f"{canonical!r} is not canonical")
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
    """Every canonical label as a tuple (a, b, defect, e, f), in order of (a, b).

    They are generated from their shape (see the module docstring), so the
    cost grows with the number of classes, not with q^(m+n).  For each sorted
    a: the sorted b of defect zero, over the values whose residue avoids every
    -a_i mod p, and if a = (0^e, unit tail), the few b of positive defect
    (split f, unit tail with no pair sum divisible by p, multiple of p at
    position f), sorted and merged in; only these hold a multiple of p.
    """
    m, n, p, q = spec.m, spec.n, spec.p, spec.q
    for a in combinations_with_replacement(range(q), m):
        bad = {-v % p for v in a}
        allowed = [v for v in range(q) if v % p not in bad]
        shapes = ((a, b, 0, None, None) for b in combinations_with_replacement(allowed, n))
        e = a.count(0)
        if e and a[-1] < p:
            allowed = [v for v in range(1, p) if p - v not in a]
            shapes = merge(shapes, sorted(
                (a, (0,) * (f - 1) + (bf,) + tail_b, min(e, f), e, f)
                for f in range(1, n + 1)
                for tail_b in combinations_with_replacement(allowed, n - f)
                for bf in range(0, q, p)
            ))
        yield from shapes


def enumerate_canonical(spec: TorusSpec) -> list:
    """All canonical labels, in lexicographic order."""
    return [
        CanonicalLabel(ExponentVector(a, b), d, e, f)
        for a, b, d, e, f in _canonical_shapes(spec)
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
