"""Supersymmetric basis elements and two independent checks of the basis.

Three constructions produce supersymmetric elements: symmetrized special
idempotents, the residue sums over all ordinary idempotents, and the class
sums H attached to canonical labels; `class_sums` streams every H from one
class table over the pairs of sorted blocks.  The supersymmetric subspace is
recomputed from its defining linear constraints twice: `ss_nullspace_oracle`
by exact Gaussian elimination, and `ss_component_oracle` by union-find,
because in idempotent coordinates every constraint equates two coordinates.
`verify_basis` bundles the dimension, span and closed-form checks into one
report.
"""

from __future__ import annotations

import itertools
from array import array
from bisect import bisect_left
from collections.abc import Iterator
from math import comb
from operator import add, mul

from . import fp_linalg
from .canonical import (
    _canonical_form,
    _canonical_shapes,
    _is_special,
    count_canonical_total,
    count_c,
    count_c_prime,
    enumerate_canonical,
    is_special,
)
from .idempotents import evaluate_point, idempotent_h
from .supersymmetry import _orderings, phi, symmetrize
from .torus import (
    Basis,
    CapExceededError,
    ExponentVector,
    TorusElement,
    TorusSpec,
    _decoder,
    _element,
    _flat,
    _labels,
)

# Above this many labels `ss_nullspace_oracle` refuses to build its dense
# constraint matrix.  At this size, (2,1,2,3), it takes about 1.5 s on a
# 2-core x86 host, most of it the N x |bad| point evaluations; elimination
# takes about 0.05 s.
DENSE_ORACLE_LIMIT = 512


def _class_labelling(spec: TorusSpec, canonical):
    """The flat indices `keys` of the `canonical` (a, b) pairs, given in
    lexicographic order, and the class table: for every pair of sorted blocks,
    in lexicographic order, the rank in `keys` of its canonical form's flat
    index by bisection, or -1 if absent; both are `array('q')`s.  A repeated
    key, or one out of order that bisection misses, leaves a rank untaken.

    The form depends only on the sorted blocks (defect zero sorts them; the
    unmatched residues and the total are multiset functions), so it is formed
    once per pair of sorted blocks, C(q + m - 1, m) C(q + n - 1, n) times.
    """
    m, n, p, q = spec.m, spec.n, spec.p, spec.q
    keys = array("q", map(_flat, canonical, itertools.repeat(q)))

    def rank(form: tuple) -> int:
        t = _flat(form, q) if form else -1
        s = bisect_left(keys, t)
        return s if s < len(keys) and keys[s] == t else -1

    blocks = itertools.combinations_with_replacement
    table = array("q")
    for a in blocks(range(q), m):
        table += array("q", [rank(_canonical_form(a, b, p, q)) for b in blocks(range(q), n)])
    return keys, table


def _indicators(spec: TorusSpec, per_pair) -> Iterator[TorusElement]:
    """For each id >= 0 that `per_pair` (an array in `_class_labelling`'s
    order of the pairs) takes, in increasing order, the element with
    coefficient 1 at the labels whose pairs take it.  A pair of sorted blocks
    stands for the distinct orderings of its blocks (`_orderings`), so each
    element's members are those of its pairs, sorted into flat order."""
    q, w, blocks = spec.q, spec.q**spec.n, itertools.combinations_with_replacement
    a_flats = [sorted(_orderings(a, q, [0])) for a in blocks(range(q), spec.m)]
    b_flats = [sorted(_orderings(b, q, [0])) for b in blocks(range(q), spec.n)]
    key = per_pair.__getitem__
    for c, pairs in itertools.groupby(sorted(range(len(per_pair)), key=key), key):
        if c >= 0:
            flats = []
            for a, b in map(divmod, pairs, itertools.repeat(len(b_flats))):
                flats += [x * w + y for x in a_flats[a] for y in b_flats[b]]
            flats.sort()
            f = _element(spec, Basis.IDEMPOTENT, ())
            f.coeffs = dict.fromkeys(flats, 1)  # 1 is reduced for every p
            yield f


def class_sums(spec: TorusSpec) -> Iterator[TorusElement]:
    """The class sum H of every canonical label, in `enumerate_canonical`
    order (coefficient 1 at each member, idempotent basis), with the classes
    read from one class table instead of closed by search."""
    _, table = _class_labelling(spec, (c.ev for c in enumerate_canonical(spec)))
    return _indicators(spec, table)


def build_special(ev: ExponentVector, spec: TorusSpec) -> TorusElement:
    """Symmetrized idempotent at a special label (no pair sum divisible by p)."""
    if not is_special(ev, spec):
        raise ValueError(f"label {ev} is ordinary: some a_i + b_j is divisible by p")
    return symmetrize(ev, spec)


def build_Ha(spec: TorusSpec, a: int) -> TorusElement:
    """Sum of all ordinary idempotents whose label total is a mod q, read out
    by `_indicators` from the pairs of sorted blocks: 0 where they count."""
    if type(a) is not int or not 0 <= a < spec.q:
        raise ValueError(f"residue must be an integer in [0, {spec.q}), got {a!r}")
    p, q, blocks = spec.p, spec.q, itertools.combinations_with_replacement
    per_pair = [0 if (sum(x) + sum(y)) % q == a and not _is_special(x, y, p) else -1
                for x in blocks(range(q), spec.m) for y in blocks(range(q), spec.n)]
    return next(_indicators(spec, per_pair), _element(spec, Basis.IDEMPOTENT, ()))


def _divisibility_rows(spec: TorusSpec, labels: list, expansions: list, i: int, j: int) -> list:
    """The coordinates of phi(h_t, i, j) at every label beta with p | a_i + b_j:
    one row per beta and one entry per label t, both in label order, where
    `expansions` holds the binomial expansions of the h_t.

    The shift and the evaluation are linear, so the entry is
    sum_k h_t[k] phi(C(x, k), i, j)(beta) mod p: each binomial monomial k is
    shifted and evaluated at every beta once, not once per h_t that holds it,
    and the sums over k run as C-level maps over those values.
    """
    p = spec.p
    bad = [ev for ev in labels if (ev.a[i - 1] + ev.b[j - 1]) % p == 0]
    values = []  # values[k]: phi(C(x, k)) at every beta
    for k in range(len(labels)):
        ph = phi(_element(spec, Basis.BINOMIAL, [(k, 1)]), i, j)
        values.append([evaluate_point(ph, beta) for beta in bad])
    columns = []
    for h in expansions:
        acc = [0] * len(bad)
        for k, c in h.coeffs.items():
            w = values[k]
            acc = list(map(add, acc, w if c == 1 else map(mul, w, itertools.repeat(c))))
        columns.append(acc)
    return [list(map(p.__rmod__, row)) for row in zip(*columns)]


def ss_nullspace_oracle(spec: TorusSpec) -> list[TorusElement]:
    """Basis of the supersymmetric subspace computed from scratch.

    Unknowns are the idempotent coordinates.  Constraints: invariance under
    the adjacent transpositions of each block, and vanishing of the
    coordinates of phi(f, 1, 1) at every label with a_1 + b_1 divisible by p
    (exactly divisibility by x_1 + y_1).

    Solved by exact elimination mod p; the result is in reduced echelon form
    with pivots in lexicographic label order.  Raises `CapExceededError`
    above `DENSE_ORACLE_LIMIT` labels.
    """
    if spec.n < 1:
        raise ValueError("the supersymmetric subspace needs n >= 1")
    if spec.dimension > DENSE_ORACLE_LIMIT:
        raise CapExceededError(
            f"the dense oracle at {spec.dimension} labels exceeds its limit "
            f"of {DENSE_ORACLE_LIMIT}"
        )
    p, m = spec.p, spec.m
    labels = list(spec.labels())
    index = {ev.a + ev.b: t for t, ev in enumerate(labels)}
    nlab = len(labels)
    rows = []

    for key, t in index.items():
        for idx in itertools.chain(range(m - 1), range(m, m + spec.n - 1)):
            other = key[:idx] + (key[idx + 1], key[idx]) + key[idx + 2 :]
            if key < other:
                row = [0] * nlab
                row[t] = 1
                row[index[other]] = p - 1
                rows.append(row)

    expansions = [idempotent_h(spec, ev) for ev in labels]
    rows += [row for row in _divisibility_rows(spec, labels, expansions, 1, 1) if any(row)]

    basis_rows = fp_linalg.nullspace_basis(rows, nlab, p)
    return [_element(spec, Basis.IDEMPOTENT, enumerate(vec)) for vec in basis_rows]


def _pair_components(spec: TorusSpec) -> array:
    """For every pair (A | B) of sorted blocks, in `_class_labelling`'s
    order, the position of the least pair, or root, of its component in the
    graph of the two-term equalities that the rows of `ss_nullspace_oracle`
    amount to in idempotent coordinates.  The swaps join each orbit of the
    block permutations; the rows at p | a_1 + b_1 join (A | B) to the sorted
    (A with one u -> u - 1 | B with one v -> v + 1) mod q for each u in A and
    v in B with p | u + v.  The least pair's sorted form is the least label
    of its component.
    """
    if spec.n < 1:
        raise ValueError("the supersymmetric subspace needs n >= 1")
    m, n, p, q = spec.m, spec.n, spec.p, spec.q

    def moves(k: int, step: int) -> Iterator[dict]:
        # every sorted block x: {u in x: position of x with one u -> u + step}
        index = {x: i for i, x in enumerate(itertools.combinations_with_replacement(range(q), k))}
        for x in index:
            moved = {u: x[:s] + x[s + 1 :] + ((u + step) % q,) for s, u in enumerate(x)}
            yield {u: index[tuple(sorted(y))] for u, y in moved.items()}

    width = comb(q + n - 1, n)
    ups = {}  # v mod p -> (j, l) for every B at j holding v, moved to B at l
    for j, moved in enumerate(moves(n, 1)):
        for v, l in moved.items():
            ups.setdefault(v % p, []).append((j, l))
    parent = array("q", range(comb(q + m - 1, m) * width))

    def find(t: int) -> int:
        while parent[t] != t:
            parent[t] = parent[parent[t]]
            t = parent[t]
        return t

    for i, moved in enumerate(moves(m, -1)):
        for u, k in moved.items():
            for j, l in ups.get(-u % p, ()):
                rs, rt = find(i * width + j), find(k * width + l)
                parent[max(rs, rt)] = min(rs, rt)

    # Roots link under smaller roots, so parent[t] <= t and one pass flattens.
    for t in range(len(parent)):
        parent[t] = parent[parent[t]]
    return parent


def ss_component_oracle(spec: TorusSpec) -> Iterator[TorusElement]:
    """Basis of the supersymmetric subspace from the connected components of
    its constraints (found at the call, in near-linear time), one at a time.

    The subspace is the functions constant on each component, so the
    component indicators (coefficient 1, sorted by least label) span it;
    they are also the reduced echelon basis `ss_nullspace_oracle` returns.
    Components are unions of pairs of sorted blocks: see `_indicators`.
    """
    return _indicators(spec, _pair_components(spec))


def _gl11_supports(p: int, q: int) -> Iterator[list]:
    """Supports of `gl11_generators`, as increasing flat indices a*q + b."""
    for a in range(q):
        for b in range(q):
            if (a + b) % p:
                yield [a * q + b]
    for l in range(q // p):
        yield [i * q + (p * l - i) % q for i in range(q)]


def gl11_generators(spec: TorusSpec) -> list[TorusElement]:
    """For m = n = 1: the idempotents h_(a|b) with a + b prime to p, then the
    cyclic sums sum_i h_(i | pl - i mod q) for l = 0 .. q/p - 1."""
    if spec.m != 1 or spec.n != 1:
        raise ValueError("these generators are defined for m = n = 1 only")
    return [
        _element(spec, Basis.IDEMPOTENT, zip(s, itertools.repeat(1)))
        for s in _gl11_supports(spec.p, spec.q)
    ]


def dim_closed_form(spec: TorusSpec) -> int:
    """Dimension of the supersymmetric subspace: count_c(m, n, q, p) plus q/p
    times -1 + C(p + m - 2, m - 1) + C(p + n - 2, n - 1) + the sum of
    count_c_prime(e, f, p) over 0 < e < m and 0 < f < n.  It agrees with the
    canonical-label count."""
    m, n, p, q = spec.m, spec.n, spec.p, spec.q
    if m < 1 or n < 1:
        raise ValueError("dimension formulas require m, n >= 1")
    cross = 0
    for e in range(1, m):
        for f in range(1, n):
            cross += count_c_prime(e, f, p)
    return count_c(m, n, q, p) + q // p * (
        -1 + comb(p + m - 2, m - 1) + comb(p + n - 2, n - 1) + cross
    )


# At or below this many labels `verify_basis` also runs the dense oracle and
# compares reduced echelon forms with it: the largest spec of the CLI's
# default grid.
DENSE_ORACLE_MAX_N = 81


class CountReport:
    """Outcome of the verification bundle for one algebra.

    `oracles` names the oracles that ran; it stays out of `to_dict()`, so the
    JSON report does not depend on the dense threshold.
    """

    def __init__(self, spec: TorusSpec, closed_form: int, enumerated: int, oracle_dim: int,
                 h_basis_ok: bool, partition_ok: bool, gl11_span_ok: bool | None,
                 oracles: tuple = (), failures: list | None = None):
        self.spec, self.closed_form, self.enumerated = spec, closed_form, enumerated
        self.oracle_dim, self.h_basis_ok, self.partition_ok = oracle_dim, h_basis_ok, partition_ok
        self.gl11_span_ok, self.oracles = gl11_span_ok, oracles
        self.failures = [] if failures is None else failures

    def __repr__(self):
        fields = (f"{k}={v!r}" for k, v in vars(self).items() if k != "failures")
        return f"CountReport({', '.join(fields)})"

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        spec = self.spec
        return {
            "spec": {
                "m": spec.m,
                "n": spec.n,
                "p": spec.p,
                "r": spec.r,
                "q": spec.q,
            },
            "closed_form": self.closed_form,
            "enumerated": self.enumerated,
            "oracle_dim": self.oracle_dim,
            "h_basis_ok": self.h_basis_ok,
            "partition_ok": self.partition_ok,
            "gl11_span_ok": self.gl11_span_ok,
        }


def verify_basis(spec: TorusSpec) -> CountReport:
    """Check the basis claims for the class sums H of the canonical labels.

    Checks, all reported rather than raised: each H is supersymmetric; the
    H family is linearly independent; its span, cardinality and the oracle's
    agree with the closed-form count; the classes partition the label set;
    and for m = n = 1 the listed generators span the same space.

    `_class_labelling` gives every pair of sorted blocks its class id, the
    rank of its canonical form's flat index among the canonical labels', and
    the component oracle, which always runs, its root: both partitions are
    unions of block-permutation orbits, so two `array('q')`s over the pairs
    are compared pair by pair.  An H is supersymmetric exactly when it is
    constant on every component, and the H span the oracle's space exactly
    when the classes are the components.  Up to `DENSE_ORACLE_MAX_N` labels
    the dense oracle runs too and must agree; as it returns the reduced echelon
    basis, a family spans its space exactly when the family's rref equals it.
    """
    # The component oracle rejects n = 0 before any label is visited.
    root = _pair_components(spec)
    failures = []
    m, n, p, q, size = spec.m, spec.n, spec.p, spec.q, spec.dimension
    keys, table = _class_labelling(spec, (s[:2] for s in _canonical_shapes(spec)))
    # Each canonical label is its own form, so its pair lies in its class.
    pairs = keys  # at m = n = 1 the pairs are the labels, in flat order
    if (m, n) != (1, 1):
        A, B, w = _decoder(spec, keys)
        blocks = itertools.combinations_with_replacement
        sa, sb = ({x: i for i, x in enumerate(blocks(range(q), k))} for k in (m, n))
        pairs = (sa[tuple(sorted(A[t // w]))] * len(sb) + sb[tuple(sorted(B[t % w]))]
                 for t in keys)
    partition_ok = all(table[s] == c for c, s in enumerate(pairs))
    seen = bytearray(len(keys) + 1)  # the last slot marks pairs with no class
    mixed = set()
    for c, r in zip(table, root):
        seen[c] = 1
        if c != table[r]:
            mixed |= {c, table[r]}
    mixed.discard(-1)
    partition_ok = partition_ok and not seen[-1]
    if not partition_ok:
        failures.append("classes do not partition the label set")
    bad = _labels(spec, [keys[c] for c in sorted(mixed)])
    failures += [f"class sum at {ev} is not supersymmetric" for ev in bad]

    # The classes are the components: all labelled, none mixed, one per root.
    independent = 0 not in seen[:-1]
    dim = sum(t == r for t, r in enumerate(root))
    span_ok = not seen[-1] and not mixed and independent and dim == len(keys)

    oracles = ("component",)
    if size <= DENSE_ORACLE_MAX_N:
        oracles += ("dense",)
        dense = ss_nullspace_oracle(spec)
        if dense != list(_indicators(spec, root)):
            failures.append("the dense and component oracles disagree")
        h_vecs = [[h.coeffs.get(t, 0) for t in range(size)] for h in _indicators(spec, table)]
        h_rows = fp_linalg.rref(h_vecs, p)[0]
        dense_vecs = [[o.coeffs.get(t, 0) for t in range(size)] for o in dense]
        independent = independent and len(h_rows) == len(keys)
        span_ok = span_ok and len(dense) == len(keys) and h_rows == dense_vecs
    if not independent:
        failures.append("class sums are linearly dependent")
    if not span_ok:
        failures.append("class-sum span differs from the oracle span")

    closed = dim_closed_form(spec)
    enumerated = len(keys)
    if not closed == enumerated == count_canonical_total(spec):
        failures.append(f"count mismatch: closed form {closed}, enumerated {enumerated}")
    if dim != closed:
        failures.append(f"oracle dimension {dim} differs from closed form {closed}")

    gl11_ok = None
    if spec.m == 1 and spec.n == 1:
        # The 0/1 supports are the components if every member's root, as pairs are
        # labels here, is the support's first label, no label is in two supports and
        # the sizes sum to N.  A checked member's root becomes -1, so a second visit
        # fails; nothing reads `root` after this.
        gl11_ok, total = True, 0
        for s in _gl11_supports(p, q):
            for t in s:
                gl11_ok = gl11_ok and root[t] == s[0]
                root[t] = -1
            total += len(s)
        gl11_ok = gl11_ok and total == size
        if "dense" in oracles:
            gen_vecs = [[int(t in s) for t in range(size)] for s in _gl11_supports(p, q)]
            gl11_ok = gl11_ok and fp_linalg.rref(gen_vecs, p)[0] == dense_vecs
        if not gl11_ok:
            failures.append("rank-(1|1) generators do not span the oracle space")

    # span_ok implies independence and that no class mixes components
    return CountReport(
        spec=spec,
        closed_form=closed,
        enumerated=enumerated,
        oracle_dim=dim,
        h_basis_ok=span_ok,
        partition_ok=partition_ok,
        gl11_span_ok=gl11_ok,
        oracles=oracles,
        failures=failures,
    )
