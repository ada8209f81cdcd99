"""Supersymmetric basis elements and two independent checks of the basis.

Three constructions produce supersymmetric elements: symmetrized special
idempotents, the residue sums over all ordinary idempotents, and the class
sums H attached to canonical labels; `class_sums` streams every H from one
labelling of the labels by class.  The supersymmetric subspace is
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
    count_canonical_total,
    count_c,
    count_c_prime,
    enumerate_canonical,
    is_ordinary,
    is_special,
)
from .idempotents import evaluate_point, idempotent_h
from .supersymmetry import phi, symmetrize
from .torus import (
    Basis,
    CapExceededError,
    ExponentVector,
    TorusElement,
    TorusSpec,
    _element,
    _flat,
    _labels,
)

# Above this many labels `ss_nullspace_oracle` refuses to build its dense
# constraint matrix.  At this size, (2,1,2,3), it takes about 1.5 s on a
# 2-core x86 host, most of it the N x |bad| point evaluations; elimination
# takes about 0.05 s.
DENSE_ORACLE_LIMIT = 512


def _sorted_positions(q: int, k: int) -> list:
    """For every block of `itertools.product(range(q), repeat=k)`, in that
    order, the position of its sorted form in
    `combinations_with_replacement(range(q), k)`."""
    index = {c: i for i, c in enumerate(itertools.combinations_with_replacement(range(q), k))}
    return [index[tuple(sorted(x))] for x in itertools.product(range(q), repeat=k)]


def _class_labelling(spec: TorusSpec, canonical):
    """The sorted flat indices `keys` of the `canonical` (a, b) pairs, and
    the class labelling: for every label, in flat label order, the rank in
    `keys` of its canonical form's flat index, or -1 if absent.  Both are
    `array('q')`s, and the ranks follow lexicographic order.

    The form depends only on the sorted blocks (defect zero sorts them; the
    unmatched residues and the total are multiset functions), so it is formed
    once per pair of sorted blocks, C(q + m - 1, m) C(q + n - 1, n) times,
    into one table row per sorted a block over all b blocks in flat order.
    """
    m, n, p, q = spec.m, spec.n, spec.p, spec.q
    present = bytearray(spec.dimension)
    for pair in canonical:
        present[_flat(pair, q)] = 1
    keys = array("q", itertools.compress(range(len(present)), present))

    def rank(form: tuple) -> int:
        t = _flat(form, q) if form else -1
        return bisect_left(keys, t) if t >= 0 and present[t] else -1

    blocks = itertools.combinations_with_replacement
    sb = _sorted_positions(q, n)
    table = []
    for a in blocks(range(q), m):
        row = [rank(_canonical_form(a, b, p, q)) for b in blocks(range(q), n)]
        table.append(array("q", map(row.__getitem__, sb)))
    labelling = array("q")
    for i in _sorted_positions(q, m):
        labelling += table[i]
    return keys, labelling


def _grouped(labelling, size: int):
    """Counting sort of the flat label indices by their entry in
    `labelling`, every entry in range(size): the indices with entry c,
    increasing, are members[offsets[c]:offsets[c + 1]]."""
    offsets = array("q", bytes(8 * (size + 1)))
    for c in labelling:
        offsets[c + 1] += 1
    for c in range(size):
        offsets[c + 1] += offsets[c]
    fill = offsets[:size]
    members = array("q", bytes(8 * len(labelling)))
    for t, c in enumerate(labelling):
        members[fill[c]] = t
        fill[c] += 1
    return members, offsets


def _indicators(spec: TorusSpec, labelling, size: int) -> Iterator[TorusElement]:
    """For each entry in range(size) that `labelling` takes, in increasing
    order, the element with coefficient 1 at the labels of that entry."""
    members, offsets = _grouped(labelling, size)
    del labelling  # freed while the elements stream, if no caller holds it
    for c in range(size):
        lo, hi = offsets[c], offsets[c + 1]
        if lo < hi:
            yield _element(spec, Basis.IDEMPOTENT, zip(members[lo:hi], itertools.repeat(1)))


def class_sums(spec: TorusSpec) -> Iterator[TorusElement]:
    """The class sum H of every canonical label, in `enumerate_canonical`
    order (coefficient 1 at each member, idempotent basis), with the classes
    read from one labelling instead of closed by search."""
    keys, labelling = _class_labelling(spec, (c.ev for c in enumerate_canonical(spec)))
    return _indicators(spec, labelling, len(keys))


def build_special(ev: ExponentVector, spec: TorusSpec) -> TorusElement:
    """Symmetrized idempotent at a special label (no pair sum divisible by p)."""
    if not is_special(ev, spec):
        raise ValueError(f"label {ev} is ordinary: some a_i + b_j is divisible by p")
    return symmetrize(ev, spec)


def build_Ha(spec: TorusSpec, a: int) -> TorusElement:
    """Sum of all ordinary idempotents whose label total is a mod q."""
    if type(a) is not int or not 0 <= a < spec.q:
        raise ValueError(f"residue must be an integer in [0, {spec.q}), got {a!r}")
    q = spec.q
    terms = {
        ev: 1
        for ev in spec.labels()
        if ev.total() % q == a and is_ordinary(ev, spec)
    }
    return TorusElement(spec, Basis.IDEMPOTENT, terms)


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


def ss_component_oracle(spec: TorusSpec) -> list[TorusElement]:
    """Basis of the supersymmetric subspace from the connected components of
    its constraints, in near-linear time.

    The subspace is the functions constant on each component, so the
    component indicators (coefficient 1, sorted by least label) span it;
    they are also the reduced echelon basis `ss_nullspace_oracle` returns.
    """
    root = _label_components(spec)
    return list(_indicators(spec, root, len(root)))


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
    """Dimension of the supersymmetric subspace by the applicable closed form.

    Dispatches on (m, n); every branch agrees with the canonical-label count.
    """
    m, n, p, q = spec.m, spec.n, spec.p, spec.q
    if m < 1 or n < 1:
        raise ValueError("dimension formulas require m, n >= 1")
    qp = q // p
    if m == 1 and n == 1:
        return q * (q - qp) + qp
    if n == 1:
        return q * comb(q - qp + m - 1, m) + qp * comb(p + m - 2, m - 1)
    if m == 1:
        return q * comb(q - qp + n - 1, n) + qp * comb(p + n - 2, n - 1)
    cross = 0
    for e in range(1, m):
        for f in range(1, n):
            cross += count_c_prime(e, f, p)
    return count_c(m, n, q, p) + qp * (
        -1 + comb(p + m - 2, m - 1) + comb(p + n - 2, n - 1) + cross
    )


# At or below this many labels `verify_basis` also runs the dense oracle and
# the fp_linalg rank and span checks: the largest spec of the CLI's default
# grid.
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

    `_class_labelling` gives every label its class id, the rank of its
    canonical form's flat index among the canonical labels', and the
    component oracle, which always runs, gives every label its root: two
    `array('q')` labellings, compared label by label in O(N).  An H is
    supersymmetric exactly when it is constant on every component, and the
    H span the oracle's space exactly when the classes are the components.
    Up to `DENSE_ORACLE_MAX_N` labels the dense oracle and the rank and span
    computations run as well, and the two oracles must agree.
    """
    # The component oracle rejects n = 0 before any label is visited.
    root = _label_components(spec)
    failures = []
    p, q, size = spec.p, spec.q, spec.dimension
    keys, label_class = _class_labelling(spec, (s[:2] for s in _canonical_shapes(spec)))
    # Each canonical label is its own form, so it lies in its own class.
    partition_ok = all(label_class[t] == c for c, t in enumerate(keys))
    seen = bytearray(len(keys) + 1)  # the last slot marks labels with no class
    mixed = set()
    for c, r in zip(label_class, root):
        seen[c] = 1
        if c != label_class[r]:
            mixed |= {c, label_class[r]}
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
        if dense != list(_indicators(spec, root, size)):
            failures.append("the dense and component oracles disagree")
        h_vecs = [[int(c == i) for c in label_class] for i in range(len(keys))]
        dense_vecs = [[o.coeffs.get(t, 0) for t in range(size)] for o in dense]
        independent = independent and fp_linalg.rank(h_vecs, p) == len(h_vecs)
        span_ok = span_ok and len(dense) == len(keys)
        span_ok = span_ok and fp_linalg.same_row_space(h_vecs, dense_vecs, p)
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
        # The 0/1 supports are the components if each member's first support
        # label is its root; -1 (in no support) and -2 (in two) are no roots.
        gen_root = array("q", [-1]) * size
        for s in _gl11_supports(p, q):
            for t in s:
                gen_root[t] = s[0] if gen_root[t] == -1 else -2
        gl11_ok = gen_root == root
        if "dense" in oracles:
            gen_vecs = [[int(t in s) for t in range(size)] for s in _gl11_supports(p, q)]
            gl11_ok = gl11_ok and fp_linalg.same_row_space(gen_vecs, dense_vecs, p)
        if not gl11_ok:
            failures.append("rank-(1|1) generators do not span the oracle space")

    h_basis_ok = independent and span_ok and not mixed
    return CountReport(
        spec=spec,
        closed_form=closed,
        enumerated=enumerated,
        oracle_dim=dim,
        h_basis_ok=h_basis_ok,
        partition_ok=partition_ok,
        gl11_span_ok=gl11_ok,
        oracles=oracles,
        failures=failures,
    )
