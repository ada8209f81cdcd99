"""Supersymmetric basis elements and two independent checks of the basis.

Three constructions produce supersymmetric elements: symmetrized special
idempotents, the residue sums over all ordinary idempotents, and the class
sums H attached to canonical labels.  The supersymmetric subspace is
recomputed from its defining linear constraints twice: `ss_nullspace_oracle`
by exact Gaussian elimination, and `ss_component_oracle` by union-find,
because in idempotent coordinates every constraint equates two coordinates.
`verify_basis` bundles the dimension, span and closed-form checks into one
report.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import comb
from typing import List, Optional

from . import fp_linalg
from .canonical import (
    CanonicalLabel,
    count_canonical_total,
    count_c,
    count_c_prime,
    enumerate_canonical,
    enumerate_equivalence_class,
    is_ordinary,
    is_special,
)
from .idempotents import evaluate_point, idempotent_h
from .supersymmetry import is_supersymmetric, phi, symmetrize
from .torus import Basis, ExponentVector, TorusElement, TorusSpec


def build_H(canonical: CanonicalLabel, spec: TorusSpec) -> TorusElement:
    """Class sum: coefficient 1 at every member of the equivalence class."""
    cls = enumerate_equivalence_class(canonical, spec)
    return TorusElement(spec, Basis.IDEMPOTENT, {ev: 1 for ev in cls.members})


def build_special(ev: ExponentVector, spec: TorusSpec) -> TorusElement:
    """Symmetrized idempotent at a special label (no pair sum divisible by p)."""
    spec.check_label(ev)
    if not is_special(ev, spec):
        raise ValueError(f"label {ev} is ordinary: some a_i + b_j is divisible by p")
    return symmetrize(ev, spec)


def build_Ha(spec: TorusSpec, a: int) -> TorusElement:
    """Sum of all ordinary idempotents whose label total is a mod q."""
    if not 0 <= a < spec.q:
        raise ValueError(f"residue {a} outside [0, {spec.q})")
    q = spec.q
    terms = {
        ev: 1
        for ev in spec.labels()
        if ev.total() % q == a and is_ordinary(ev, spec)
    }
    return TorusElement(spec, Basis.IDEMPOTENT, terms)


def _coeff_vector(elem: TorusElement, index: dict) -> list:
    vec = [0] * len(index)
    for ev, c in elem.terms.items():
        vec[index[ev]] = c
    return vec


def ss_nullspace_oracle(
    spec: TorusSpec, all_pairs: bool = False
) -> List[TorusElement]:
    """Basis of the supersymmetric subspace computed from scratch.

    Unknowns are the idempotent coordinates.  Constraints: invariance under
    the adjacent transpositions of each block, and vanishing of the
    coordinates of phi(f, 1, 1) at every label with a_1 + b_1 divisible by p
    (exactly divisibility by x_1 + y_1).  With `all_pairs` the divisibility
    rows are added for every pair (i, j) instead of (1, 1) alone.

    Solved by exact elimination mod p; the result is in reduced echelon form
    with pivots in lexicographic label order.
    """
    if spec.n < 1:
        raise ValueError("the supersymmetric subspace needs n >= 1")
    p = spec.p
    labels = list(spec.labels())
    index = {ev: t for t, ev in enumerate(labels)}
    nlab = len(labels)
    rows = []

    for ev in labels:
        for idx in range(spec.m - 1):
            other = ev.swapped_a(idx)
            if ev < other:
                row = [0] * nlab
                row[index[ev]] = 1
                row[index[other]] = p - 1
                rows.append(row)
        for idx in range(spec.n - 1):
            other = ev.swapped_b(idx)
            if ev < other:
                row = [0] * nlab
                row[index[ev]] = 1
                row[index[other]] = p - 1
                rows.append(row)

    pairs = (
        [(i, j) for i in range(1, spec.m + 1) for j in range(1, spec.n + 1)]
        if all_pairs
        else [(1, 1)]
    )
    for i, j in pairs:
        bad = [ev for ev in labels if (ev.a[i - 1] + ev.b[j - 1]) % p == 0]
        images = []
        for ev in labels:
            ph = phi(idempotent_h(spec, ev), i, j)
            images.append([evaluate_point(ph, beta) for beta in bad])
        for bpos in range(len(bad)):
            row = [images[t][bpos] for t in range(nlab)]
            if any(row):
                rows.append(row)

    basis_rows = fp_linalg.nullspace_basis(rows, nlab, p)
    out = []
    for vec in basis_rows:
        terms = {labels[t]: v for t, v in enumerate(vec) if v}
        out.append(TorusElement(spec, Basis.IDEMPOTENT, terms))
    return out


def _flat_index(ev: ExponentVector, q: int) -> int:
    """Position of a label in lexicographic order: mixed radix q over the
    m + n slots."""
    t = 0
    for d in ev.a + ev.b:
        t = t * q + d
    return t


def _label_components(spec: TorusSpec) -> List[List[int]]:
    """Connected components of the constraint graph of the supersymmetric
    subspace, over flat label indices.

    Edges join each label to its adjacent swaps within each block and, where
    p divides a_1 + b_1, to beta - delta with delta = (+1 at x_1 | -1 at y_1)
    mod q: the two-term equalities that the rows of `ss_nullspace_oracle`
    amount to in idempotent coordinates.  Union-find links every root under
    the smaller one, so each component is listed in increasing order and the
    components come in order of their least label.
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

    components: dict = {}
    for t in range(len(parent)):
        components.setdefault(find(t), []).append(t)
    return list(components.values())


def _indicators(spec: TorusSpec, components) -> List[TorusElement]:
    labels = list(spec.labels())
    return [
        TorusElement(spec, Basis.IDEMPOTENT, {labels[t]: 1 for t in comp})
        for comp in components
    ]


def ss_component_oracle(spec: TorusSpec) -> List[TorusElement]:
    """Basis of the supersymmetric subspace from the connected components of
    its constraints, in near-linear time.

    The subspace is the functions constant on each component, so the
    component indicators (coefficient 1, sorted by least label) span it;
    they are also the reduced echelon basis `ss_nullspace_oracle` returns.
    """
    return _indicators(spec, _label_components(spec))


def gl11_generators(spec: TorusSpec) -> List[TorusElement]:
    """For m = n = 1: the idempotents h_(a|b) with a + b prime to p, then the
    cyclic sums sum_i h_(i | pl - i mod q) for l = 0 .. q/p - 1."""
    if spec.m != 1 or spec.n != 1:
        raise ValueError("these generators are defined for m = n = 1 only")
    p, q = spec.p, spec.q
    out = []
    for a in range(q):
        for b in range(q):
            if (a + b) % p:
                ev = ExponentVector((a,), (b,))
                out.append(TorusElement(spec, Basis.IDEMPOTENT, {ev: 1}))
    for l in range(q // p):
        terms = {
            ExponentVector((i,), ((p * l - i) % q,)): 1 for i in range(q)
        }
        out.append(TorusElement(spec, Basis.IDEMPOTENT, terms))
    return out


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


@dataclass
class CountReport:
    """Outcome of the verification bundle for one algebra.

    `oracles` names the oracles that ran; it stays out of `to_dict()`, so the
    JSON report does not depend on the dense threshold.
    """

    spec: TorusSpec
    closed_form: int
    enumerated: int
    oracle_dim: int
    h_basis_ok: bool
    partition_ok: bool
    gl11_span_ok: Optional[bool]
    oracles: tuple = ()
    failures: list = field(default_factory=list, repr=False)

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
    """Build every class sum H and verify the basis claims.

    Checks, all reported rather than raised: each H is supersymmetric; the
    H family is linearly independent; its span, cardinality and the oracle's
    agree with the closed-form count; the classes partition the label set;
    and for m = n = 1 the listed generators span the same space.

    The component oracle always runs, and the checks against it are O(N):
    class sums with disjoint non-empty supports are independent, and they
    span the oracle's space exactly when the classes are its components.
    Up to `DENSE_ORACLE_MAX_N` labels the dense oracle and the rank and span
    computations run as well, and the two oracles must agree.
    """
    failures = []
    p, q = spec.p, spec.q

    canonicals = enumerate_canonical(spec)
    classes = [enumerate_equivalence_class(c, spec) for c in canonicals]
    h_elements = [
        TorusElement(spec, Basis.IDEMPOTENT, {ev: 1 for ev in cls.members})
        for cls in classes
    ]
    supports = [[_flat_index(ev, q) for ev in cls.members] for cls in classes]

    counts = [0] * spec.dimension
    for support in supports:
        for t in support:
            counts[t] += 1
    partition_ok = all(c == 1 for c in counts)
    if not partition_ok:
        failures.append("classes do not partition the label set")

    for c, h in zip(canonicals, h_elements):
        if not is_supersymmetric(h):
            failures.append(f"class sum at {c.ev} is not supersymmetric")

    components = _label_components(spec)
    independent = all(supports) and max(counts, default=0) <= 1
    span_ok = sorted(supports) == components

    oracles = ("component",)
    if spec.dimension <= DENSE_ORACLE_MAX_N:
        oracles += ("dense",)
        labels = list(spec.labels())
        index = {ev: t for t, ev in enumerate(labels)}
        dense = ss_nullspace_oracle(spec)
        if dense != _indicators(spec, components):
            failures.append("the dense and component oracles disagree")
        h_vecs = [_coeff_vector(h, index) for h in h_elements]
        dense_vecs = [_coeff_vector(o, index) for o in dense]
        independent = independent and fp_linalg.rank(h_vecs, p) == len(h_vecs)
        span_ok = (
            span_ok
            and len(dense) == len(h_elements)
            and fp_linalg.same_row_space(h_vecs, dense_vecs, p)
        )
    if not independent:
        failures.append("class sums are linearly dependent")
    if not span_ok:
        failures.append("class-sum span differs from the oracle span")

    closed = dim_closed_form(spec)
    enumerated = len(canonicals)
    if not closed == enumerated == count_canonical_total(spec):
        failures.append(
            f"count mismatch: closed form {closed}, enumerated {enumerated}"
        )
    if len(components) != closed:
        failures.append(
            f"oracle dimension {len(components)} differs from closed form {closed}"
        )

    gl11_ok = None
    if spec.m == 1 and spec.n == 1:
        gens = gl11_generators(spec)
        gen_supports = sorted(
            [_flat_index(ev, q) for ev in sorted(g.terms)] for g in gens
        )
        zero_one = all(c == 1 for g in gens for c in g.terms.values())
        disjoint = sum(map(len, gen_supports)) == len(
            set(itertools.chain.from_iterable(gen_supports))
        )
        gl11_ok = zero_one and disjoint and gen_supports == components
        if "dense" in oracles:
            gen_vecs = [_coeff_vector(g, index) for g in gens]
            gl11_ok = gl11_ok and fp_linalg.same_row_space(gen_vecs, dense_vecs, p)
        if not gl11_ok:
            failures.append("rank-(1|1) generators do not span the oracle space")

    h_basis_ok = (
        independent
        and span_ok
        and not any("not supersymmetric" in f for f in failures)
    )
    return CountReport(
        spec=spec,
        closed_form=closed,
        enumerated=enumerated,
        oracle_dim=len(components),
        h_basis_ok=h_basis_ok,
        partition_ok=partition_ok,
        gl11_span_ok=gl11_ok,
        oracles=oracles,
        failures=failures,
    )
