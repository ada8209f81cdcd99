"""Independent reference arithmetic for checking benchmark outputs.

Nothing here imports `sstorus`: expected answers come from textbook
formulas and brute force, so a defect in the package cannot hide in its own
answers.  Labels are flat tuples (a_1..a_m, b_1..b_n); an element is a dict
from flat labels to residues mod p; dense vectors list values over all
labels in lexicographic order.
"""

from __future__ import annotations

import hashlib
import itertools
from math import comb


def all_labels(m: int, n: int, q: int):
    return list(itertools.product(range(q), repeat=m + n))


def _axis_passes(vec, q: int, d: int, matrix, p: int):
    """Apply `matrix` (q x q) along every axis of a dense vector (Yates)."""
    vec = list(vec)
    for axis in range(d):
        stride = q ** (d - 1 - axis)
        block = stride * q
        out = [0] * len(vec)
        for base in range(0, len(vec), block):
            for off in range(stride):
                col = [vec[base + off + j * stride] for j in range(q)]
                for i, row in enumerate(matrix):
                    out[base + off + i * stride] = (
                        sum(r * c for r, c in zip(row, col) if r) % p
                    )
        vec = out
    return vec


def dense(f: dict, m: int, n: int, q: int):
    d = m + n
    vec = [0] * q**d
    for label, c in f.items():
        idx = 0
        for v in label:
            idx = idx * q + v
        vec[idx] = c
    return vec


def sparse(vec, m: int, n: int, q: int) -> dict:
    return {
        label: v for label, v in zip(itertools.product(range(q), repeat=m + n), vec) if v
    }


def values(f: dict, m: int, n: int, p: int, q: int):
    """Point values of a binomial-basis element: C(x, k) at v is C(v, k)."""
    table = [[comb(v, k) % p for k in range(q)] for v in range(q)]
    return _axis_passes(dense(f, m, n, q), q, m + n, table, p)


def from_values(vec, m: int, n: int, p: int, q: int) -> dict:
    """Binomial coefficients of the function with the given point values.

    The inverse of the mod-p Pascal matrix is the signed Pascal matrix
    (-1)^(k-v) C(k, v), applied along every axis.
    """
    table = [[(-1) ** (k - v) * comb(k, v) % p for v in range(q)] for k in range(q)]
    return sparse(_axis_passes(vec, q, m + n, table, p), m, n, q)


def multiply_bruteforce(f: dict, g: dict, p: int, q: int) -> dict:
    """Product by integer convolution, coordinate by coordinate, with

        C(x, a) C(x, b) = sum_k C(k, a) C(a, k - b) C(x, k),  max(a,b) <= k <= a+b,

    in exact integers; exponents k >= q leave the truncated algebra and are
    dropped, and only the final sums are reduced mod p.
    """
    acc: dict = {}
    for u, cu in f.items():
        for v, cv in g.items():
            partial = {(): cu * cv}
            for a, b in zip(u, v):
                nxt = {}
                for k in range(max(a, b), min(a + b, q - 1) + 1):
                    coeff = comb(k, a) * comb(a, k - b)
                    for ex, c in partial.items():
                        key = ex + (k,)
                        nxt[key] = nxt.get(key, 0) + c * coeff
                partial = nxt
            for ex, c in partial.items():
                acc[ex] = acc.get(ex, 0) + c
    return {ex: c % p for ex, c in acc.items() if c % p}


def shifted_values(vec, m: int, n: int, q: int):
    """Values of s_11(f): f(x_1 - 1, .., y_1 + 1, ..), periodic mod q."""
    d = m + n
    sx, sy = q ** (d - 1), q ** (d - 1 - m)
    out = [0] * len(vec)
    for idx, label in enumerate(itertools.product(range(q), repeat=d)):
        src = idx
        src += (sx * (q - 1)) if label[0] == 0 else -sx
        src += (-sy * (q - 1)) if label[m] == q - 1 else sy
        out[idx] = vec[src]
    return out


def class_signature(label, m: int, p: int, q: int):
    """Invariant that separates equivalence classes of labels.

    Defect zero: the sorted blocks.  Positive defect: the defect, the
    residues left out of a maximum zero-sum matching, and the total mod q.
    """
    a, b = label[:m], label[m:]
    ca, cb = [0] * p, [0] * p
    for v in a:
        ca[v % p] += 1
    for v in b:
        cb[v % p] += 1
    matched = [min(ca[r], cb[-r % p]) for r in range(p)]
    d = sum(matched)
    if d == 0:
        return (0, tuple(sorted(a)), tuple(sorted(b)))
    ua = tuple(r for r in range(p) for _ in range(ca[r] - matched[r]))
    ub = tuple(r for r in range(p) for _ in range(cb[r] - matched[-r % p]))
    return (d, ua, ub, sum(label) % q)


def classes(m: int, n: int, p: int, q: int):
    """Equivalence classes as lists of flat labels, in order of first member."""
    groups: dict = {}
    for label in itertools.product(range(q), repeat=m + n):
        groups.setdefault(class_signature(label, m, p, q), []).append(label)
    return list(groups.values())


def is_class_constant(f: dict, class_list) -> bool:
    """Supersymmetry of an element given by its idempotent coordinates."""
    return all(len({f.get(x, 0) for x in cls}) == 1 for cls in class_list)


def _multichoose(kinds: int, size: int) -> int:
    """Multisets of `size` items from `kinds` kinds."""
    return comb(kinds + size - 1, size) if kinds else int(size == 0)


def _multisets_using_all(kinds: int, per_kind: int, size: int) -> int:
    """Multisets of `size` values drawn from `kinds` groups of `per_kind`
    values each, touching every group (inclusion-exclusion)."""
    return sum(
        (-1) ** (kinds - i) * comb(kinds, i) * _multichoose(i * per_kind, size)
        for i in range(kinds + 1)
    )


def count_defect_zero(m: int, n: int, p: int, q: int) -> int:
    """Pairs of weakly increasing blocks with no a_i + b_j divisible by p,
    grouped by the number l of residue classes the b block touches."""
    qp = q // p
    return sum(
        comb(p, l)
        * _multisets_using_all(l, qp, n)
        * _multichoose(q - l * qp, m)
        for l in range(1, min(p, n) + 1)
    )


def _residue_pairs(a: int, b: int, p: int) -> int:
    """Pairs (A, B) of residue multisets of sizes a, b with no rho in A and
    tau in B summing to 0 mod p."""
    if b == 0:
        return _multichoose(p, a)
    return sum(
        comb(p, l) * comb(b - 1, l - 1) * _multichoose(p - l, a)
        for l in range(1, min(b, p) + 1)
    )


def count_by_defect(m: int, n: int, p: int, q: int) -> dict:
    """Class counts by defect: a positive-defect class is fixed by its
    defect, the unmatched residues and one of q/p totals mod q."""
    out = {"0": count_defect_zero(m, n, p, q)}
    for d in range(1, min(m, n) + 1):
        out[str(d)] = (q // p) * _residue_pairs(m - d, n - d, p)
    return out


def digest(basis: str, terms) -> str:
    """Digest of an element from (a, b, c) triples in any order."""
    body = repr((basis, sorted(terms)))
    return hashlib.sha256(body.encode()).hexdigest()


def element_digest(basis: str, f: dict, m: int) -> str:
    return digest(basis, [(x[:m], x[m:], c) for x, c in f.items()])
