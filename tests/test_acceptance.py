"""Acceptance suite: one test per verification criterion, each printing a
pass/fail line.  All checks are exact (arithmetic over F_p and exact
integers); run with `pytest -s tests/test_acceptance.py` to see the lines.
"""

import math
import random
import time
from collections import Counter
from functools import reduce

from sstorus import fp_linalg
from sstorus.canonical import (
    count_canonical_total,
    count_ordinary_points_m1,
    enumerate_canonical,
    enumerate_equivalence_class,
)
from sstorus.idempotents import from_idempotent_basis, idempotent_h
from sstorus.modp import alternating_power_sum
from sstorus.ss_basis import dim_closed_form, gl11_generators, ss_nullspace_oracle
from sstorus.supersymmetry import is_multiple_of_linear, phi, star_system_check
from sstorus.torus import (
    Basis,
    ExponentVector,
    TorusElement,
    TorusSpec,
    add,
    multiply,
    one,
    scale,
    zero,
)
from util import build_H, coeff_vectors, integer_monomial_product, random_element, random_label

GRID = [
    (1, 1, 2, 1),
    (1, 1, 2, 2),
    (1, 1, 3, 1),
    (2, 1, 2, 1),
    (2, 1, 3, 1),
    (1, 2, 3, 1),
    (3, 1, 2, 1),
    (2, 2, 2, 1),
    (2, 2, 3, 1),
]


def _report(number, name, failures, started):
    elapsed = time.perf_counter() - started
    status = "PASS" if not failures else "FAIL"
    print(f"[criterion {number:2d}] {name}: {status} ({elapsed:.2f}s)")
    assert not failures, failures[:10]


def test_criterion_01_idempotent_completeness_orthogonality():
    started = time.perf_counter()
    failures = []
    for params in GRID:
        spec = TorusSpec(*params)
        labels = list(spec.labels())
        hs = {ev: idempotent_h(spec, ev) for ev in labels}
        if reduce(add, hs.values()) != one(spec):
            failures.append(f"{params}: idempotents do not sum to one")
        z = zero(spec)
        for u in labels:
            hu = hs[u]
            for v in labels:
                expected = hu if u == v else z
                if multiply(hu, hs[v]) != expected:
                    failures.append(f"{params}: product at ({u}, {v}) wrong")
    _report(1, "idempotent completeness and orthogonality", failures, started)


def test_criterion_02_truncation_soundness():
    started = time.perf_counter()
    failures = []
    rng = random.Random(102)
    for params in GRID:
        spec = TorusSpec(*params)
        p, q, m = spec.p, spec.q, spec.m
        for _ in range(1000):
            u = random_label(spec, rng)
            v = random_label(spec, rng)
            exact = integer_monomial_product(u, v)
            fu = TorusElement(spec, Basis.BINOMIAL, {u: 1})
            fv = TorusElement(spec, Basis.BINOMIAL, {v: 1})
            product = multiply(fu, fv)
            for key, coeff in exact.items():
                if all(e < q for e in key):
                    ev = ExponentVector(key[:m], key[m:])
                    if product.coefficient(ev) != coeff % p:
                        failures.append(f"{params}: kept coefficient at {key} wrong")
                elif coeff % p:
                    failures.append(
                        f"{params}: dropped coefficient {coeff} at {key} not divisible by {p}"
                    )
    _report(2, "truncation soundness vs untruncated integers", failures, started)


def test_criterion_03_alternating_sum_identity():
    started = time.perf_counter()
    failures = []
    for a in range(1, 13):
        for b in range(a + 1):
            expected = 0 if b < a else (-1) ** a * math.factorial(a)
            if alternating_power_sum(a, b) != expected:
                failures.append(f"(a={a}, b={b})")
    _report(3, "alternating power-sum identity", failures, started)


def test_criterion_04_quasiderivation_law():
    started = time.perf_counter()
    failures = []
    rng = random.Random(104)
    for params in GRID:
        spec = TorusSpec(*params)
        for trial in range(500):
            f = random_element(spec, rng)
            g = random_element(spec, rng)
            i = rng.randint(1, spec.m)
            j = rng.randint(1, spec.n)
            df, dg = phi(f, i, j), phi(g, i, j)
            rhs = add(add(multiply(df, g), multiply(f, dg)), scale(-1, multiply(df, dg)))
            if phi(multiply(f, g), i, j) != rhs:
                failures.append(f"{params}: trial {trial} pair ({i},{j})")
    _report(4, "quasiderivation law on random pairs", failures, started)


def test_criterion_05_dimension_theorem():
    started = time.perf_counter()
    failures = []
    expected_dims = {
        (1, 1, 2, 1): 3,
        (1, 1, 2, 2): 10,
        (1, 1, 3, 1): 7,
        (2, 1, 3, 1): 12,
        (3, 1, 2, 1): 5,
        (2, 1, 2, 2): 16,
    }
    for params in GRID + [(2, 1, 2, 2)]:
        spec = TorusSpec(*params)
        labels = list(spec.labels())
        canonicals = enumerate_canonical(spec)
        h_basis = [build_H(c, spec) for c in canonicals]
        oracle = ss_nullspace_oracle(spec)
        closed = dim_closed_form(spec)
        counted = count_canonical_total(spec)
        if not (len(oracle) == len(h_basis) == closed == counted):
            failures.append(
                f"{params}: oracle {len(oracle)}, basis {len(h_basis)}, "
                f"closed {closed}, counted {counted}"
            )
        h_rows = fp_linalg.rref(coeff_vectors(h_basis, labels), spec.p)[0]
        if len(h_rows) != len(h_basis):
            failures.append(f"{params}: class sums dependent")
        if h_rows != fp_linalg.rref(coeff_vectors(oracle, labels), spec.p)[0]:
            failures.append(f"{params}: span mismatch")
        if params in expected_dims and closed != expected_dims[params]:
            failures.append(f"{params}: expected {expected_dims[params]}, got {closed}")
    _report(5, "dimension theorem (oracle = count = basis, spans equal)", failures, started)


def test_criterion_06_gl11_generator_equivalence():
    started = time.perf_counter()
    failures = []
    for p, r in ((2, 1), (2, 2), (3, 1)):
        spec = TorusSpec(1, 1, p, r)
        labels = list(spec.labels())
        gens = coeff_vectors(gl11_generators(spec), labels)
        oracle = coeff_vectors(ss_nullspace_oracle(spec), labels)
        if fp_linalg.rref(gens, p)[0] != fp_linalg.rref(oracle, p)[0]:
            failures.append(f"(p={p}, r={r})")
    _report(6, "rank-(1|1) generators span the oracle space", failures, started)


def test_criterion_07_class_size_claims():
    started = time.perf_counter()
    failures = []
    for p in (2, 3, 5):
        spec = TorusSpec(2, 1, p, 1)
        for c in enumerate_canonical(spec):
            if c.defect >= 1:
                size = len(enumerate_equivalence_class(c, spec).members)
                if size != 2 * p - 1:
                    failures.append(f"(2|1) p={p}: {c.ev} class size {size}")
        spec = TorusSpec(3, 1, p, 1)
        for c in enumerate_canonical(spec):
            if c.defect >= 1:
                size = len(enumerate_equivalence_class(c, spec).members)
                expected = 3 * p - 2 if c.ev.a[1] == c.ev.a[2] else 6 * p - 6
                if size != expected:
                    failures.append(f"(3|1) p={p}: {c.ev} class size {size} != {expected}")
    _report(7, "class sizes 2p-1 / 3p-2 / 6p-6", failures, started)


def test_criterion_08_ordinary_point_count():
    started = time.perf_counter()
    failures = []
    import itertools

    for p in (2, 3, 5):
        for m in (1, 2, 3):
            brute = sum(
                1
                for point in itertools.product(range(p), repeat=m + 1)
                if any((point[i] + point[m]) % p == 0 for i in range(m))
            )
            if count_ordinary_points_m1(m, p) != brute:
                failures.append(f"(m={m}, p={p})")
    _report(8, "ordinary-point closed form vs exhaustive count", failures, started)


def test_criterion_09_partition_property():
    started = time.perf_counter()
    failures = []
    for params in GRID:
        spec = TorusSpec(*params)
        seen = Counter()
        for c in enumerate_canonical(spec):
            seen.update(enumerate_equivalence_class(c, spec).members)
        if len(seen) != spec.dimension or set(seen.values()) != {1}:
            failures.append(f"{params}: classes do not partition the labels")
    _report(9, "equivalence classes partition all labels", failures, started)


def test_criterion_10_star_dagger_consistency():
    started = time.perf_counter()
    failures = []
    rng = random.Random(110)
    bases = {}
    for params in GRID:
        spec = TorusSpec(*params)
        bases[params] = (spec, [build_H(c, spec) for c in enumerate_canonical(spec)])
    for trial in range(200):
        params = GRID[trial % len(GRID)]
        spec, basis = bases[params]
        p, q = spec.p, spec.q
        combo = zero(spec, Basis.IDEMPOTENT)
        for h in basis:
            combo = add(combo, scale(rng.randrange(p), h))
        f = from_idempotent_basis(combo)
        witness = is_multiple_of_linear(phi(f, 1, 1), 1, 1)
        if not witness.holds:
            failures.append(f"{params}: witness missing on trial {trial}")
            continue
        quotient = from_idempotent_basis(witness.quotient)
        if not star_system_check(f, quotient, 1, 1):
            failures.append(f"{params}: system rejected a valid pair on trial {trial}")
        delta = rng.randrange(1, p)
        # bump the quotient where the slot sum is prime to p: the equation at
        # that label changes by (slot sum) * delta != 0
        lam = random_label(spec, rng)
        lam = ExponentVector((1,) + lam.a[1:], (0,) + lam.b[1:])
        bumped_q = add(quotient, TorusElement(spec, Basis.BINOMIAL, {lam: delta}))
        if star_system_check(f, bumped_q, 1, 1):
            failures.append(f"{params}: perturbed quotient accepted on trial {trial}")
        # bump the source at a label not annihilated by the difference
        # operator, i.e. slots (1, 1) not both zero
        pi = random_label(spec, rng)
        pi = ExponentVector(pi.a, (rng.randrange(1, q),) + pi.b[1:])
        bumped_f = add(f, TorusElement(spec, Basis.BINOMIAL, {pi: delta}))
        if star_system_check(bumped_f, quotient, 1, 1):
            failures.append(f"{params}: perturbed source accepted on trial {trial}")
    _report(10, "linear system accepts witnesses, rejects perturbations", failures, started)
