import itertools
import os
import random
import subprocess
import sys
from functools import reduce
from pathlib import Path

import pytest

from sstorus.canonical import enumerate_canonical
from sstorus.cli import DEFAULT_GRID
from sstorus.idempotents import from_idempotent_basis, idempotent_h, to_idempotent_basis
from sstorus.ss_basis import build_Ha
from sstorus.supersymmetry import (
    freeze_slices,
    is_bisymmetric,
    is_multiple_of_linear,
    is_supersymmetric,
    phi,
    satisfies_dagger,
    shift_substitute,
    star_system_check,
    symmetrize,
)
from sstorus.torus import (
    Basis,
    ExponentVector,
    TorusElement,
    TorusSpec,
    add,
    element_from_json,
    element_to_json,
    multiply,
    one,
    scale,
    zero,
)
from util import (
    build_H,
    multiply_by_linear,
    phi_by_shift,
    random_element,
    random_label,
    symmetrize_by_permutations,
)

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).resolve().parents[1] / "src"

def monomial(spec, a, b, c=1):
    return TorusElement(spec, Basis.BINOMIAL, {ExponentVector(a, b): c})


def pairs(spec):
    """Every pair (i, j) of an x index and a y index."""
    return itertools.product(range(1, spec.m + 1), range(1, spec.n + 1))


class TestShift:
    def test_constants_invariant(self):
        spec = TorusSpec(1, 1, 3, 1)
        assert shift_substitute(one(spec), 1, 1) == one(spec)

    def test_x_shift(self):
        spec = TorusSpec(1, 1, 2, 1)
        f = monomial(spec, (1,), (0,))
        expected = add(f, scale(-1, one(spec)))  # C(x,1) - 1
        assert shift_substitute(f, 1, 1) == expected

    def test_y_shift(self):
        spec = TorusSpec(1, 1, 2, 1)
        f = monomial(spec, (0,), (1,))
        expected = add(f, one(spec))  # C(y,1) + 1
        assert shift_substitute(f, 1, 1) == expected

    def test_is_algebra_map(self):
        rng = random.Random(21)
        for t in ((1, 1, 3, 1), (2, 2, 2, 1), (1, 1, 2, 2)):
            spec = TorusSpec(*t)
            for _ in range(50):
                f = random_element(spec, rng)
                g = random_element(spec, rng)
                lhs = shift_substitute(multiply(f, g), 1, 1)
                rhs = multiply(shift_substitute(f, 1, 1), shift_substitute(g, 1, 1))
                assert lhs == rhs

    def test_permutes_idempotents_cyclically(self):
        # shifting x -> x-1, y -> y+1 sends h_(a|b) to h_(a+1 mod q | b-1 mod q)
        for t in ((1, 1, 2, 1), (1, 1, 3, 1), (1, 1, 2, 2), (1, 1, 3, 2)):
            spec = TorusSpec(*t)
            q = spec.q
            for ev in spec.labels():
                shifted = shift_substitute(idempotent_h(spec, ev), 1, 1)
                image = ExponentVector(((ev.a[0] + 1) % q,), ((ev.b[0] - 1) % q,))
                assert to_idempotent_basis(shifted).terms == {image: 1}


class TestPhi:
    def test_unit_annihilated(self):
        spec = TorusSpec(2, 1, 3, 1)
        assert phi(one(spec), 1, 1).is_zero()

    def test_slot_indices_not_coerced(self):
        # a bool used to act as 1, and a float failed inside the indexing
        spec = TorusSpec(2, 1, 3, 1)
        f = monomial(spec, (1, 0), (0,))
        for i, j in ((True, 1), (1.0, 1), (1, True), (1, 1.0)):
            with pytest.raises(ValueError, match="index must be an integer"):
                phi(f, i, j)
            with pytest.raises(ValueError, match="index must be an integer"):
                is_multiple_of_linear(f, i, j)

    def test_gl11_p2_h00(self):
        spec = TorusSpec(1, 1, 2, 1)
        h00 = idempotent_h(spec, ExponentVector((0,), (0,)))
        expected = reduce(
            add, [one(spec), monomial(spec, (1,), (0,)), monomial(spec, (0,), (1,))]
        )
        assert phi(h00, 1, 1) == expected

    def test_gl11_p2_class_sum_killed(self):
        spec = TorusSpec(1, 1, 2, 1)
        f = add(
            idempotent_h(spec, ExponentVector((0,), (0,))),
            idempotent_h(spec, ExponentVector((1,), (1,))),
        )
        assert phi(f, 1, 1).is_zero()

    def test_quasiderivation_law(self):
        rng = random.Random(22)
        for t in ((1, 1, 3, 1), (1, 1, 2, 2), (2, 2, 3, 1)):
            spec = TorusSpec(*t)
            for _ in range(100):
                f = random_element(spec, rng)
                g = random_element(spec, rng)
                i = rng.randint(1, spec.m)
                j = rng.randint(1, spec.n)
                df, dg = phi(f, i, j), phi(g, i, j)
                rhs = add(
                    add(multiply(df, g), multiply(f, dg)),
                    scale(-1, multiply(df, dg)),
                )
                assert phi(multiply(f, g), i, j) == rhs

    def test_eigen_transfer(self):
        # (a_i + b_j) phi(h) = (x_i + y_j) phi(h) for every idempotent h
        for t in ((1, 1, 2, 1), (1, 1, 3, 1), (2, 1, 3, 1), (2, 2, 2, 1)):
            spec = TorusSpec(*t)
            for ev in spec.labels():
                for i in range(1, spec.m + 1):
                    for j in range(1, spec.n + 1):
                        ph = phi(idempotent_h(spec, ev), i, j)
                        lhs = scale(ev.a[i - 1] + ev.b[j - 1], ph)
                        assert lhs == multiply_by_linear(ph, i, j)

    @pytest.mark.parametrize("t", [(1, 1, 3, 1), (2, 1, 3, 2), (2, 2, 5, 1), (3, 2, 2, 1)])
    def test_matches_f_minus_its_shift(self, t):
        # one pass into a copy of f against f - s_ij(f) built as two elements,
        # for every (i, j), on sparse elements and on ones with N/8 terms
        spec = TorusSpec(*t)
        rng = random.Random(sum(t) * 27)
        for max_terms in (1, 4, spec.dimension // 8):
            for _ in range(5):
                f = random_element(spec, rng, max_terms=max_terms)
                for i, j in pairs(spec):
                    assert phi(f, i, j) == phi_by_shift(f, i, j), (t, i, j)

    def test_matches_golden(self):
        # a seeded 182-term binomial input at (2,1,3,2), written next to
        # phi(f, 1, 1); the output must be reproduced byte for byte
        f = element_from_json((DATA / "phi_2_1_3_2_in.json").read_text())
        assert (f.spec.m, f.spec.n, f.spec.p, f.spec.r, len(f.terms)) == (2, 1, 3, 2, 182)
        assert element_to_json(phi(f, 1, 1)) + "\n" == (DATA / "phi_2_1_3_2.json").read_text()


class TestDivisibility:
    def test_eigenvalue_one(self):
        spec = TorusSpec(1, 1, 2, 1)
        h10 = idempotent_h(spec, ExponentVector((1,), (0,)))
        witness = is_multiple_of_linear(h10, 1, 1)
        assert witness.holds
        assert witness.quotient == to_idempotent_basis(h10)

    def test_bad_label_blocks(self):
        spec = TorusSpec(1, 1, 2, 1)
        h00 = idempotent_h(spec, ExponentVector((0,), (0,)))
        assert not is_multiple_of_linear(h00, 1, 1).holds

    def test_zero_is_multiple(self):
        spec = TorusSpec(1, 1, 3, 1)
        witness = is_multiple_of_linear(zero(spec), 1, 1)
        assert witness.holds
        assert witness.quotient.is_zero()

    def test_witness_repr_and_immutability(self):
        spec = TorusSpec(1, 1, 3, 1)
        yes, no = is_multiple_of_linear(zero(spec), 1, 1), is_multiple_of_linear(one(spec), 1, 1)
        assert repr(yes) == (
            "DaggerWitness(holds=True, quotient="
            "TorusElement(TorusSpec(m=1, n=1, p=3, r=1), 'idempotent', {}))"
        )
        assert repr(no) == "DaggerWitness(holds=False, quotient=None)"
        assert no == is_multiple_of_linear(one(spec), 1, 1)
        for name in ("holds", "quotient"):
            with pytest.raises(AttributeError):
                setattr(no, name, True)

    def test_witness_soundness(self):
        rng = random.Random(23)
        for t in ((1, 1, 2, 1), (1, 1, 3, 1), (2, 1, 3, 1), (1, 1, 2, 2)):
            spec = TorusSpec(*t)
            hits = 0
            for _ in range(200):
                f = random_element(spec, rng)
                i = rng.randint(1, spec.m)
                j = rng.randint(1, spec.n)
                g = phi(f, i, j)
                witness = is_multiple_of_linear(g, i, j)
                if witness.holds:
                    hits += 1
                    recovered = multiply_by_linear(
                        from_idempotent_basis(witness.quotient), i, j
                    )
                    assert recovered == g
            assert hits > 0

    def test_quotient_supported_on_good_labels(self):
        spec = TorusSpec(1, 1, 3, 1)
        f = idempotent_h(spec, ExponentVector((1,), (0,)))
        witness = is_multiple_of_linear(f, 1, 1)
        assert witness.holds
        for ev in witness.quotient.terms:
            assert (ev.a[0] + ev.b[0]) % spec.p != 0


class TestBisymmetry:
    def test_unit(self):
        assert is_bisymmetric(one(TorusSpec(2, 2, 3, 1)))

    def test_single_slot_not_symmetric(self):
        spec = TorusSpec(2, 1, 2, 1)
        assert not is_bisymmetric(monomial(spec, (1, 0), (0,)))

    def test_orbit_sum_symmetric(self):
        spec = TorusSpec(2, 1, 2, 1)
        f = add(monomial(spec, (1, 0), (0,)), monomial(spec, (0, 1), (0,)))
        assert is_bisymmetric(f)

    @pytest.mark.parametrize("block, idx", [("a", 0), ("a", 1), ("b", 0), ("b", 1)])
    def test_single_broken_swap_m3_n3(self, block, idx):
        # (0, 1, 1) is moved only by swapping slots 0, 1 and (0, 0, 1) only
        # by swapping slots 1, 2; the other block is constant
        spec = TorusSpec(3, 3, 3, 1)
        moved, fixed = ((0, 1, 1) if idx == 0 else (0, 0, 1)), (2, 2, 2)
        ev = ExponentVector(moved, fixed) if block == "a" else ExponentVector(fixed, moved)
        assert not is_bisymmetric(TorusElement(spec, Basis.IDEMPOTENT, {ev: 1}))
        assert is_bisymmetric(symmetrize(ev, spec))

    def test_symmetrize_orbit(self):
        spec = TorusSpec(2, 1, 3, 1)
        s = symmetrize(ExponentVector((0, 1), (0,)), spec)
        assert s.terms == {
            ExponentVector((0, 1), (0,)): 1,
            ExponentVector((1, 0), (0,)): 1,
        }

    def test_symmetrize_trivial_groups(self):
        spec = TorusSpec(1, 1, 3, 1)
        ev = ExponentVector((2,), (1,))
        assert symmetrize(ev, spec).terms == {ev: 1}

    def test_symmetrize_stabilized_label_coefficient_one(self):
        spec = TorusSpec(2, 1, 3, 1)
        ev = ExponentVector((1, 1), (0,))
        assert symmetrize(ev, spec).terms == {ev: 1}

    @pytest.mark.parametrize(
        "t",
        [(1, 0, 3, 1), (3, 0, 2, 2), (2, 2, 3, 1), (4, 1, 2, 2), (3, 3, 3, 1), (5, 2, 2, 1), (6, 2, 3, 1)],
    )
    def test_symmetrize_matches_permutation_sets(self, t):
        spec = TorusSpec(*t)
        rng = random.Random(sum(t))
        labels = [random_label(spec, rng) for _ in range(40)]
        # labels with repeated entries, whose orbits are smaller than m! n!
        labels += [ExponentVector((ev.a[0],) * spec.m, ev.b) for ev in labels[:10]]
        for ev in labels:
            assert symmetrize(ev, spec) == symmetrize_by_permutations(ev, spec), ev

    def test_build_special_of_a_long_constant_block_is_one_term(self):
        # 22! orderings of (1^22), all equal: a walk over the permutations
        # would not finish; the distinct orderings are one.
        code = (
            "import time\n"
            "from sstorus.ss_basis import build_special\n"
            "from sstorus.torus import ExponentVector, TorusSpec\n"
            "ev, spec = ExponentVector((1,) * 22, (0,)), TorusSpec(22, 1, 2, 1)\n"
            "start = time.perf_counter()\n"
            "assert build_special(ev, spec).terms == {ev: 1}\n"
            "assert time.perf_counter() - start < 1\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            timeout=20,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert proc.returncode == 0, proc.stderr


class TestDaggerAndSupersymmetry:
    def test_special_satisfies_dagger(self):
        spec = TorusSpec(1, 1, 2, 1)
        assert satisfies_dagger(symmetrize(ExponentVector((1,), (0,)), spec), 1, 1)

    def test_single_ordinary_idempotent_fails(self):
        spec = TorusSpec(1, 1, 2, 1)
        h00 = idempotent_h(spec, ExponentVector((0,), (0,)))
        assert not satisfies_dagger(h00, 1, 1)
        assert not is_supersymmetric(h00)

    def test_class_sum_satisfies_dagger(self):
        spec = TorusSpec(1, 1, 2, 1)
        f = add(
            idempotent_h(spec, ExponentVector((0,), (0,))),
            idempotent_h(spec, ExponentVector((1,), (1,))),
        )
        assert satisfies_dagger(f, 1, 1)

    def test_unit_supersymmetric(self):
        f = one(TorusSpec(2, 1, 3, 1))
        assert is_supersymmetric(f)
        assert all(satisfies_dagger(f, i, j) for i, j in pairs(f.spec))

    def test_residue_sums_supersymmetric(self):
        spec = TorusSpec(2, 1, 3, 1)
        for a in range(spec.q):
            f = build_Ha(spec, a)
            assert is_supersymmetric(f)
            assert all(satisfies_dagger(f, i, j) for i, j in pairs(spec))

    def test_rejects_n_zero(self):
        spec = TorusSpec(2, 0, 3, 1)
        with pytest.raises(ValueError):
            is_supersymmetric(one(spec))

    def test_subalgebra_closure(self):
        rng = random.Random(24)
        for t in ((1, 1, 2, 1), (2, 1, 3, 1), (2, 2, 2, 1)):
            spec = TorusSpec(*t)
            basis = [build_H(c, spec) for c in enumerate_canonical(spec)]
            for _ in range(30):
                f = rng.choice(basis)
                g = rng.choice(basis)
                product = multiply(from_idempotent_basis(f), from_idempotent_basis(g))
                assert is_supersymmetric(product)

    def test_freezing_reduction(self):
        rng = random.Random(25)
        for t in ((2, 2, 2, 1), (2, 1, 3, 1)):
            spec = TorusSpec(*t)
            for _ in range(60):
                f = random_element(spec, rng, max_terms=4)
                i = rng.randint(1, spec.m)
                j = rng.randint(1, spec.n)
                direct = satisfies_dagger(f, i, j)
                slices = freeze_slices(f, i, j)
                sliced = all(satisfies_dagger(s, 1, 1) for s in slices.values())
                assert direct == sliced


class TestStarSystem:
    def test_accepts_zero_difference(self):
        spec = TorusSpec(1, 1, 2, 1)
        f = add(
            idempotent_h(spec, ExponentVector((0,), (0,))),
            idempotent_h(spec, ExponentVector((1,), (1,))),
        )
        assert phi(f, 1, 1).is_zero()
        assert star_system_check(f, zero(spec), 1, 1)

    def test_accepts_witness_pairs(self):
        rng = random.Random(26)
        for t in ((1, 1, 2, 1), (1, 1, 3, 1), (2, 1, 3, 1), (1, 1, 2, 2)):
            spec = TorusSpec(*t)
            basis = [build_H(c, spec) for c in enumerate_canonical(spec)]
            for _ in range(25):
                coeffs = [rng.randrange(spec.p) for _ in basis]
                f = zero(spec, Basis.IDEMPOTENT)
                for c, h in zip(coeffs, basis):
                    f = add(f, scale(c, h))
                fb = from_idempotent_basis(f)
                witness = is_multiple_of_linear(phi(fb, 1, 1), 1, 1)
                assert witness.holds
                quotient = from_idempotent_basis(witness.quotient)
                assert star_system_check(fb, quotient, 1, 1)

    def test_rejects_perturbed_quotient(self):
        spec = TorusSpec(1, 1, 3, 1)
        f = from_idempotent_basis(build_Ha(spec, 0))
        quotient = from_idempotent_basis(
            is_multiple_of_linear(phi(f, 1, 1), 1, 1).quotient
        )
        # bump b at a label whose slot sum is prime to p
        lam = ExponentVector((1,), (0,))
        broken = add(quotient, monomial(spec, lam.a, lam.b))
        assert not star_system_check(f, broken, 1, 1)

    def test_rejects_perturbed_source(self):
        spec = TorusSpec(1, 1, 3, 1)
        f = from_idempotent_basis(build_Ha(spec, 0))
        quotient = from_idempotent_basis(
            is_multiple_of_linear(phi(f, 1, 1), 1, 1).quotient
        )
        broken = add(f, monomial(spec, (1,), (1,)))
        assert not star_system_check(broken, quotient, 1, 1)


def binomial_route(f):
    """The reference decision: bisymmetry plus divisibility of phi_11(f)
    computed through the binomial-basis shift."""
    return is_bisymmetric(f) and satisfies_dagger(f, 1, 1)


def fast_check_cases(spec, rng):
    """(element, expected verdict or None) pairs covering both verdicts and
    both bases."""
    sums = [build_H(c, spec) for c in enumerate_canonical(spec)]
    for h in sums:
        yield h, True
        if len(h.terms) > 1:
            dropped = rng.choice(sorted(h.terms))
            terms = {ev: c for ev, c in h.terms.items() if ev != dropped}
            yield TorusElement(spec, Basis.IDEMPOTENT, terms), False
    for _ in range(4):
        yield random_element(spec, rng, max_terms=4, basis=Basis.IDEMPOTENT), None
        yield random_element(spec, rng, max_terms=4), None
        yield symmetrize(random_label(spec, rng), spec), None
        combo = zero(spec, Basis.IDEMPOTENT)
        for h in rng.sample(sums, min(3, len(sums))):
            combo = add(combo, scale(rng.randrange(1, spec.p), h))
        yield combo, True
        yield from_idempotent_basis(combo), True


class TestFastCheckAgainstBinomialRoute:
    @pytest.mark.parametrize("t", DEFAULT_GRID)
    @pytest.mark.parametrize("all_pairs", [False, True])
    def test_agrees_on_grid(self, t, all_pairs):
        """With `all_pairs`, also the claim that (1, 1) decides every pair:
        on each bisymmetric case, the binomial route gives the same
        divisibility verdict at every pair (i, j) as at (1, 1)."""
        spec = TorusSpec(*t)
        rng = random.Random(str(t))
        verdicts = set()
        for f, expected in fast_check_cases(spec, rng):
            fast = is_supersymmetric(f)
            assert fast == binomial_route(f), f
            if expected is not None:
                assert fast == expected, f
            verdicts.add(fast)
            if all_pairs and is_bisymmetric(f):
                d11 = satisfies_dagger(f, 1, 1)
                assert all(satisfies_dagger(f, i, j) == d11 for i, j in pairs(spec)), f
        assert verdicts == {True, False}
