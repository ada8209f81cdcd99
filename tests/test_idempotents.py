import random
from functools import reduce
from math import comb
from pathlib import Path

import pytest

from sstorus.cli import DEFAULT_GRID
from sstorus.idempotents import (
    _binomial_table,
    _digit_tables,
    evaluate_point,
    from_idempotent_basis,
    idempotent_h,
    multiply_idempotent_basis,
    to_idempotent_basis,
)
from sstorus.torus import (
    Basis,
    ExponentVector,
    MismatchError,
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
    binom_mod_p,
    from_idempotent_by_h,
    idempotent_univariate,
    multiply_by_coordinate,
    multiply_by_linear,
    random_element,
)


DATA = Path(__file__).parent / "data"


def monomial(spec, a, b, c=1):
    return TorusElement(spec, Basis.BINOMIAL, {ExponentVector(a, b): c})


class TestUnivariate:
    def test_p2_a0(self):
        spec = TorusSpec(1, 1, 2, 1)
        expected = add(one(spec), monomial(spec, (1,), (0,)))
        assert idempotent_univariate(spec, "x", 1, 0) == expected

    def test_top_index_single_term(self):
        for spec in (TorusSpec(1, 1, 2, 1), TorusSpec(1, 1, 3, 1), TorusSpec(1, 1, 2, 2)):
            q = spec.q
            assert idempotent_univariate(spec, "x", 1, q - 1) == monomial(spec, (q - 1,), (0,))

    def test_p3_a1(self):
        spec = TorusSpec(1, 1, 3, 1)
        expected = add(monomial(spec, (1,), (0,)), monomial(spec, (2,), (0,)))
        assert idempotent_univariate(spec, "x", 1, 1) == expected

    def test_out_of_range(self):
        spec = TorusSpec(1, 1, 2, 1)
        with pytest.raises(ValueError):
            idempotent_univariate(spec, "x", 1, 2)
        with pytest.raises(ValueError):
            idempotent_univariate(spec, "y", 2, 0)

    def test_dominance(self):
        # C(x,a) X_a = X_a and C(x,j) X_a = 0 for j > a, all q <= 9
        for p, r in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (7, 1)):
            spec = TorusSpec(1, 0, p, r)
            q = spec.q
            for a in range(q):
                xa = idempotent_univariate(spec, "x", 1, a)
                assert multiply(monomial(spec, (a,), ()), xa) == xa
                for j in range(a + 1, q):
                    assert multiply(monomial(spec, (j,), ()), xa).is_zero()


class TestIdempotentH:
    def test_gl11_p2_corner(self):
        spec = TorusSpec(1, 1, 2, 1)
        h00 = idempotent_h(spec, ExponentVector((0,), (0,)))
        expected = reduce(
            add,
            [
                one(spec),
                monomial(spec, (1,), (0,)),
                monomial(spec, (0,), (1,)),
                monomial(spec, (1,), (1,)),
            ],
        )
        assert h00 == expected

    def test_top_label_single_monomial(self):
        for spec in (TorusSpec(1, 1, 2, 1), TorusSpec(1, 1, 3, 1), TorusSpec(1, 1, 2, 2)):
            q = spec.q
            ev = ExponentVector((q - 1,), (q - 1,))
            assert idempotent_h(spec, ev) == monomial(spec, (q - 1,), (q - 1,))

    def test_gl11_p2_11_is_xy(self):
        spec = TorusSpec(1, 1, 2, 1)
        assert idempotent_h(spec, ExponentVector((1,), (1,))) == monomial(spec, (1,), (1,))

    def test_checks_the_label(self):
        spec = TorusSpec(2, 1, 3, 1)
        for ev in (ExponentVector((3, 0), (0,)), ExponentVector((0,), (0,))):
            with pytest.raises(ValueError):
                idempotent_h(spec, ev)

    def test_builds_terms_unchecked(self, monkeypatch):
        """The exponents lie in [a, q) by construction, so the result skips
        the checked label and element constructors."""
        spec = TorusSpec(2, 1, 5, 1)
        ev = ExponentVector((1, 3), (2,))

        def checked(*args):
            raise AssertionError("a checked constructor ran")

        idempotent_h.cache_clear()
        monkeypatch.setattr(ExponentVector, "__post_init__", checked)
        monkeypatch.setattr(TorusElement, "__init__", checked)
        h = idempotent_h(spec, ev)
        monkeypatch.undo()
        assert h.basis is Basis.BINOMIAL
        assert h == TorusElement(spec, Basis.BINOMIAL, dict(h.terms))
        assert all(type(label) is ExponentVector for label in h.terms)
        assert all(x >= a for label in h.terms for x, a in zip(label.a + label.b, ev.a + ev.b))

    def test_matches_product_of_univariates(self):
        for spec in (TorusSpec(2, 1, 2, 1), TorusSpec(1, 2, 3, 1)):
            for ev in spec.labels():
                factors = [
                    idempotent_univariate(spec, "x", i + 1, ev.a[i]) for i in range(spec.m)
                ] + [
                    idempotent_univariate(spec, "y", j + 1, ev.b[j]) for j in range(spec.n)
                ]
                assert reduce(multiply, factors) == idempotent_h(spec, ev)


class TestOrthogonality:
    def test_exhaustive(self):
        for t in (
            (1, 1, 2, 1),
            (1, 1, 3, 1),
            (2, 1, 2, 1),
            (1, 1, 2, 2),
            (2, 1, 3, 1),
            (2, 2, 3, 1),
            (1, 1, 3, 2),
        ):
            spec = TorusSpec(*t)
            labels = list(spec.labels())
            hs = {ev: idempotent_h(spec, ev) for ev in labels}
            z = zero(spec)
            for u in labels:
                for v in labels:
                    expected = hs[u] if u == v else z
                    assert multiply(hs[u], hs[v]) == expected, (t, u, v)

    def test_completeness(self):
        for t in ((1, 1, 2, 1), (1, 1, 3, 1), (2, 1, 3, 1), (2, 2, 2, 1), (1, 1, 2, 2)):
            spec = TorusSpec(*t)
            total = reduce(add, (idempotent_h(spec, ev) for ev in spec.labels()))
            assert total == one(spec)


class TestEigenRelations:
    def test_coordinate_action(self):
        for t in ((1, 1, 2, 1), (1, 1, 3, 1), (2, 1, 3, 1), (2, 2, 2, 1)):
            spec = TorusSpec(*t)
            for ev in spec.labels():
                h = idempotent_h(spec, ev)
                for i in range(spec.m):
                    assert multiply_by_coordinate(h, "x", i + 1) == scale(ev.a[i], h)
                for j in range(spec.n):
                    assert multiply_by_coordinate(h, "y", j + 1) == scale(ev.b[j], h)

    def test_linear_action(self):
        spec = TorusSpec(1, 1, 2, 1)
        h10 = idempotent_h(spec, ExponentVector((1,), (0,)))
        h11 = idempotent_h(spec, ExponentVector((1,), (1,)))
        assert multiply_by_linear(h10, 1, 1) == h10
        assert multiply_by_linear(h11, 1, 1).is_zero()


class TestBasisChange:
    def test_point_evaluation_example(self):
        spec = TorusSpec(1, 0, 3, 1)
        f = monomial(spec, (1,), ())  # C(x, 1) evaluates to a mod 3
        coords = to_idempotent_basis(f)
        assert coords.terms == {
            ExponentVector((1,), ()): 1,
            ExponentVector((2,), ()): 2,
        }

    def test_one_becomes_all_ones(self):
        for t in ((1, 1, 2, 1), (2, 1, 3, 1)):
            spec = TorusSpec(*t)
            coords = to_idempotent_basis(one(spec))
            assert coords.terms == {ev: 1 for ev in spec.labels()}
            assert from_idempotent_basis(coords) == one(spec)

    def test_idempotent_has_delta_coordinates(self):
        spec = TorusSpec(2, 1, 2, 1)
        for ev in spec.labels():
            coords = to_idempotent_basis(idempotent_h(spec, ev))
            assert coords.terms == {ev: 1}

    def test_roundtrip_random(self):
        rng = random.Random(11)
        for t in ((1, 1, 2, 1), (1, 1, 3, 1), (2, 1, 2, 1), (1, 1, 2, 2)):
            spec = TorusSpec(*t)
            for _ in range(100):
                f = random_element(spec, rng, max_terms=4)
                assert from_idempotent_basis(to_idempotent_basis(f)) == f
                g = random_element(spec, rng, max_terms=4, basis=Basis.IDEMPOTENT)
                assert to_idempotent_basis(from_idempotent_basis(g)) == g

    def test_basis_tag_enforced(self):
        spec = TorusSpec(1, 1, 2, 1)
        with pytest.raises(MismatchError):
            to_idempotent_basis(zero(spec, Basis.IDEMPOTENT))
        with pytest.raises(MismatchError):
            from_idempotent_basis(one(spec))

    def test_evaluate_point_matches_coordinates(self):
        spec = TorusSpec(2, 1, 3, 1)
        rng = random.Random(12)
        for _ in range(10):
            f = random_element(spec, rng, max_terms=4)
            coords = to_idempotent_basis(f)
            for ev in spec.labels():
                assert evaluate_point(f, ev) == coords.coefficient(ev)


ORACLE_SPECS = DEFAULT_GRID + [(1, 1, 2, 3), (1, 1, 3, 2), (2, 0, 3, 1), (2, 1, 5, 1), (1, 1, 11, 1)]


def oracle_inputs(spec, basis, seed):
    """Ten random sparse elements, one dense one with N/8 terms, one with all
    N labels and the zero element."""
    rng = random.Random(seed)
    out = [random_element(spec, rng, max_terms=5, basis=basis) for _ in range(10)]
    labels = list(spec.labels())
    for support in (rng.sample(labels, max(1, spec.dimension // 8)), labels):
        out.append(TorusElement(spec, basis, {ev: rng.randrange(1, spec.p) for ev in support}))
    out.append(zero(spec, basis))
    return out


@pytest.mark.parametrize("t", ORACLE_SPECS)
class TestAgainstOracles:
    """The digit-pass transform against per-point evaluation and the sum of
    `idempotent_h` expansions."""

    def test_to_matches_evaluate_point(self, t):
        spec = TorusSpec(*t)
        for f in oracle_inputs(spec, Basis.BINOMIAL, 21):
            coords = to_idempotent_basis(f)
            assert coords.basis is Basis.IDEMPOTENT
            for ev in spec.labels():
                assert coords.coefficient(ev) == evaluate_point(f, ev), (t, ev)

    def test_from_matches_sum_of_idempotents(self, t):
        spec = TorusSpec(*t)
        for g in oracle_inputs(spec, Basis.IDEMPOTENT, 22):
            assert from_idempotent_basis(g) == from_idempotent_by_h(g)

    def test_round_trips(self, t):
        spec = TorusSpec(*t)
        for f in oracle_inputs(spec, Basis.BINOMIAL, 23):
            assert from_idempotent_basis(to_idempotent_basis(f)) == f
        for g in oracle_inputs(spec, Basis.IDEMPOTENT, 24):
            assert to_idempotent_basis(from_idempotent_basis(g)) == g

    def test_terms_in_label_order(self, t):
        spec = TorusSpec(*t)
        rank = {ev: i for i, ev in enumerate(spec.labels())}
        for f in oracle_inputs(spec, Basis.BINOMIAL, 25):
            order = [rank[ev] for ev in to_idempotent_basis(f).terms]
            assert order == sorted(order), t


class TestGoldens:
    # dense inputs with all 729 labels at (2,1,3,2), written next to the
    # outputs; the transforms must reproduce the outputs byte for byte
    @pytest.mark.parametrize(
        "name, change", [("to_idem", to_idempotent_basis), ("from_idem", from_idempotent_basis)]
    )
    def test_change_of_basis_matches_golden(self, name, change):
        f = element_from_json((DATA / f"{name}_2_1_3_2_in.json").read_text())
        assert len(f.terms) == f.spec.dimension
        out = element_to_json(change(f)) + "\n"
        assert out == (DATA / f"{name}_2_1_3_2.json").read_text()


class TestBinomialTable:
    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_pascal_rule_matches_comb(self, p):
        for q in range(1, 65):
            B = _binomial_table(p, q)
            assert type(B) is tuple and all(type(row) is tuple for row in B)
            assert B == tuple(tuple(comb(v, k) % p for k in range(q)) for v in range(q)), q


class TestDigitTables:
    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    def test_lucas_digit_binomials_and_inverse(self, p):
        B, B_inv = _digit_tables(p)
        assert B == tuple(tuple(binom_mod_p(v, k, p) for k in range(p)) for v in range(p))
        for k in range(p):
            for a in range(p):
                product = sum(B_inv[k][j] * B[j][a] for j in range(p)) % p
                assert product == (k == a), (p, k, a)


class TestIdempotentBasisProduct:
    def test_zero_one_coefficients_are_idempotent(self):
        spec = TorusSpec(1, 1, 3, 1)
        f = TorusElement(
            spec,
            Basis.IDEMPOTENT,
            {ExponentVector((0,), (1,)): 1, ExponentVector((2,), (2,)): 1},
        )
        assert multiply_idempotent_basis(f, f) == f

    def test_distinct_idempotents_orthogonal(self):
        spec = TorusSpec(1, 1, 2, 1)
        u = TorusElement(spec, Basis.IDEMPOTENT, {ExponentVector((0,), (0,)): 1})
        v = TorusElement(spec, Basis.IDEMPOTENT, {ExponentVector((1,), (0,)): 1})
        assert multiply_idempotent_basis(u, v).is_zero()

    def test_consistent_with_binomial_product(self):
        rng = random.Random(13)
        for t in ((1, 1, 2, 1), (1, 1, 3, 1), (2, 1, 2, 1)):
            spec = TorusSpec(*t)
            for _ in range(50):
                f = random_element(spec, rng, max_terms=4)
                g = random_element(spec, rng, max_terms=4)
                via_idempotent = from_idempotent_basis(
                    multiply_idempotent_basis(
                        to_idempotent_basis(f), to_idempotent_basis(g)
                    )
                )
                assert via_idempotent == multiply(f, g)

    def test_basis_tag_enforced(self):
        spec = TorusSpec(1, 1, 2, 1)
        with pytest.raises(MismatchError):
            multiply_idempotent_basis(one(spec), one(spec))
