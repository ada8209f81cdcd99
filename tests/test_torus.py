import json
import random

import pytest

from sstorus.torus import (
    MAX_PRINT_BITS,
    Basis,
    CapExceededError,
    ExponentVector,
    MismatchError,
    TorusElement,
    TorusSpec,
    add,
    element_from_dict,
    element_from_json,
    element_text,
    element_to_dict,
    element_to_json,
    multiply,
    multiply_by_coordinate,
    multiply_by_linear,
    one,
    printable_power,
    scale,
    zero,
)
from sstorus.idempotents import from_idempotent_basis, to_idempotent_basis
from sstorus.supersymmetry import phi
from util import (
    element_documents,
    integer_monomial_product,
    naive_multiply_terms,
    random_element,
    random_label,
)


def monomial(spec, a, b, c=1):
    return TorusElement(spec, Basis.BINOMIAL, {ExponentVector(a, b): c})


class TestSpec:
    def test_q_and_dimension(self):
        spec = TorusSpec(2, 1, 3, 2)
        assert spec.q == 9
        assert spec.dimension == 9**3

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            TorusSpec(0, 1, 2, 1)
        with pytest.raises(ValueError):
            TorusSpec(1, -1, 2, 1)
        with pytest.raises(ValueError):
            TorusSpec(1, 1, 4, 1)
        with pytest.raises(ValueError):
            TorusSpec(1, 1, 2, 0)

    def test_cap_guard(self):
        with pytest.raises(CapExceededError):
            TorusSpec(1, 1, 2, 30)
        with pytest.raises(CapExceededError):
            TorusSpec(1, 1, 2, 1, cap=3)

    def test_n_zero_allowed(self):
        spec = TorusSpec(2, 0, 3, 1)
        assert spec.dimension == 9

    def test_labels_lexicographic(self):
        spec = TorusSpec(1, 1, 2, 1)
        labels = list(spec.labels())
        assert labels == sorted(labels)
        assert len(labels) == 4

    def test_cap_not_part_of_identity(self):
        assert TorusSpec(1, 1, 2, 1) == TorusSpec(1, 1, 2, 1, cap=100)

    def test_slot_positions(self):
        spec = TorusSpec(2, 3, 2, 1)
        assert [spec.slot("x", i) for i in (1, 2)] == [0, 1]
        assert [spec.slot("y", j) for j in (1, 2, 3)] == [2, 3, 4]

    @pytest.mark.parametrize(
        "block, index, message",
        [
            ("x", 0, "x index 0 out of range 1..2"),
            ("x", 3, "x index 3 out of range 1..2"),
            ("y", 4, "y index 4 out of range 1..3"),
            ("z", 1, "block must be 'x' or 'y'"),
        ],
    )
    def test_slot_rejects(self, block, index, message):
        with pytest.raises(ValueError, match=message):
            TorusSpec(2, 3, 2, 1).slot(block, index)

    def test_cap_decided_from_bit_lengths(self):
        # q^(m+n) = 2^6000000000 would take minutes and gigabytes to form.
        with pytest.raises(CapExceededError, match=r"= 2\^6000000000 exceeds"):
            TorusSpec(1, 1, 2, 3_000_000_000)
        with pytest.raises(CapExceededError, match=r"= 1024 exceeds the label cap 1023"):
            TorusSpec(1, 1, 2, 5, cap=1023)
        assert TorusSpec(1, 1, 2, 5, cap=1024).dimension == 1024

    def test_printable_power(self):
        e = 8000  # then the largest e with 3^e within MAX_PRINT_BITS bits
        while (3 ** (e + 1)).bit_length() <= MAX_PRINT_BITS:
            e += 1
        assert printable_power(3, e) == 3**e
        assert printable_power(3, e + 1) is None
        assert printable_power(2, MAX_PRINT_BITS - 1) == 2 ** (MAX_PRINT_BITS - 1)
        assert printable_power(2, MAX_PRINT_BITS) is None
        assert printable_power(2, 10**12) is None

    def test_primality_checked_before_cap(self):
        with pytest.raises(ValueError, match="not prime") as info:
            TorusSpec(1, 1, 2**61 + 1, 1)
        assert not isinstance(info.value, CapExceededError)


class TestElementBasics:
    def test_normalization_drops_zeros(self):
        spec = TorusSpec(1, 1, 3, 1)
        f = TorusElement(spec, Basis.BINOMIAL, {ExponentVector((1,), (0,)): 3})
        assert f.is_zero()

    def test_label_entries_must_be_int(self):
        for a, b in [((1.7,), (True,)), ((1,), (False,)), ((1.0,), (0,)), ((1,), ("0",))]:
            with pytest.raises(ValueError, match="must be integers"):
                ExponentVector(a, b)
        ev = ExponentVector([1, 2], [0])
        assert (ev.a, ev.b) == ((1, 2), (0,))
        assert ev == ExponentVector((1, 2), (0,))

    def test_label_validation(self):
        spec = TorusSpec(1, 1, 2, 1)
        with pytest.raises(ValueError):
            TorusElement(spec, Basis.BINOMIAL, {ExponentVector((2,), (0,)): 1})

    def test_equality_includes_basis(self):
        spec = TorusSpec(1, 1, 2, 1)
        ev = ExponentVector((1,), (0,))
        f = TorusElement(spec, Basis.BINOMIAL, {ev: 1})
        g = TorusElement(spec, Basis.IDEMPOTENT, {ev: 1})
        assert f != g

    def test_add_identities(self):
        spec = TorusSpec(2, 1, 3, 1)
        rng = random.Random(1)
        for _ in range(20):
            f = random_element(spec, rng)
            assert add(f, zero(spec)) == f
            assert scale(0, f) == zero(spec)
            assert add(f, scale(spec.p - 1, f)) == zero(spec)

    def test_mismatch_errors(self):
        f = one(TorusSpec(1, 1, 2, 1))
        g = one(TorusSpec(1, 1, 3, 1))
        with pytest.raises(MismatchError):
            add(f, g)
        h = zero(TorusSpec(1, 1, 2, 1), Basis.IDEMPOTENT)
        with pytest.raises(MismatchError):
            add(f, h)
        with pytest.raises(MismatchError):
            multiply(f, h)


class TestMonoProduct:
    """C(x, k_a) C(x, k_b) in one variable, through `multiply`."""

    @staticmethod
    def product(k_a, k_b, spec):
        f = multiply(monomial(spec, (k_a,), (0,)), monomial(spec, (k_b,), (0,)))
        return {ev.a[0]: c for ev, c in f.terms.items()}

    def test_examples(self):
        assert self.product(1, 1, TorusSpec(1, 1, 3, 1)) == {2: 2, 1: 1}
        assert self.product(1, 1, TorusSpec(1, 1, 2, 1)) == {1: 1}
        assert self.product(1, 2, TorusSpec(1, 1, 5, 1)) == {3: 3, 2: 2}

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            self.product(2, 0, TorusSpec(1, 1, 2, 1))


class TestMultiply:
    def test_one_is_neutral(self):
        spec = TorusSpec(2, 1, 3, 1)
        rng = random.Random(2)
        for _ in range(20):
            f = random_element(spec, rng)
            assert multiply(one(spec), f) == f

    def test_x_squared_p2(self):
        spec = TorusSpec(1, 1, 2, 1)
        x = monomial(spec, (1,), (0,))
        assert multiply(x, x) == x

    def test_distinct_variables_no_cross_terms(self):
        spec = TorusSpec(1, 1, 3, 1)
        x = monomial(spec, (1,), (0,))
        y = monomial(spec, (0,), (1,))
        assert multiply(x, y) == monomial(spec, (1,), (1,))

    def test_commutative_associative(self):
        rng = random.Random(3)
        for spec in (TorusSpec(1, 1, 2, 2), TorusSpec(2, 1, 3, 1)):
            for _ in range(25):
                f = random_element(spec, rng)
                g = random_element(spec, rng)
                h = random_element(spec, rng)
                assert multiply(f, g) == multiply(g, f)
                assert multiply(multiply(f, g), h) == multiply(f, multiply(g, h))

    def test_against_naive_reference(self):
        rng = random.Random(4)
        for spec in (TorusSpec(1, 1, 3, 1), TorusSpec(2, 2, 2, 1), TorusSpec(1, 1, 2, 2)):
            for _ in range(30):
                f = random_element(spec, rng)
                g = random_element(spec, rng)
                assert multiply(f, g).terms == naive_multiply_terms(f, g)

    def test_truncation_soundness(self):
        rng = random.Random(5)
        for spec in (TorusSpec(1, 1, 2, 1), TorusSpec(1, 1, 3, 1), TorusSpec(2, 1, 2, 2)):
            q, p = spec.q, spec.p
            for _ in range(200):
                u = random_label(spec, rng)
                v = random_label(spec, rng)
                exact = integer_monomial_product(u, v)
                product = multiply(monomial(spec, u.a, u.b), monomial(spec, v.a, v.b))
                for key, c in exact.items():
                    ev = ExponentVector(key[: spec.m], key[spec.m :])
                    if all(e < q for e in key):
                        assert product.coefficient(ev) == c % p
                    else:
                        # dropped summand must be invisible mod p
                        assert c % p == 0, (u, v, key, c)


class TestCoordinateMultiplication:
    def test_recurrence_example(self):
        spec = TorusSpec(1, 1, 3, 1)
        f = monomial(spec, (1,), (0,))
        expected = add(
            scale(2, monomial(spec, (2,), (0,))), monomial(spec, (1,), (0,))
        )
        assert multiply_by_coordinate(f, "x", 1) == expected

    def test_on_unit(self):
        spec = TorusSpec(1, 1, 3, 1)
        assert multiply_by_coordinate(one(spec), "x", 1) == monomial(spec, (1,), (0,))

    def test_top_exponent_truncates(self):
        for spec in (TorusSpec(1, 1, 2, 1), TorusSpec(1, 1, 3, 1), TorusSpec(1, 1, 2, 2)):
            q = spec.q
            f = monomial(spec, (q - 1,), (0,))
            assert multiply_by_coordinate(f, "x", 1) == scale(q - 1, f)

    def test_bad_index(self):
        spec = TorusSpec(1, 1, 2, 1)
        with pytest.raises(ValueError):
            multiply_by_coordinate(one(spec), "x", 2)
        with pytest.raises(ValueError):
            multiply_by_coordinate(one(spec), "z", 1)

    def test_linear_on_unit(self):
        spec = TorusSpec(1, 1, 3, 1)
        expected = add(monomial(spec, (1,), (0,)), monomial(spec, (0,), (1,)))
        assert multiply_by_linear(one(spec), 1, 1) == expected

    def test_linear_agrees_with_monomial_products(self):
        rng = random.Random(6)
        spec = TorusSpec(2, 2, 3, 1)
        x2 = monomial(spec, (0, 1), (0, 0))
        y1 = monomial(spec, (0, 0), (1, 0))
        for _ in range(25):
            f = random_element(spec, rng)
            expected = naive_multiply_terms(add(x2, y1), f)
            assert multiply_by_linear(f, 2, 1).terms == expected


class TestOperators:
    def test_arithmetic_operators(self):
        spec = TorusSpec(1, 1, 3, 1)
        rng = random.Random(9)
        for _ in range(10):
            f = random_element(spec, rng)
            g = random_element(spec, rng)
            assert f + g == add(f, g)
            assert f - g == add(f, scale(-1, g))
            assert -f == scale(-1, f)
            assert 2 * f == scale(2, f)
            assert f * g == multiply(f, g)

    def test_idempotent_operator_dispatch(self):
        from sstorus.idempotents import multiply_idempotent_basis

        spec = TorusSpec(1, 1, 3, 1)
        rng = random.Random(10)
        f = random_element(spec, rng, basis=Basis.IDEMPOTENT)
        g = random_element(spec, rng, basis=Basis.IDEMPOTENT)
        assert f * g == multiply_idempotent_basis(f, g)


NORMALISATION_SPECS = [
    TorusSpec(1, 1, 2, 1),
    TorusSpec(1, 1, 2, 2),
    TorusSpec(2, 1, 3, 1),
    TorusSpec(1, 1, 3, 2),
    TorusSpec(2, 2, 5, 1),
]


def assert_normalised(f):
    p = f.spec.p
    assert all(type(c) is int and 0 < c < p for c in f.terms.values()), f


class TestNormalisation:
    """Every operation returns coefficients in [1, p) and drops zeros."""

    @pytest.mark.parametrize("spec", NORMALISATION_SPECS, ids=repr)
    def test_random_operands(self, spec):
        rng = random.Random(spec.dimension)
        p, m, n = spec.p, spec.m, spec.n
        for _ in range(8):
            f = random_element(spec, rng, max_terms=4)
            g = random_element(spec, rng, max_terms=4)
            fi, gi = to_idempotent_basis(f), to_idempotent_basis(g)
            results = [add(f, g), f - g, multiply(f, g), fi, fi * gi, fi + gi]
            results += [scale(c, f) for c in (-1, 2, p + 1, 7 * p - 1)]
            results += [multiply_by_coordinate(f, "x", i) for i in range(1, m + 1)]
            results += [multiply_by_coordinate(f, "y", j) for j in range(1, n + 1)]
            results += [phi(f, i, j) for i in range(1, m + 1) for j in range(1, n + 1)]
            results.append(from_idempotent_basis(add(fi, gi)))
            for result in results:
                assert_normalised(result)

    @pytest.mark.parametrize("spec", NORMALISATION_SPECS, ids=repr)
    def test_cancelling_operands_give_empty_terms(self, spec):
        rng = random.Random(spec.dimension + 1)
        p = spec.p
        for _ in range(8):
            f = random_element(spec, rng, max_terms=4)
            fi = to_idempotent_basis(f)
            assert add(f, scale(p - 1, f)).terms == {}
            assert (fi - fi).terms == {}
            assert scale(p, f).terms == {}
            assert multiply(f, zero(spec)).terms == {}
        assert phi(one(spec), 1, 1).terms == {}
        # the idempotents sum to 1, so every other label cancels
        units = TorusElement(spec, Basis.IDEMPOTENT, {ev: 1 for ev in spec.labels()})
        assert from_idempotent_basis(units) == one(spec)
        # x (C(x, 1) - 1) = 2 C(x, 2): the C(x, 1) terms cancel
        zero_b = (0,) * spec.n
        x_minus_one = add(
            monomial(spec, (1,) + (0,) * (spec.m - 1), zero_b),
            monomial(spec, (0,) * spec.m, zero_b, p - 1),
        )
        expected = (
            monomial(spec, (2,) + (0,) * (spec.m - 1), zero_b, 2)
            if spec.q > 2
            else zero(spec)
        )
        assert multiply_by_coordinate(x_minus_one, "x", 1) == expected


class TestJson:
    def test_roundtrip(self):
        rng = random.Random(7)
        for spec in (TorusSpec(2, 1, 3, 1), TorusSpec(1, 1, 2, 2)):
            for basis in (Basis.BINOMIAL, Basis.IDEMPOTENT):
                for _ in range(10):
                    f = random_element(spec, rng, basis=basis)
                    assert element_from_json(element_to_json(f)) == f

    @pytest.mark.parametrize("pad", ["", "  ", "\t"])
    def test_element_text_matches_json_dumps(self, pad):
        rng = random.Random(9)
        docs = element_documents() + [
            element_to_dict(random_element(spec, rng, max_terms=5, basis=basis))
            for spec in (TorusSpec(2, 2, 3, 1), TorusSpec(1, 1, 7, 2))
            for basis in (Basis.BINOMIAL, Basis.IDEMPOTENT)
        ]
        for doc in docs:
            assert element_text(doc, pad) == json.dumps(doc, indent=2).replace("\n", "\n" + pad)

    def test_terms_sorted_and_coefficients_in_range(self):
        spec = TorusSpec(2, 1, 3, 1)
        f = random_element(spec, random.Random(8), max_terms=6)
        data = element_to_dict(f)
        keys = [(tuple(t["a"]), tuple(t["b"])) for t in data["terms"]]
        assert keys == sorted(keys)
        assert all(0 < t["c"] < spec.p for t in data["terms"])
        assert data["basis"] == "binomial"

    def test_rejects_out_of_range_coefficient(self):
        spec = TorusSpec(1, 1, 3, 1)
        data = element_to_dict(one(spec))
        data["terms"][0]["c"] = 3
        with pytest.raises(ValueError):
            element_from_dict(data)

    def test_rejects_malformed(self):
        with pytest.raises(ValueError):
            element_from_dict({"m": 1, "n": 1, "p": 2})
        with pytest.raises(ValueError):
            element_from_json(json.dumps({"m": 1, "n": 1, "p": 2, "r": 1, "basis": "other", "terms": []}))
