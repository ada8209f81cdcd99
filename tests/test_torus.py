import copy
import gc
import itertools
import json
import os
import pickle
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from sstorus.torus import (
    DEFAULT_CAP,
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
    one,
    printable_power,
    scale,
    zero,
    PRODUCT_CACHE_TERMS,
    PRODUCT_TERMS_MAX,
    BLOCK_MAP_SIZE,
    _BlockMap,
    _block_map,
    _element,
    _flat,
    _labels,
    _products,
)
from sstorus import idempotents, torus
from sstorus.idempotents import (
    from_idempotent_basis,
    multiply_idempotent_basis,
    to_idempotent_basis,
)
from sstorus.supersymmetry import is_multiple_of_linear, phi, shift_substitute
from sstorus.ss_basis import build_Ha, class_sums
from util import (
    element_documents,
    integer_monomial_product,
    multiply_by_coordinate,
    multiply_by_linear,
    naive_multiply_terms,
    random_element,
    random_label,
)

SRC = Path(__file__).resolve().parents[1] / "src"


def monomial(spec, a, b, c=1):
    return TorusElement(spec, Basis.BINOMIAL, {ExponentVector(a, b): c})


def cached(spec, t1, t2) -> bool:
    """Whether the product of the monomials at flat indices t1 and t2 of
    `spec` is in the product cache: the map of (p, q, m + n), key t1 N + t2."""
    return t1 * spec.dimension + t2 in _products.get((spec.p, spec.q, spec.m + spec.n), {})


def cached_terms() -> int:
    return sum(len(product) for cache in _products.values() for product in cache.values())


def decoded(a, b, q=13):
    """The label (a | b) as the library decodes it from its flat index."""
    return _labels(TorusSpec(len(a), len(b), q, 1), [_flat((a, b), q)])[0]


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
        spec = TorusSpec(2, 1, 3, 2)
        assert spec != (2, 1, 3, 2)
        assert spec != TorusSpec(2, 1, 3, 1)
        assert {spec: 1}[TorusSpec(2, 1, 3, 2, cap=10**9)] == 1

    def test_stored_q_not_part_of_identity(self):
        spec = TorusSpec(2, 1, 3, 2)
        assert repr(spec) == "TorusSpec(m=2, n=1, p=3, r=2)"
        assert hash(spec) == hash(TorusSpec(2, 1, 3, 2, cap=10**9))
        with pytest.raises(TypeError):
            TorusSpec(2, 1, 3, 2, q=9)

    @pytest.mark.parametrize("field", ["m", "n", "p", "r", "cap"])
    @pytest.mark.parametrize("bad", [float, bool])
    def test_rejects_non_integers(self, field, bad):
        # A float or bool of a valid value, or 1.5 for a float: the type is
        # checked before any range or cap check could pass or coerce it.
        fields = {"m": 1, "n": 1, "p": 2, "r": 1, "cap": 100}
        fields[field] = 1.5 if bad is float and field == "m" else bad(fields[field])
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            TorusSpec(**fields)

    def test_keyword_construction(self):
        spec = TorusSpec(m=2, n=1, p=3, r=1, cap=100)
        assert (spec.m, spec.n, spec.p, spec.r, spec.cap, spec.q) == (2, 1, 3, 1, 100, 3)
        assert TorusSpec(2, 1, 3, 1).cap == DEFAULT_CAP

    def test_immutable(self):
        spec = TorusSpec(2, 1, 3, 2)
        with pytest.raises(AttributeError):
            spec.m = 3
        with pytest.raises(AttributeError):
            del spec.m
        with pytest.raises(AttributeError):
            spec.q = 1
        assert (spec.m, spec.q) == (2, 9)

    def test_copies_keep_every_field(self):
        spec = TorusSpec(2, 1, 3, 2, cap=1000)
        protocols = range(pickle.HIGHEST_PROTOCOL + 1)
        copies = [pickle.loads(pickle.dumps(spec, proto)) for proto in protocols]
        for twin in copies + [copy.copy(spec), copy.deepcopy(spec)]:
            assert type(twin) is TorusSpec and twin == spec
            assert (twin.m, twin.n, twin.p, twin.r, twin.cap, twin.q) == (2, 1, 3, 2, 1000, 9)

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
            ("x", True, "x index must be an integer, got True"),
            ("x", 1.0, "x index must be an integer, got 1.0"),
            ("y", 2.5, "y index must be an integer, got 2.5"),
            ("y", "1", "y index must be an integer, got '1'"),
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

    def test_coefficients_must_be_int(self):
        spec = TorusSpec(1, 1, 5, 1)
        ev = ExponentVector((1,), (2,))
        f = TorusElement(spec, Basis.BINOMIAL, {ev: 3})
        for c in (3.9, True, 3.0, Fraction(3)):
            with pytest.raises(ValueError, match="must be integers"):
                TorusElement(spec, Basis.BINOMIAL, {ev: c})
        for make in (
            lambda: f * 0.5,
            lambda: 0.5 * f,
            lambda: f * 2.5,
            lambda: f * True,
            lambda: scale(Fraction(1, 2), f),
            lambda: scale(False, f),
        ):
            with pytest.raises(ValueError, match="must be integers"):
                make()

    def test_coefficients_reduce_mod_p(self):
        spec = TorusSpec(1, 1, 5, 1)
        ev = ExponentVector((1,), (2,))
        for c, reduced in ((-1, 4), (-7, 3), (5, None), (12, 2), (5**40 + 1, 1)):
            f = TorusElement(spec, Basis.BINOMIAL, {ev: c})
            assert f.terms == ({ev: reduced} if reduced else {})
        f = TorusElement(spec, Basis.BINOMIAL, {ev: 3})
        assert (f * -1).terms == (-1 * f).terms == {ev: 2}
        assert scale(7, f).terms == {ev: 1}

    def test_str_of_elements(self):
        # A label is a tuple, so `%` would unpack it: str must format it whole.
        spec = TorusSpec(2, 1, 3, 1)
        terms = {ExponentVector((1, 1), (2,)): 5, ExponentVector((0, 1), (0,)): 1}
        assert str(TorusElement(spec, Basis.BINOMIAL, terms)) == "m(0,1|0) + 2*m(1,1|2)"
        assert str(TorusElement(spec, Basis.IDEMPOTENT, terms)) == "h(0,1|0) + 2*h(1,1|2)"
        n0 = TorusElement(TorusSpec(2, 0, 5, 1), Basis.BINOMIAL, {ExponentVector((3, 0), ()): 4})
        assert str(n0) == "4*m(3,0|)"
        assert str(zero(spec)) == "0"

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

    @pytest.mark.parametrize(
        "spec",
        [TorusSpec(*t) for t in ((1, 0, 7, 1), (2, 0, 3, 1), (1, 1, 2, 3), (2, 1, 2, 3), (2, 2, 2, 2))],
        ids=repr,
    )
    def test_flat_index_product_against_naive(self, spec):
        rng = random.Random(spec.dimension + spec.q)
        for k in (1, 3, 8):
            for _ in range(4):
                f = random_element(spec, rng, max_terms=k)
                g = random_element(spec, rng, max_terms=k)
                assert multiply(f, g).terms == naive_multiply_terms(f, g)

    def test_sparse_product_at_large_q(self):
        # Entries near 0 or near q - 1, paired so that no coordinate meets two
        # middle entries: the untruncated oracle stays small.
        spec = TorusSpec(1, 1, 997, 1)
        rng = random.Random(997)

        def entry(tops: bool) -> int:
            e = rng.randrange(20)
            return spec.q - 1 - e if tops and rng.random() < 0.5 else e

        def element(x_tops: bool) -> TorusElement:
            labels = [ExponentVector((entry(x_tops),), (entry(not x_tops),)) for _ in range(5)]
            return TorusElement(spec, Basis.BINOMIAL, {ev: 1 + rng.randrange(996) for ev in labels})

        for _ in range(3):
            f, g = element(False), element(True)
            fg = multiply(f, g)
            assert fg.terms == naive_multiply_terms(f, g)
            assert fg == multiply(g, f)
            assert_like_public(fg)

    @pytest.mark.parametrize("t", [(2, 1, 3, 2), (2, 2, 5, 1)])
    def test_dense_times_sparse_against_naive(self, t):
        # N/8 terms times 8 terms, the shapes of the benchmark's products
        spec = TorusSpec(*t)
        rng = random.Random(sum(t) * 13)
        N = spec.dimension
        for _ in range(2):
            f, g = (
                _element(spec, Basis.BINOMIAL, [(u, rng.randrange(1, spec.p)) for u in support])
                for support in (rng.sample(range(N), -(-N // 8)), rng.sample(range(N), 8))
            )
            assert multiply(f, g).terms == naive_multiply_terms(f, g)
            assert multiply(g, f) == multiply(f, g)

    def test_sparse_product_at_large_q_against_naive(self):
        # (2,0,3137,1), N = 3137^2: one operand's entries anywhere, the
        # other's below 40, so the untruncated oracle stays small
        spec = TorusSpec(2, 0, 3137, 1)
        rng = random.Random(3137)

        def element(top: int) -> TorusElement:
            labels = [ExponentVector((rng.randrange(top), rng.randrange(top)), ()) for _ in range(3)]
            return TorusElement(spec, Basis.BINOMIAL, {ev: rng.randrange(1, 3137) for ev in labels})

        for _ in range(3):
            f, g = element(spec.q), element(40)
            assert multiply(f, g).terms == naive_multiply_terms(f, g)

    def test_product_cache_keyed_by_label_length(self, monkeypatch):
        # The same flat indices name different labels in specs with equal
        # (p, q) and different m + n, with the same p and another q, and with
        # another p; the cached products must match the oracle whichever spec
        # filled them.  By Lucas's theorem a product on flat indices depends on
        # p alone, so only a key that fixes neither p nor q would go wrong.
        # Within one map the int key t1 N + t2 names one pair, as t2 < N.
        specs = [TorusSpec(1, 0, 3, 1), TorusSpec(1, 1, 3, 1), TorusSpec(2, 1, 3, 1)]
        specs += [TorusSpec(1, 2, 3, 1), TorusSpec(1, 1, 3, 2), TorusSpec(2, 0, 3, 2)]
        specs += [TorusSpec(1, 1, 2, 2), TorusSpec(1, 1, 5, 1)]
        _products.clear()
        monkeypatch.setattr("sstorus.torus._product_terms", 0)
        for filled in (False, True):
            for t1, t2 in itertools.product(range(9), repeat=2):
                for spec in specs:
                    if max(t1, t2) < spec.dimension:
                        assert cached(spec, t1, t2) or not filled
                        f, g = (monomial(spec, *_labels(spec, [t])[0]) for t in (t1, t2))
                        assert multiply(f, g).terms == naive_multiply_terms(f, g), (spec, t1, t2)
        assert sorted(_products) == sorted({(s.p, s.q, s.m + s.n) for s in specs})

    def test_sparse_product_decodes_only_its_labels(self):
        # Tables of all q^m blocks would hold 50,653 tuples here, about 5 MB.
        spec = TorusSpec(3, 0, 37, 1)
        f, g = monomial(spec, (1, 30, 2), ()), monomial(spec, (3, 4, 0), ())
        tracemalloc.start()
        try:
            fg = multiply(f, g)
            labelled, text, doc = dict(fg.terms), str(fg), element_to_dict(fg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert labelled == naive_multiply_terms(f, g) and len(labelled) == 2 * 5 * 1
        assert text.startswith("m(3,30,2|) + 32*m(3,31,2|)") and len(doc["terms"]) == 10
        assert peak < 200_000

    def test_large_products_are_not_cached(self):
        # At (1,1,211,1) the middle monomials multiply to about 106^2 terms.
        spec = TorusSpec(1, 1, 211, 1)
        big, small = monomial(spec, (105,), (105,)), monomial(spec, (2,), (3,))
        t = 105 * 211 + 105
        product = multiply(big, big)
        assert len(product.terms) > PRODUCT_TERMS_MAX and not cached(spec, t, t)
        assert multiply(big, big) == product and not cached(spec, t, t)
        multiply(small, big)
        assert cached(spec, 2 * 211 + 3, t)

    def test_product_cache_holds_a_bounded_number_of_terms(self):
        # Squares of (u | v) have (u + 1)(v + 1) <= 64^2 terms each, all kept
        # alone, and 315,000 in all.
        spec = TorusSpec(1, 1, 211, 1)
        total = 0
        for u in range(40, 64):
            for v in range(60, 64):
                t = u * 211 + v
                total += len(multiply(monomial(spec, (u,), (v,)), monomial(spec, (u,), (v,))).coeffs)
                assert cached(spec, t, t)
                assert cached_terms() <= PRODUCT_CACHE_TERMS
        assert total == 315_000 > PRODUCT_CACHE_TERMS


def seeded_element(spec, rng, k):
    """k binomial terms at distinct seeded labels, coefficients in [1, p)."""
    support = rng.sample(range(spec.dimension), k)
    return _element(spec, Basis.BINOMIAL, [(t, rng.randrange(1, spec.p)) for t in support])


def pair_terms(spec, t1, t2) -> int:
    """The terms the product of the monomials at flat indices t1 and t2
    has: those of `integer_monomial_product` below q and nonzero mod p."""
    u, v = _labels(spec, [t1, t2])
    return sum(
        1
        for key, c in integer_monomial_product(u, v).items()
        if c % spec.p and all(e < spec.q for e in key)
    )


def row_starts(f, g) -> list:
    """The terms expanded before each row of f's pairs with g plus the
    pairs from it on, the work `multiply` tests against 3 (m + n) r N."""
    spent, left, starts = 0, len(f.coeffs) * len(g.coeffs), []
    for t1 in f.coeffs:
        starts.append(spent + left)
        spent += sum(pair_terms(f.spec, t1, t2) for t2 in g.coeffs)
        left -= len(g.coeffs)
    return starts


def takes_idempotent_route(f, g) -> bool:
    """Whether some row of f's pairs with g starts where the terms expanded
    before it plus the pairs from it on pass 3 (m + n) r N, and the three
    changes of basis with every digit live are within `MAX_CHANGE_WORK`."""
    spec = f.spec
    passes = (spec.m + spec.n) * spec.r
    work = passes * spec.dimension * (spec.p + 1) // 2
    past = max(row_starts(f, g)) > 3 * passes * spec.dimension
    return past and work <= idempotents.MAX_CHANGE_WORK


@pytest.fixture
def conversions(monkeypatch):
    """The elements `multiply` hands to `to_idempotent_basis`."""
    converted = []
    convert = idempotents.to_idempotent_basis

    def counting(f):
        converted.append(f)
        return convert(f)

    monkeypatch.setattr(idempotents, "to_idempotent_basis", counting)
    return converted


class TestDenseProduct:
    """Once the terms its pairs have expanded to plus the pairs left pass
    3 (m + n) r N, `multiply` goes through idempotent coordinates if the
    changes of basis are within their work bound; the product is unique, so
    it must not change."""

    # At (2,1,2,1) every pair is one term, 64 in all, below 3 * 3 * 8.
    @pytest.mark.parametrize(
        "t, routes",
        [
            ((1, 1, 3, 1), {False, True}),
            ((1, 1, 2, 2), {False, True}),
            ((2, 1, 2, 1), {False}),
            ((1, 0, 7, 1), {False, True}),
        ],
    )
    def test_both_routes_against_naive(self, conversions, t, routes):
        spec = TorusSpec(*t)
        N = spec.dimension
        rng = random.Random(sum(t) * 29)
        seen = set()
        # dense x dense, dense x sparse both ways, and sparse x sparse
        for k1, k2 in [(N, N), (N, 2), (2, N), (N, 1), (1, N), (3, 3), (N // 2, N // 2)]:
            f, g = seeded_element(spec, rng, k1), seeded_element(spec, rng, k2)
            conversions.clear()
            fg = multiply(f, g)
            assert fg.terms == naive_multiply_terms(f, g), (k1, k2)
            route = takes_idempotent_route(f, g)
            assert len(conversions) == 2 * route, (k1, k2)
            seen.add(route)
            assert multiply(g, f) == fg
        assert seen == routes

    @pytest.mark.parametrize("t", [(2, 2, 5, 1), (2, 1, 3, 2)])
    def test_benchmark_shapes_stay_pairwise(self, conversions, t):
        # algebra-ops multiplies 8-term elements and N/8 by 8 terms; the
        # pairwise loop is as fast as the changes of basis there or faster.
        spec = TorusSpec(*t)
        rng = random.Random(sum(t))
        dense = -(-spec.dimension // 8)
        for k1, k2 in [(8, 8), (dense, 8), (8, dense)]:
            f, g = seeded_element(spec, rng, k1), seeded_element(spec, rng, k2)
            assert multiply(f, g).terms == naive_multiply_terms(f, g)
        assert conversions == []

    @pytest.mark.parametrize("t", [(2, 1, 3, 2), (2, 2, 5, 1)])
    def test_cold_dense_product_expands_no_pair(self, conversions, monkeypatch, t):
        # N^2 pairs are past 3 (m + n) r N before the first row, and a cache
        # miss costs 1-10 us against 130-190 ns for a cached term.
        spec = TorusSpec(*t)
        rng = random.Random(sum(t))
        f, g = (seeded_element(spec, rng, spec.dimension) for _ in range(2))
        _products.clear()
        monkeypatch.setattr("sstorus.torus._product_terms", 0)
        expanded = []
        product = torus._monomial_product
        monkeypatch.setattr(torus, "_monomial_product", lambda *a: expanded.append(a) or product(*a))
        fg = multiply(f, g)
        assert expanded == [] and len(conversions) == 2
        for ev in _labels(spec, rng.sample(range(spec.dimension), 16)):
            expected = idempotents.evaluate_point(f, ev) * idempotents.evaluate_point(g, ev)
            assert idempotents.evaluate_point(fg, ev) == expected % spec.p

    def test_dense_product_at_101_by_points(self):
        # 10,201 terms each: about 10^8 pairs of terms, hours pairwise; two
        # changes of basis and a pointwise product take milliseconds.
        code = (
            "import random, time\n"
            "from sstorus.idempotents import evaluate_point\n"
            "from sstorus.torus import Basis, TorusSpec, _element, _labels, multiply\n"
            "spec, rng = TorusSpec(1, 1, 101, 1), random.Random(101)\n"
            "f, g = (_element(spec, Basis.BINOMIAL, [(t, rng.randrange(1, 101))"
            " for t in range(spec.dimension)]) for _ in range(2))\n"
            "start = time.perf_counter()\n"
            "fg = multiply(f, g)\n"
            "assert time.perf_counter() - start < 1\n"
            "for ev in _labels(spec, rng.sample(range(spec.dimension), 16)):\n"
            "    assert evaluate_point(fg, ev) == evaluate_point(f, ev) * evaluate_point(g, ev) % 101\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            timeout=20,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert proc.returncode == 0, proc.stderr

    def test_few_pairs_of_many_terms_take_the_idempotent_route(self, conversions):
        # 296 x 300 pairs of exponents below 18 expand to millions of terms,
        # 2 s pairwise; the switch comes once they and the pairs left pass
        # 3 * 2 * 211^2.
        spec = TorusSpec(2, 0, 211, 1)
        rng = random.Random(211)
        low = [a * spec.q + b for a in range(18) for b in range(18)]
        f, g = (
            _element(spec, Basis.BINOMIAL, [(t, rng.randrange(1, 211)) for t in rng.sample(low, k)])
            for k in (296, 300)
        )
        fg = multiply(f, g)
        assert len(conversions) == 2
        for ev in _labels(spec, rng.sample(range(spec.dimension), 16)):
            expected = idempotents.evaluate_point(f, ev) * idempotents.evaluate_point(g, ev)
            assert idempotents.evaluate_point(fg, ev) == expected % 211

    def test_past_the_change_work_bound_stays_pairwise(self, conversions, monkeypatch):
        # A dense element at (1,1,13,1) costs 13 * 14 / 2 * 13 per pass, two
        # passes each way; one unit below that, the product stays pairwise.
        spec = TorusSpec(1, 1, 13, 1)
        rng = random.Random(13)
        f, g = (seeded_element(spec, rng, spec.dimension) for _ in range(2))
        fg = multiply(f, g)
        assert len(conversions) == 2
        conversions.clear()
        monkeypatch.setattr(idempotents, "MAX_CHANGE_WORK", 2 * 13 * 14 // 2 * 13 - 1)
        assert multiply(f, g) == fg
        assert conversions == []

    def test_large_p_past_the_switch_stays_pairwise(self, conversions):
        # At (1,0,63247,1) a change of basis of a dense element is 63,247 *
        # 63,248 / 2 > MAX_CHANGE_WORK, so the about 243,000 terms of these
        # 90 x 90 pairs, past 3 * 63,247, are summed pairwise.
        spec = TorusSpec(1, 0, 63247, 1)
        assert spec.dimension * (spec.p + 1) // 2 > idempotents.MAX_CHANGE_WORK
        rng = random.Random(63247)
        f, g = (
            _element(spec, Basis.BINOMIAL, [(t, rng.randrange(1, spec.p)) for t in range(90)])
            for _ in range(2)
        )
        rows = list(f.coeffs)[:-1]
        assert sum(pair_terms(spec, t1, t2) for t1 in rows for t2 in g.coeffs) > 3 * spec.p
        assert multiply(f, g).terms == naive_multiply_terms(f, g)
        assert conversions == []


@pytest.fixture
def list_reads(monkeypatch):
    """The lists of sums `multiply` reads out: it reads one through
    `itertools.compress`, and nothing else in `torus` calls that."""
    reads = []

    class Spy:
        def __getattr__(self, name):
            return getattr(itertools, name)

        def compress(self, data, selectors):
            reads.append(selectors)
            return itertools.compress(data, selectors)

    monkeypatch.setattr(torus, "itertools", Spy())
    return reads


class TestListAccumulator:
    """From 4 |f| |g| >= N pairs on, `multiply` sums into a list of N ints,
    below that into a map; the product must not change."""

    # (k1, k2) just below and at or above N/4 pairs; at (1,1,101,1) the
    # exponents stay below 10, so the oracle stays small.
    @pytest.mark.parametrize(
        "t, below, above",
        [
            ((2, 1, 3, 2), (182, 1), (183, 1)),
            ((2, 2, 5, 1), (78, 2), (157, 1)),
            ((1, 0, 7, 1), (1, 1), (2, 1)),
            ((1, 1, 101, 1), (50, 51), (88, 29)),
        ],
    )
    def test_both_sides_of_the_list_bound(self, conversions, list_reads, t, below, above):
        spec = TorusSpec(*t)
        N, top = spec.dimension, min(spec.q, 10)
        pool = [u for u, ev in enumerate(spec.labels()) if max(ev.a + ev.b) < top]
        rng = random.Random(sum(t) * 31)
        for k1, k2 in (below, above):
            f, g = (
                _element(spec, Basis.BINOMIAL, [(u, rng.randrange(1, spec.p)) for u in s])
                for s in (rng.sample(pool, k1), rng.sample(pool, k2))
            )
            for x, y in ((f, g), (g, f)):
                list_reads.clear()
                assert multiply(x, y).terms == naive_multiply_terms(x, y), (k1, k2)
                on_list = 4 * k1 * k2 >= N
                assert [len(acc) for acc in list_reads] == [N] * on_list
        assert conversions == []

    def test_list_product_switches_mid_loop(self, conversions, list_reads):
        # 729 x 18 pairs are 3 * 3 * 2 * 729 exactly: the first row runs on
        # the list, and the terms it expands pass the bound at a later row.
        spec = TorusSpec(2, 1, 3, 2)
        rng = random.Random(18)
        f, g = (seeded_element(spec, rng, k) for k in (spec.dimension, 18))
        starts, bound = row_starts(f, g), 3 * 3 * 2 * spec.dimension
        assert starts[0] == bound < max(starts) and 4 * starts[0] >= spec.dimension
        fg = multiply(f, g)
        assert len(conversions) == 2 and list_reads == []
        assert fg.terms == naive_multiply_terms(f, g)

    def test_sparse_product_allocates_no_list(self):
        # N = 3137^2, about 9.8 * 10^6: a list of N sums would take 78 MB.
        spec = TorusSpec(2, 0, 3137, 1)
        f, g = monomial(spec, (1000, 7), ()), monomial(spec, (5, 2000), ())
        tracemalloc.start()
        try:
            fg = multiply(f, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert fg.terms == naive_multiply_terms(f, g) and len(fg.terms) == 6 * 8
        assert peak < 2**20


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


MALFORMED = ": needs integer lists a, b and an integer c and no other key"

# One faulty term at (2,1,3,1) and the exact message it gets.
INGEST_FAULTS = [
    ({"a": [0, True], "b": [2], "c": 1}, "malformed term {'a': [0, True], 'b': [2], 'c': 1}"),
    ({"a": [0, 1], "b": [2.0], "c": 1}, "malformed term {'a': [0, 1], 'b': [2.0], 'c': 1}"),
    ({"a": [0, 1], "b": [2], "c": True}, "malformed term {'a': [0, 1], 'b': [2], 'c': True}"),
    ({"a": [0, 1], "b": [2], "c": 1.0}, "malformed term {'a': [0, 1], 'b': [2], 'c': 1.0}"),
    ({"a": [0, 1], "b": [2], "c": 1, "d": 0},
     "malformed term {'a': [0, 1], 'b': [2], 'c': 1, 'd': 0}"),
    ({"a": [0, 1], "b": [2]}, "malformed term {'a': [0, 1], 'b': [2]}"),
    ({"a": "01", "b": [2], "c": 1}, "malformed term {'a': '01', 'b': [2], 'c': 1}"),
    ([[0, 1], [2], 1], "malformed term [[0, 1], [2], 1]"),
]
INGEST_FAULTS = [(term, message + MALFORMED) for term, message in INGEST_FAULTS] + [
    ({"a": [0, 1], "b": [2], "c": 0}, "coefficient 0 outside [1, 3)"),
    ({"a": [0, 1], "b": [2], "c": 3}, "coefficient 3 outside [1, 3)"),
    ({"a": [0], "b": [2], "c": 1}, "label (0|2) has wrong shape for (m, n) = (2, 1)"),
    ({"a": [0, 1], "b": [2, 0], "c": 1}, "label (0,1|2,0) has wrong shape for (m, n) = (2, 1)"),
    ({"a": [0, 3], "b": [2], "c": 1}, "label (0,3|2) has an exponent outside [0, 3)"),
    ({"a": [0, 1], "b": [-1], "c": 1}, "label (0,1|-1) has an exponent outside [0, 3)"),
    ({"a": [1, 2], "b": [0], "c": 1}, "duplicate term at (1,2|0)"),
]


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
        # `element_documents` has zero terms and n = 0; the one template also
        # spans m + n = 8 and 10^4 terms.
        rng = random.Random(9)
        docs = element_documents() + [
            element_to_dict(random_element(spec, rng, max_terms=5, basis=basis))
            for spec in (TorusSpec(2, 2, 3, 1), TorusSpec(1, 1, 7, 2))
            for basis in (Basis.BINOMIAL, Basis.IDEMPOTENT)
        ]
        for spec, k in ((TorusSpec(5, 3, 3, 1), 300), (TorusSpec(1, 1, 101, 1), 10**4)):
            support = rng.sample(range(spec.dimension), k)
            f = _element(spec, Basis.BINOMIAL, [(u, rng.randrange(1, spec.p)) for u in support])
            docs.append(element_to_dict(f))
        assert len(docs[-1]["terms"]) == 10**4
        for doc in docs:
            assert element_text(doc, pad) == json.dumps(doc, indent=2).replace("\n", "\n" + pad)

    def test_text_templates_cached_per_shape(self):
        # Shapes and pads interleaved, more (m, n, pad) than the cache holds,
        # so entries are evicted and rebuilt between uses; (2,2,3,1) and
        # (2,2,5,2) share a template but not p, r or the basis.
        rng = random.Random(33)
        specs = (TorusSpec(5, 3, 3, 1), TorusSpec(4, 0, 3, 1), TorusSpec(2, 2, 3, 1), TorusSpec(2, 2, 5, 2))
        docs = element_documents() + [element_to_dict(TorusElement(specs[0], Basis.IDEMPOTENT, {}))]
        docs += [element_to_dict(random_element(spec, rng, max_terms=4, basis=basis))
                 for spec, basis in zip(specs, [Basis.BINOMIAL, Basis.IDEMPOTENT] * 2)]
        pads = ["", "  ", "\t", "   "]
        maxsize = torus._text_templates.cache_parameters()["maxsize"]
        assert maxsize is not None
        assert len({(d["m"], d["n"]) for d in docs}) * len(pads) > maxsize
        torus._text_templates.cache_clear()
        for _ in range(2):
            for pad in pads:
                for doc in docs:
                    assert element_text(doc, pad) == json.dumps(doc, indent=2).replace("\n", "\n" + pad)
        assert torus._text_templates.cache_info().currsize <= maxsize

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

    @pytest.mark.parametrize("term, message", INGEST_FAULTS)
    def test_single_fault_message(self, term, message):
        # the second of two terms carries the fault; messages are exact
        doc = {"m": 2, "n": 1, "p": 3, "r": 1, "basis": "binomial", "terms": [
            {"a": [1, 2], "b": [0], "c": 2}, term, {"a": [2, 2], "b": [2], "c": 1},
        ]}
        with pytest.raises(ValueError) as info:
            element_from_dict(doc)
        assert str(info.value) == message
        doc["terms"][1] = {"a": [0, 1], "b": [2], "c": 1}
        assert element_from_dict(doc).terms == {
            ExponentVector((1, 2), (0,)): 2, ExponentVector((0, 1), (2,)): 1,
            ExponentVector((2, 2), (2,)): 1,
        }

    def test_rejects_malformed(self):
        with pytest.raises(ValueError):
            element_from_dict({"m": 1, "n": 1, "p": 2})
        with pytest.raises(ValueError):
            element_from_json(json.dumps({"m": 1, "n": 1, "p": 2, "r": 1, "basis": "other", "terms": []}))


class TestExponentVectorSlots:
    """`ExponentVector` is the immutable pair (a, b): a tuple subclass with
    empty slots, so it hashes, compares and orders as that pair."""

    def test_repr_and_str(self):
        ev = ExponentVector((1, 12), (0,))
        assert repr(ev) == "ExponentVector(a=(1, 12), b=(0,))"
        assert str(ev) == "(1,12|0)"
        assert str(ExponentVector((3,), ())) == "(3|)"

    def test_lexicographic_order(self):
        ev = ExponentVector
        labels = [ev((1, 0), (0,)), ev((0, 2), (1,)), ev((0, 2), (0,)), ev((0, 10), (0,))]
        assert sorted(labels) == [labels[2], labels[1], labels[3], labels[0]]
        assert ev((0, 2), (0,)) < ev((0, 2), (1,)) <= ev((0, 2), (1,))
        assert max(labels) == ev((1, 0), (0,))

    def test_equal_labels_hash_equal(self):
        built = [ExponentVector((1, 2), (0,)), ExponentVector([1, 2], [0]), decoded((1, 2), (0,))]
        assert len({hash(ev) for ev in built}) == 1
        assert len(set(built)) == 1
        assert {built[0]: 5}[built[2]] == 5

    def test_attributes_cannot_be_set(self):
        ev = ExponentVector((1,), (0,))
        for name in ("a", "b"):
            with pytest.raises(AttributeError):
                setattr(ev, name, (2,))
        # A name that is no field is refused too: the slots are empty.
        with pytest.raises(AttributeError):
            ev.c = (2,)
        assert not hasattr(ev, "__dict__") and not hasattr(ev, "c")
        assert (ev.a, ev.b) == ((1,), (0,))

    def test_hash_equality_and_order_are_the_pairs(self):
        rng = random.Random(17)
        for spec in (TorusSpec(2, 1, 3, 1), TorusSpec(1, 0, 5, 1), TorusSpec(2, 2, 2, 2)):
            labels = [random_label(spec, rng) for _ in range(60)]
            pairs = [(ev.a, ev.b) for ev in labels]
            for ev, pair in zip(labels, pairs):
                assert hash(ev) == hash(pair) and ev == pair and tuple(ev) == pair
            for (u, pu), (v, pv) in zip(zip(labels, pairs), zip(labels[1:], pairs[1:])):
                assert (u < v, u <= v, u == v, u != v) == (pu < pv, pu <= pv, pu == pv, pu != pv)
            assert sorted(labels) == sorted(pairs)
            assert [hash(ev) for ev in set(labels)] == [hash(pr) for pr in set(pairs)]

    def test_pickle_and_copy_round_trip(self):
        for ev in (ExponentVector((1, 12), (0,)), ExponentVector((3,), ()), decoded((0, 2), (4, 1))):
            copies = [copy.copy(ev), copy.deepcopy(ev)]
            protocols = range(pickle.HIGHEST_PROTOCOL + 1)
            copies += [pickle.loads(pickle.dumps(ev, proto)) for proto in protocols]
            for other in copies:
                assert type(other) is ExponentVector
                assert other == ev and hash(other) == hash(ev)
                assert (other.a, other.b) == (ev.a, ev.b) and repr(other) == repr(ev)

    def test_post_init_runs_once_per_public_label(self, monkeypatch):
        # Counted the way perfbench/tracer.py counts label constructions.
        calls = []
        post_init = ExponentVector.__post_init__

        def counted(ev):
            calls.append(ev)
            post_init(ev)

        monkeypatch.setattr(ExponentVector, "__post_init__", counted)
        spec = TorusSpec(2, 1, 3, 1)
        built = [ExponentVector((1, 2), (0,)), ExponentVector([1, 2], [0]), *spec.labels()]
        assert calls == built and all(a is b for a, b in zip(calls, built))
        expected = built[:1] + built[2:]
        del calls[:]
        internal = _labels(spec, [_flat(built[0], spec.q), *range(spec.dimension)])
        assert internal == expected and calls == []
        with pytest.raises(ValueError, match="integers"):
            ExponentVector((1.0,), (0,))


INTERNAL_SPECS = [
    TorusSpec(1, 1, 2, 2),
    TorusSpec(2, 1, 3, 1),
    TorusSpec(2, 2, 5, 1),
    TorusSpec(1, 2, 3, 2),
]


def edge_element(spec, rng, basis=Basis.BINOMIAL, k=6):
    """A random element whose labels favour the entries 0 and q - 1, with
    the all-0 and all-(q - 1) labels always present."""
    q, m, n = spec.q, spec.m, spec.n

    def entry():
        return rng.choice((0, q - 1, rng.randrange(q)))

    terms = {
        ExponentVector((0,) * m, (0,) * n): rng.randrange(1, spec.p),
        ExponentVector((q - 1,) * m, (q - 1,) * n): rng.randrange(1, spec.p),
    }
    for _ in range(k):
        label = ExponentVector(tuple(entry() for _ in range(m)), tuple(entry() for _ in range(n)))
        terms[label] = rng.randrange(1, spec.p)
    return TorusElement(spec, basis, terms)


def assert_like_public(res):
    """`res` is exactly what the public, checked constructor builds from its
    terms: labels in range, int tuples, coefficients in [1, p)."""
    spec, p = res.spec, res.spec.p
    assert TorusElement(spec, res.basis, dict(res.terms)) == res
    for ev, c in res.terms.items():
        assert type(ev) is ExponentVector
        assert type(ev.a) is tuple and type(ev.b) is tuple
        assert all(type(v) is int for v in ev.a + ev.b)
        assert type(c) is int and 0 < c < p


class TestLabelView:
    """Labels are decoded from flat indices only where they leave the
    element: the `terms` view, `coefficient`, `str`, `repr` and JSON."""

    def test_coefficient_never_aliases_another_label(self):
        # (0 | 4) and (1, 1 |) have the flat index of (1 | 1) at q = 3.
        spec = TorusSpec(1, 1, 3, 1)
        f = monomial(spec, (1,), (1,), 2)
        assert f.coefficient(ExponentVector((1,), (1,))) == 2
        for ev in (ExponentVector((0,), (4,)), ExponentVector((1, 1), ()), ExponentVector((), (1, 1))):
            assert _flat(ev, spec.q) == 4 and f.coefficient(ev) == 0
        for ev in (ExponentVector((-1,), (7,)), ExponentVector((3,), (1,)), ExponentVector((1,), ())):
            assert f.coefficient(ev) == 0

    def test_coefficient_rejects_a_non_label(self):
        # The pair of (1 | 1) used to read its coefficient 2, and a list
        # raised TypeError from the dict lookup.
        f = monomial(TorusSpec(1, 1, 3, 1), (1,), (1,), 2)
        for bad in (((1,), (1,)), [1], None, 4):
            with pytest.raises(ValueError, match="ExponentVector"):
                f.coefficient(bad)

    def test_terms_view_is_read_only(self):
        spec = TorusSpec(2, 1, 3, 1)
        u, v = ExponentVector((1, 0), (2,)), ExponentVector((0, 2), (0,))
        f = TorusElement(spec, Basis.BINOMIAL, {u: 1, v: 2})
        with pytest.raises(TypeError):
            f.terms[u] = 2
        with pytest.raises(TypeError):
            del f.terms[v]
        with pytest.raises(AttributeError):
            f.terms.clear()
        assert f.terms == {u: 1, v: 2} and dict(f.terms) == {v: 2, u: 1}
        assert f.coeffs == {_flat(u, 3): 1, _flat(v, 3): 2}
        assert f.sorted_terms() == sorted(f.terms.items()) == [(v, 2), (u, 1)]

    def test_view_is_decoded_once(self, monkeypatch):
        spec = TorusSpec(1, 1, 5, 1)
        f = phi(TorusElement(spec, Basis.BINOMIAL, {ExponentVector((3,), (2,)): 1}), 1, 1)
        first = f.terms
        monkeypatch.setattr("sstorus.torus._labels", None)
        assert f.terms == first and f.coefficient(next(iter(first))) == first[next(iter(first))]


class TestBlockMaps:
    """Labels decode through one bounded block map per (q, k), each block's
    digits formed on its first lookup."""

    def test_decode_past_the_bound_empties_the_map_midway(self):
        # (2,0,131,1) has 131^2 = 17,161 x-blocks, more than one map holds.
        spec = TorusSpec(2, 0, 131, 1)
        _block_map.cache_clear()
        assert _labels(spec, range(spec.dimension)) == list(spec.labels())
        assert len(_block_map(131, 2)) == spec.dimension - BLOCK_MAP_SIZE
        assert dict(_block_map(131, 0)) == {0: ()}

    def test_maps_are_few_and_bounded(self):
        maxsize = _block_map.cache_info().maxsize
        assert maxsize is not None and maxsize * BLOCK_MAP_SIZE <= 4 * 2**14
        for t in [(2, 0, 131, 1), (3, 3, 5, 1), (1, 2, 3, 2), (2, 2, 11, 1), (3, 0, 37, 1)]:
            spec = TorusSpec(*t)
            rng = random.Random(spec.dimension)
            keys = rng.sample(range(spec.dimension), min(spec.dimension, 20_000))
            labels = list(spec.labels())
            assert _labels(spec, keys) == [labels[k] for k in keys]
        gc.collect()
        live = [o for o in gc.get_objects() if type(o) is _BlockMap]
        assert 0 < len(live) <= maxsize
        assert all(len(blocks) <= BLOCK_MAP_SIZE for blocks in live)


class TestInternalConstructor:
    """Results built on flat indices through `_element` skip the public
    checks; they must equal what the checked constructor makes of their
    terms."""

    def test_element_reduces_and_drops_zeros_only(self):
        spec = TorusSpec(1, 1, 5, 1)
        u, v, w = ExponentVector((1,), (2,)), ExponentVector((0,), (4,)), ExponentVector((3,), (3,))
        f = _element(spec, Basis.IDEMPOTENT, [(7, 7), (4, -5), (18, -1)])
        assert f.terms == {u: 2, w: 4}
        assert f == TorusElement(spec, Basis.IDEMPOTENT, {u: 7, v: -5, w: -1})
        assert _element(spec, Basis.BINOMIAL, []) == zero(spec)

    @pytest.mark.parametrize("spec", INTERNAL_SPECS, ids=repr)
    def test_results_match_checked_construction(self, spec):
        rng = random.Random(spec.dimension * 7 + spec.p)
        p, m, n = spec.p, spec.m, spec.n
        for _ in range(6):
            f, g = edge_element(spec, rng), edge_element(spec, rng)
            g_cancel = add(g, scale(p - 1, f))  # f + g_cancel cancels f's terms
            fi, gi = to_idempotent_basis(f), to_idempotent_basis(g)
            results = [
                multiply(f, g),
                multiply(f, g_cancel),
                multiply(f, scale(p, g)),
                fi,
                gi,
                from_idempotent_basis(fi),
                from_idempotent_basis(edge_element(spec, rng, Basis.IDEMPOTENT)),
                multiply_idempotent_basis(fi, gi),
                multiply_idempotent_basis(fi, add(gi, scale(p - 1, gi))),
                add(f, g),
                add(f, g_cancel),
                add(f, scale(-1, f)),
                scale(p - 1, f),
                scale(p, f),
                scale(-3 * p - 1, gi),
            ]
            for i in range(1, m + 1):
                for j in range(1, n + 1):
                    results += [shift_substitute(f, i, j), phi(f, i, j), phi(g_cancel, i, j)]
                    witness = is_multiple_of_linear(multiply_by_linear(f, i, j), i, j)
                    assert witness.holds
                    results.append(witness.quotient)
            assert add(f, g_cancel) == g
            assert add(f, scale(-1, f)).is_zero()
            for res in results:
                assert_like_public(res)
        # `_indicators` stores coefficient 1 without reducing it mod p
        for res in [*class_sums(spec), *(build_Ha(spec, a) for a in range(spec.q))]:
            assert_like_public(res)
