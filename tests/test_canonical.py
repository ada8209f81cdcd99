import random
from collections import Counter
from math import comb

import pytest

from sstorus.canonical import (
    CanonicalLabel,
    EquivClass,
    _counts_by_defect,
    _rectangle_sum,
    canonicalize,
    count_c,
    count_c_prime,
    count_canonical_total,
    count_ordinary_points_m1,
    defect,
    enumerate_canonical,
    enumerate_equivalence_class,
    is_canonical,
    is_ordinary,
    is_special,
)
from sstorus.cli import DEFAULT_GRID
from sstorus.torus import ExponentVector, TorusSpec
from util import (
    class_signature,
    compositions,
    matching_defect,
    rectangle_sum_by_binomials,
    split_sum_defect,
    split_sum_total,
)

SMALL_SPECS = [
    (1, 1, 2, 1),
    (1, 1, 2, 2),
    (1, 1, 3, 1),
    (2, 1, 2, 1),
    (2, 1, 3, 1),
    (1, 2, 3, 1),
    (2, 2, 2, 1),
    (2, 2, 3, 1),
    (3, 1, 2, 1),
]


def scan_canonical(spec):
    """Reference for `enumerate_canonical`: test every label with
    `is_canonical`, in lexicographic order."""
    return [canonicalize(ev, spec) for ev in spec.labels() if is_canonical(ev, spec)]


def count_c_by_compositions(m, n, q, p):
    """Reference for `count_c`: the sorted b blocks on l given residue
    classes, each class holding q/p values, counted as a sum over the
    compositions of n into l parts (how many entries fall in each class)."""
    if n == 0:
        return comb(q + m - 1, m)
    if m == 0:
        return comb(q + n - 1, n)
    qp = q // p
    total = 0
    for l in range(1, min(p - 1, n) + 1):
        inner = 0
        for comp in compositions(n, l):
            prod = 1
            for nj in comp:
                prod *= comb(qp + nj - 1, nj)
            inner += prod
        total += comb(p, l) * comb(q - qp * l + m - 1, m) * inner
    return total


class TestRecords:
    def test_reprs(self):
        spec = TorusSpec(1, 1, 3, 1)
        c = canonicalize(ExponentVector((2,), (0,)), spec)
        assert repr(c) == (
            "CanonicalLabel(ev=ExponentVector(a=(2,), b=(0,)), defect=0, e=None, f=None)"
        )
        assert repr(enumerate_equivalence_class(c, spec)) == (
            "EquivClass(canonical=CanonicalLabel(ev=ExponentVector(a=(2,), b=(0,)), "
            "defect=0, e=None, f=None), members=(ExponentVector(a=(2,), b=(0,)),))"
        )
        assert repr(enumerate_canonical(spec)[0]) == (
            "CanonicalLabel(ev=ExponentVector(a=(0,), b=(0,)), defect=1, e=1, f=1)"
        )

    def test_defaults_and_fields(self):
        ev = ExponentVector((1,), (2,))
        c = CanonicalLabel(ev, 0)
        assert (c.ev, c.defect, c.e, c.f) == (ev, 0, None, None)
        assert c == CanonicalLabel(ev=ev, defect=0, e=None, f=None)
        assert hash(c) == hash(CanonicalLabel(ev, 0))
        assert c != CanonicalLabel(ev, 1, 1, 1)
        cls = EquivClass(canonical=c, members=(ev,))
        assert (cls.canonical, cls.members) == (c, (ev,))

    def test_immutable(self):
        c = CanonicalLabel(ExponentVector((1,), (2,)), 0)
        cls = EquivClass(c, (c.ev,))
        for record, name in ((c, "ev"), (c, "defect"), (c, "e"), (cls, "members")):
            with pytest.raises(AttributeError):
                setattr(record, name, None)


class TestDefect:
    def test_examples(self):
        spec = TorusSpec(2, 2, 3, 1)
        assert defect(ExponentVector((1, 2), (2, 0)), spec) == 1
        assert defect(ExponentVector((0, 0), (0, 0)), spec) == 2
        assert defect(ExponentVector((1, 1), (1, 1)), spec) == 0

    def test_all_zero_label(self):
        for t in SMALL_SPECS:
            spec = TorusSpec(*t)
            ev = ExponentVector((0,) * spec.m, (0,) * spec.n)
            assert defect(ev, spec) == min(spec.m, spec.n)

    def test_matches_matching_oracle_exhaustive(self):
        for t in ((1, 1, 2, 1), (1, 1, 3, 1), (2, 1, 3, 1), (2, 2, 2, 1), (2, 2, 3, 1)):
            spec = TorusSpec(*t)
            for ev in spec.labels():
                assert defect(ev, spec) == matching_defect(ev, spec), (t, ev)

    @pytest.mark.parametrize("p", [2, 3, 5, 997])
    def test_matches_matching_oracle_random(self, p):
        # Entries come from a few residues and their negatives, so that most
        # labels have compatible pairs, several per residue.
        rng = random.Random(p)
        for _ in range(150):
            m, n = rng.randint(1, 4), rng.randint(0, 4)
            spec = TorusSpec(m, n, p, rng.randint(1, 2), cap=10**100)
            pool = [rng.randrange(p) for _ in range(2)]
            pool += [-rho % p for rho in pool]

            def block(k):
                return tuple(rng.choice(pool) + p * rng.randrange(spec.q // p) for _ in range(k))

            ev = ExponentVector(block(m), block(n))
            assert defect(ev, spec) == matching_defect(ev, spec), (spec, ev)

    def test_large_p_canonical_forms(self):
        rng = random.Random(997)
        for t in ((1, 1, 997, 1), (2, 3, 997, 1), (3, 3, 211, 2)):
            spec = TorusSpec(*t, cap=10**30)
            for _ in range(100):
                pool = [rng.randrange(spec.q) for _ in range(2)]
                pool += [-v % spec.q for v in pool]
                ev = ExponentVector(
                    tuple(rng.choice(pool) for _ in range(spec.m)),
                    tuple(rng.choice(pool) for _ in range(spec.n)),
                )
                c = canonicalize(ev, spec)
                assert c.defect == defect(ev, spec) == matching_defect(ev, spec)
                assert is_canonical(c.ev, spec)
                assert class_signature(c.ev, spec) == class_signature(ev, spec)
                assert canonicalize(c.ev, spec) == c

    def test_special_iff_defect_zero(self):
        spec = TorusSpec(2, 2, 3, 1)
        for ev in spec.labels():
            assert is_special(ev, spec) == (defect(ev, spec) == 0)
            assert is_ordinary(ev, spec) == (defect(ev, spec) > 0)


class TestIsCanonical:
    def test_examples(self):
        spec = TorusSpec(1, 1, 2, 2)
        assert is_canonical(ExponentVector((0,), (2,)), spec)
        assert not is_canonical(ExponentVector((1,), (3,)), spec)
        spec21 = TorusSpec(2, 1, 3, 1)
        assert is_canonical(ExponentVector((0, 1), (0,)), spec21)

    def test_defect_zero_sorted(self):
        spec = TorusSpec(2, 1, 3, 1)
        assert is_canonical(ExponentVector((1, 2), (0,)), spec)
        assert not is_canonical(ExponentVector((2, 1), (0,)), spec)

    def test_positive_defect_requires_leading_zero(self):
        spec = TorusSpec(1, 1, 2, 2)
        # defect 1 but a_1 != 0
        assert not is_canonical(ExponentVector((1,), (1,)), spec)

    def test_tail_entries_must_be_below_p(self):
        spec = TorusSpec(2, 1, 2, 2)
        # (0, 3 | 0) has defect 1 but 3 >= p
        assert not is_canonical(ExponentVector((0, 3), (0,)), spec)


class TestCanonicalize:
    def test_examples(self):
        spec = TorusSpec(1, 1, 2, 2)
        c = canonicalize(ExponentVector((1,), (3,)), spec)
        assert (c.ev, c.defect) == (ExponentVector((0,), (0,)), 1)
        c = canonicalize(ExponentVector((3,), (3,)), spec)
        assert (c.ev, c.defect) == (ExponentVector((0,), (2,)), 1)
        spec21 = TorusSpec(2, 1, 3, 1)
        c = canonicalize(ExponentVector((2, 1), (0,)), spec21)
        assert (c.ev, c.defect) == (ExponentVector((1, 2), (0,)), 0)
        assert c.e is None and c.f is None

    def test_split_indices(self):
        spec = TorusSpec(2, 2, 3, 1)
        c = canonicalize(ExponentVector((1, 2), (2, 0)), spec)
        assert c.ev == ExponentVector((0, 2), (0, 0))
        assert (c.defect, c.e, c.f) == (1, 1, 2)

    def test_fixes_canonicals(self):
        for t in SMALL_SPECS:
            spec = TorusSpec(*t)
            for ev in spec.labels():
                if is_canonical(ev, spec):
                    assert canonicalize(ev, spec).ev == ev

    def test_always_lands_on_canonical(self):
        for t in SMALL_SPECS:
            spec = TorusSpec(*t)
            for ev in spec.labels():
                c = canonicalize(ev, spec)
                assert is_canonical(c.ev, spec), (t, ev, c)
                assert c.defect == defect(ev, spec)

    def test_membership_in_own_class(self):
        for t in ((1, 1, 2, 2), (2, 1, 3, 1), (2, 2, 2, 1)):
            spec = TorusSpec(*t)
            for ev in spec.labels():
                cls = enumerate_equivalence_class(canonicalize(ev, spec), spec)
                assert ev in cls.members


class TestClasses:
    def test_gl11_p2_class(self):
        spec = TorusSpec(1, 1, 2, 1)
        cls = enumerate_equivalence_class(
            canonicalize(ExponentVector((0,), (0,)), spec), spec
        )
        assert cls.members == (
            ExponentVector((0,), (0,)),
            ExponentVector((1,), (1,)),
        )

    def test_gl21_p3_class_size(self):
        spec = TorusSpec(2, 1, 3, 1)
        for c in enumerate_canonical(spec):
            if c.defect >= 1:
                cls = enumerate_equivalence_class(c, spec)
                assert len(cls.members) == 2 * spec.p - 1

    def test_defect_zero_class_is_orbit(self):
        import itertools

        spec = TorusSpec(2, 2, 3, 1)
        for c in enumerate_canonical(spec):
            if c.defect == 0:
                cls = enumerate_equivalence_class(c, spec)
                orbit = {
                    ExponentVector(pa, pb)
                    for pa in itertools.permutations(c.ev.a)
                    for pb in itertools.permutations(c.ev.b)
                }
                assert set(cls.members) == orbit

    def test_partition(self):
        for t in SMALL_SPECS:
            spec = TorusSpec(*t)
            seen = Counter()
            for c in enumerate_canonical(spec):
                seen.update(enumerate_equivalence_class(c, spec).members)
            assert len(seen) == spec.dimension
            assert set(seen.values()) == {1}

    def test_signature_constant_on_classes(self):
        for t in ((1, 1, 2, 2), (2, 1, 3, 1), (2, 2, 2, 1)):
            spec = TorusSpec(*t)
            for c in enumerate_canonical(spec):
                cls = enumerate_equivalence_class(c, spec)
                sigs = {class_signature(ev, spec) for ev in cls.members}
                assert len(sigs) == 1

    def test_signature_separates_classes(self):
        for t in ((1, 1, 2, 2), (2, 1, 3, 1), (2, 2, 2, 1)):
            spec = TorusSpec(*t)
            by_class = {}
            for c in enumerate_canonical(spec):
                for ev in enumerate_equivalence_class(c, spec).members:
                    by_class[ev] = c.ev
            for ev in spec.labels():
                for other in spec.labels():
                    same = by_class[ev] == by_class[other]
                    assert same == (
                        class_signature(ev, spec) == class_signature(other, spec)
                    )

    def test_class_invariants_along_members(self):
        for t in ((1, 1, 2, 2), (2, 2, 3, 1)):
            spec = TorusSpec(*t)
            q = spec.q
            for c in enumerate_canonical(spec):
                cls = enumerate_equivalence_class(c, spec)
                totals = {ev.total() % q for ev in cls.members}
                defects = {defect(ev, spec) for ev in cls.members}
                assert totals == {c.ev.total() % q}
                assert defects == {c.defect}

    @pytest.mark.parametrize("t", DEFAULT_GRID + [(2, 0, 3, 1), (1, 1, 2, 3)])
    def test_classes_match_signature_grouping(self, t):
        spec = TorusSpec(*t)
        groups = {}
        for ev in spec.labels():
            groups.setdefault(class_signature(ev, spec), []).append(ev)
        cans = enumerate_canonical(spec)
        assert len(cans) == len(groups)
        for c in cans:
            members = enumerate_equivalence_class(c, spec).members
            assert list(members) == groups[class_signature(c.ev, spec)], (t, c)

    def test_rejects_non_canonical_input(self):
        spec = TorusSpec(2, 1, 3, 1)
        bad = canonicalize(ExponentVector((1, 2), (0,)), spec)
        tampered = type(bad)(ExponentVector((2, 1), (0,)), 0)
        with pytest.raises(ValueError):
            enumerate_equivalence_class(tampered, spec)

    def test_rejects_a_bare_label(self):
        # A label is no canonical label: its `.ev` used to raise AttributeError.
        spec = TorusSpec(2, 1, 3, 1)
        for ev in (ExponentVector((0, 1), (0,)), canonicalize(ExponentVector((0, 1), (0,)), spec)[:1]):
            with pytest.raises(ValueError, match="CanonicalLabel"):
                enumerate_equivalence_class(ev, spec)

    def test_gl21_r2_mesh_scaled_class_size(self):
        # defect-1 classes scale by (q/p)^2 relative to r = 1
        for t in ((2, 1, 2, 2), (2, 1, 3, 2)):
            spec = TorusSpec(*t)
            p, q = spec.p, spec.q
            expected = (2 * p - 1) * (q // p) ** 2
            defect_one = [c for c in enumerate_canonical(spec) if c.defect >= 1]
            sizes = [len(enumerate_equivalence_class(c, spec).members) for c in defect_one]
            assert set(sizes) == {expected}
            # together the classes use up exactly the ordinary labels
            ordinary = q ** 3 - q * (q - q // p) ** 2
            assert sum(sizes) == ordinary


class TestEnumerateCanonical:
    def test_gl11_p2(self):
        spec = TorusSpec(1, 1, 2, 1)
        cans = enumerate_canonical(spec)
        assert [(c.ev, c.defect) for c in cans] == [
            (ExponentVector((0,), (0,)), 1),
            (ExponentVector((0,), (1,)), 0),
            (ExponentVector((1,), (0,)), 0),
        ]

    def test_counts(self):
        assert len(enumerate_canonical(TorusSpec(1, 1, 3, 1))) == 7
        assert len(enumerate_canonical(TorusSpec(2, 1, 3, 1))) == 12

    @pytest.mark.parametrize(
        "t",
        [
            (1, 0, 2, 1),
            (2, 0, 3, 1),
            (3, 0, 2, 2),
            (1, 1, 2, 1),
            (2, 2, 2, 1),
            (2, 1, 2, 2),
            (1, 1, 2, 3),
            (1, 2, 3, 2),
            (3, 1, 3, 1),
            (3, 2, 2, 1),
            (3, 3, 2, 1),
            (3, 3, 5, 1),
            (2, 2, 3, 2),
        ],
    )
    def test_matches_scan(self, t):
        # label, defect, split indices and order all agree with the scan
        spec = TorusSpec(*t)
        assert enumerate_canonical(spec) == scan_canonical(spec)


class TestCompositions:
    def test_lexicographic_positive(self):
        assert list(compositions(4, 2)) == [(1, 3), (2, 2), (3, 1)]
        assert list(compositions(3, 3)) == [(1, 1, 1)]
        assert list(compositions(2, 3)) == []
        assert list(compositions(0, 0)) == [()]

    def test_count(self):
        # positive compositions of n into l parts number C(n-1, l-1)
        for n in range(1, 8):
            for l in range(1, n + 1):
                assert len(list(compositions(n, l))) == comb(n - 1, l - 1)


class TestCounts:
    def test_count_c_examples(self):
        assert count_c(1, 1, 3, 3) == 6
        assert count_c(1, 1, 2, 2) == 2
        for m in (1, 2, 3):
            assert count_c(m, 0, 4, 2) == comb(4 + m - 1, m)

    def test_count_c_matches_composition_sum(self):
        for p in (2, 3, 5, 7, 11):
            for r in (1, 2, 3):
                q = p**r
                for m in range(6):
                    for n in range(9):
                        expected = count_c_by_compositions(m, n, q, p)
                        assert count_c(m, n, q, p) == expected, (m, n, p, r)
                        assert count_c(n, m, q, p) == expected, (n, m, p, r)

    def test_count_c_prime_examples(self):
        assert count_c_prime(0, 0, 5) == 1
        assert count_c_prime(1, 0, 3) == 2
        assert count_c_prime(1, 1, 3) == 2

    def test_count_c_prime_against_scan(self):
        import itertools

        for p in (2, 3, 5):
            for m in range(4):
                for n in range(4):
                    brute = 0
                    for a in itertools.combinations_with_replacement(range(1, p), m):
                        for b in itertools.combinations_with_replacement(range(1, p), n):
                            if all((ai + bj) % p for ai in a for bj in b):
                                brute += 1
                    assert count_c_prime(m, n, p) == brute, (m, n, p)

    def test_count_defect_examples(self):
        # _counts_by_defect(m, n, q, p, d + 1)[d] counts defect d exactly
        assert _counts_by_defect(1, 1, 2, 2, 2)[1] == 1
        assert _counts_by_defect(1, 1, 4, 2, 2)[1] == 2
        assert _counts_by_defect(2, 1, 3, 3, 2)[1] == 3

    def test_rectangle_sums_match_split_sums(self):
        for p in (2, 3, 5, 7, 11, 13):
            for r in (1, 2):
                q = p**r
                for m in range(1, 9):
                    for n in range(1, 9):
                        zero = count_c(m, n, q, p)
                        total = split_sum_total(m, n, q, p)
                        defects = [split_sum_defect(m, n, d, q, p) for d in range(1, min(m, n) + 1)]
                        for d, expected in enumerate(defects, 1):
                            exact = _counts_by_defect(m, n, q, p, d + 1)[d]
                            assert exact == expected, (m, n, p, r, d)
                        by_defect = _counts_by_defect(m, n, q, p, min(m, n))
                        assert by_defect == [zero, *defects], (m, n, p, r)
                        assert _counts_by_defect(m, n, q, p, 1) == [zero, total - zero], (m, n, p, r)

    def test_rectangle_recurrence_matches_binomials(self):
        # the grid covers b above and below p - 1 and a = 0
        for p in (2, 3, 5, 7, 11, 101):
            for a in range(-1, 14):
                for b in range(-1, 14):
                    assert _rectangle_sum(a, b, p) == rectangle_sum_by_binomials(a, b, p), (a, b, p)
        assert _rectangle_sum(400, 399, 401) == rectangle_sum_by_binomials(400, 399, 401)

    def test_totals_examples(self):
        assert count_canonical_total(TorusSpec(1, 1, 2, 1)) == 3
        assert count_canonical_total(TorusSpec(2, 1, 3, 1)) == 12
        assert count_canonical_total(TorusSpec(3, 1, 2, 1)) == 5
        assert count_canonical_total(TorusSpec(1, 1, 2, 2)) == 10

    def test_closed_forms_match_enumeration(self):
        shapes = [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (1, 3), (3, 2), (4, 1)]
        for m, n in shapes:
            for p in (2, 3, 5):
                r = 1
                while (p**r) ** (m + n) <= 10_000:
                    spec = TorusSpec(m, n, p, r)
                    cans = enumerate_canonical(spec)
                    by_defect = Counter(c.defect for c in cans)
                    q = spec.q
                    assert by_defect[0] == count_c(m, n, q, p), (m, n, p, r)
                    counts = _counts_by_defect(m, n, q, p, min(m, n))
                    for d in range(1, min(m, n) + 1):
                        assert by_defect[d] == counts[d], (m, n, p, r, d)
                    assert len(cans) == count_canonical_total(spec)
                    r += 1


class TestOrdinaryPoints:
    def test_examples(self):
        assert count_ordinary_points_m1(1, 3) == 3
        assert count_ordinary_points_m1(2, 3) == 15
        assert count_ordinary_points_m1(3, 2) == 14

    def test_against_scan(self):
        import itertools

        for p in (2, 3, 5):
            for m in (1, 2, 3):
                brute = sum(
                    1
                    for point in itertools.product(range(p), repeat=m + 1)
                    if any((point[i] + point[m]) % p == 0 for i in range(m))
                )
                assert count_ordinary_points_m1(m, p) == brute


# Each of these used to return a number or raise from inside: True counted as
# 1, q = 4 passed as a power of 3, p = -1 gave 0 or 3, a float p gave a float
# count, and a float size raised TypeError from math.comb.
BAD_COUNT_ARGUMENTS = [
    (count_c, (True, 1, 3, 3)),
    (count_c, (1.0, 1, 3, 3)),
    (count_c, (1, -1, 3, 3)),
    (count_c, (1, 1, 4, 3)),
    (count_c, (1, 1, 1, 3)),
    (count_c, (1, 1, 3.0, 3)),
    (count_c, (2, 1, 3, -1)),
    (count_c, (1, 1, 4, 4)),
    (count_c_prime, (True, 1, 3)),
    (count_c_prime, (1, 1.0, 3)),
    (count_c_prime, (-1, 1, 3)),
    (count_c_prime, (1, 1, 4)),
    (count_ordinary_points_m1, (2, 3.0)),
    (count_ordinary_points_m1, (2, -1)),
    (count_ordinary_points_m1, (1, 4)),
    (count_ordinary_points_m1, (2.0, 3)),
    (count_ordinary_points_m1, (True, 3)),
]


@pytest.mark.parametrize(
    "fn, args",
    BAD_COUNT_ARGUMENTS,
    ids=[f"{fn.__name__}{args}" for fn, args in BAD_COUNT_ARGUMENTS],
)
def test_counts_reject_bad_arguments(fn, args):
    with pytest.raises(ValueError):
        fn(*args)


@pytest.mark.parametrize("fn", [is_special, is_ordinary])
def test_special_and_ordinary_check_the_label(fn):
    # (7 | 1) has the wrong shape and an exponent out of range at (2,1,3,1);
    # is_special used to answer True.
    for ev in (ExponentVector((7,), (1,)), ExponentVector((0, 3), (1,)), ((0, 1), (1,))):
        with pytest.raises(ValueError):
            fn(ev, TorusSpec(2, 1, 3, 1))
