import itertools
import tracemalloc
from array import array
from math import comb

import pytest

from sstorus import canonical, fp_linalg, ss_basis, supersymmetry
from sstorus.canonical import (
    _canonical_form,
    canonicalize,
    count_canonical_total,
    enumerate_canonical,
    enumerate_equivalence_class,
    is_ordinary,
)
from sstorus.cli import DEFAULT_GRID, main
from sstorus.ss_basis import (
    DENSE_ORACLE_MAX_N,
    CountReport,
    build_Ha,
    build_special,
    class_sums,
    dim_closed_form,
    gl11_generators,
    ss_component_oracle,
    ss_nullspace_oracle,
    verify_basis,
)
from sstorus.idempotents import idempotent_h
from sstorus.supersymmetry import is_supersymmetric, satisfies_dagger, symmetrize
from sstorus.torus import (
    Basis,
    CapExceededError,
    ExponentVector,
    TorusElement,
    TorusSpec,
    add,
    zero,
)
from util import build_H, coeff_vectors, divisibility_rows_by_element


class TestFpLinalg:
    def test_rref_and_rank(self):
        rows, pivots = fp_linalg.rref([[1, 2], [2, 4], [0, 1]], 5)
        assert pivots == [0, 1]
        assert rows == [[1, 0], [0, 1]]
        assert fp_linalg.rank([[1, 2], [2, 4]], 5) == 1

    def test_nullspace(self):
        basis = fp_linalg.nullspace_basis([[1, 1, 0]], 3, 3)
        assert basis == [[1, 2, 0], [0, 0, 1]]
        for vec in basis:
            assert sum(a * b for a, b in zip([1, 1, 0], vec)) % 3 == 0

    def test_nullspace_no_constraints(self):
        assert fp_linalg.nullspace_basis([], 2, 2) == [[1, 0], [0, 1]]

    def test_same_row_space(self):
        assert fp_linalg.same_row_space([[1, 1]], [[2, 2]], 3)
        assert not fp_linalg.same_row_space([[1, 0]], [[0, 1]], 3)


class TestBuildH:
    def test_gl11_p2(self):
        spec = TorusSpec(1, 1, 2, 1)
        c = canonicalize(ExponentVector((0,), (0,)), spec)
        h = build_H(c, spec)
        assert h.basis is Basis.IDEMPOTENT
        assert h.terms == {
            ExponentVector((0,), (0,)): 1,
            ExponentVector((1,), (1,)): 1,
        }

    def test_defect_zero_is_symmetrizer(self):
        spec = TorusSpec(2, 1, 3, 1)
        for c in enumerate_canonical(spec):
            if c.defect == 0:
                assert build_H(c, spec) == symmetrize(c.ev, spec)

    def test_gl21_five_terms(self):
        spec = TorusSpec(2, 1, 3, 1)
        c = canonicalize(ExponentVector((0, 1), (0,)), spec)
        assert len(build_H(c, spec).terms) == 5

    def test_all_supersymmetric(self):
        for t in ((1, 1, 2, 1), (2, 1, 3, 1), (2, 2, 2, 1), (1, 2, 3, 1)):
            spec = TorusSpec(*t)
            for c in enumerate_canonical(spec):
                assert is_supersymmetric(build_H(c, spec))


class TestBuildSpecial:
    def test_gl11(self):
        spec = TorusSpec(1, 1, 2, 1)
        s = build_special(ExponentVector((1,), (0,)), spec)
        assert s.terms == {ExponentVector((1,), (0,)): 1}

    def test_stabilized_orbit(self):
        spec = TorusSpec(2, 1, 3, 1)
        s = build_special(ExponentVector((1, 1), (1,)), spec)
        assert s.terms == {ExponentVector((1, 1), (1,)): 1}

    def test_rejects_ordinary(self):
        spec = TorusSpec(1, 1, 2, 1)
        with pytest.raises(ValueError):
            build_special(ExponentVector((0,), (0,)), spec)
        spec21 = TorusSpec(2, 1, 2, 1)
        with pytest.raises(ValueError):
            build_special(ExponentVector((0, 1), (0,)), spec21)

    def test_always_supersymmetric(self):
        for t in ((2, 1, 3, 1), (2, 2, 2, 1)):
            spec = TorusSpec(*t)
            for ev in spec.labels():
                if not is_ordinary(ev, spec):
                    assert is_supersymmetric(build_special(ev, spec))


class TestBuildHa:
    def test_gl11_p2(self):
        spec = TorusSpec(1, 1, 2, 1)
        h = build_Ha(spec, 0)
        assert h.terms == {
            ExponentVector((0,), (0,)): 1,
            ExponentVector((1,), (1,)): 1,
        }
        assert build_Ha(spec, 1).is_zero()

    def test_sums_cover_ordinary_labels(self):
        for t in ((1, 1, 3, 1), (2, 1, 3, 1), (2, 2, 2, 1)):
            spec = TorusSpec(*t)
            total = zero(spec, Basis.IDEMPOTENT)
            for a in range(spec.q):
                total = add(total, build_Ha(spec, a))
            expected = TorusElement(
                spec,
                Basis.IDEMPOTENT,
                {ev: 1 for ev in spec.labels() if is_ordinary(ev, spec)},
            )
            assert total == expected

    def test_decomposes_into_class_sums(self):
        for t in ((1, 1, 2, 2), (2, 1, 3, 1), (2, 2, 2, 1)):
            spec = TorusSpec(*t)
            q = spec.q
            for a in range(q):
                expected = zero(spec, Basis.IDEMPOTENT)
                for c in enumerate_canonical(spec):
                    if c.defect >= 1 and c.ev.total() % q == a:
                        expected = add(expected, build_H(c, spec))
                assert build_Ha(spec, a) == expected

    def test_supersymmetric(self):
        spec = TorusSpec(2, 1, 3, 1)
        for a in range(spec.q):
            assert is_supersymmetric(build_Ha(spec, a))

    def test_range_check(self):
        # True used to give the residue-1 sum, and 0.5 the zero element
        for a in (2, -1, True, False, 0.5, 1.0):
            with pytest.raises(ValueError, match="residue must be an integer in"):
                build_Ha(TorusSpec(1, 1, 2, 1), a)


class TestOracle:
    def test_dimensions(self):
        assert len(ss_nullspace_oracle(TorusSpec(1, 1, 2, 1))) == 3
        assert len(ss_nullspace_oracle(TorusSpec(1, 1, 3, 1))) == 7
        assert len(ss_nullspace_oracle(TorusSpec(2, 1, 3, 1))) == 12

    def test_members_supersymmetric(self):
        for t in ((1, 1, 2, 1), (1, 1, 3, 1), (2, 1, 3, 1)):
            spec = TorusSpec(*t)
            for e in ss_nullspace_oracle(spec):
                assert is_supersymmetric(e)

    def test_members_divisible_at_every_pair(self):
        # The oracle imposes (1, 1) alone; every pair must follow from it.
        for t in ((2, 1, 3, 1), (2, 2, 2, 1), (1, 2, 3, 1)):
            spec = TorusSpec(*t)
            for e in ss_nullspace_oracle(spec):
                for i, j in itertools.product(range(1, spec.m + 1), range(1, spec.n + 1)):
                    assert satisfies_dagger(e, i, j), (e, i, j)

    def test_rejects_n_zero(self):
        with pytest.raises(ValueError):
            ss_nullspace_oracle(TorusSpec(2, 0, 3, 1))

    def test_deterministic_echelon_output(self):
        spec = TorusSpec(1, 1, 3, 1)
        assert ss_nullspace_oracle(spec) == ss_nullspace_oracle(spec)

    def test_work_guard_fires_before_any_work(self, monkeypatch):
        def no_work(*args):
            raise AssertionError("the guard let the oracle start")

        monkeypatch.setattr(ss_basis, "idempotent_h", no_work)
        monkeypatch.setattr(ss_basis.TorusSpec, "labels", no_work)
        with pytest.raises(CapExceededError, match="390625 labels"):
            ss_nullspace_oracle(TorusSpec(2, 2, 5, 2))

    def test_work_guard_admits_verify_and_tested_sizes(self):
        assert ss_basis.DENSE_ORACLE_LIMIT >= max(DENSE_ORACLE_MAX_N, 125)

    def test_expands_each_idempotent_once(self, monkeypatch):
        calls = []

        def counted(spec, ev):
            calls.append(ev)
            return idempotent_h(spec, ev)

        monkeypatch.setattr(ss_basis, "idempotent_h", counted)
        spec = TorusSpec(2, 2, 2, 1)
        ss_nullspace_oracle(spec)
        assert calls == list(spec.labels())


class TestDivisibilityRows:
    @pytest.mark.parametrize("t", DEFAULT_GRID + [(1, 1, 3, 2), (2, 1, 5, 1), (1, 1, 2, 3)])
    def test_equal_per_element_rows(self, t):
        spec = TorusSpec(*t)
        labels = list(spec.labels())
        expansions = [idempotent_h(spec, ev) for ev in labels]
        for i in range(1, spec.m + 1):
            for j in range(1, spec.n + 1):
                rows = ss_basis._divisibility_rows(spec, labels, expansions, i, j)
                assert rows == divisibility_rows_by_element(spec, i, j), (i, j)
                assert any(map(any, rows))


def phi_dropping_carry(f, i, j):
    """f - s(f) for a wrong shift that takes C(y_j + 1, l) to C(y_j, l),
    dropping the C(y_j, l - 1) term."""
    spec = f.spec
    ix = spec.slot("x", i)
    terms = dict(f.terms)
    for ev, c in f.terms.items():
        key = list(ev.a + ev.b)
        k = key[ix]
        for t in range(k + 1):
            key[ix] = t
            shifted = ExponentVector(tuple(key[: spec.m]), tuple(key[spec.m :]))
            terms[shifted] = terms.get(shifted, 0) - (-c if (k - t) & 1 else c)
    return TorusElement(spec, Basis.BINOMIAL, terms)


class TestDenseOracleCatchesMutation:
    """A wrong shift or a wrong point evaluation inside the dense oracle makes
    it disagree with the component oracle, and `verify` fail."""

    @pytest.mark.parametrize("t", [(2, 1, 3, 1), (1, 1, 3, 2)])
    @pytest.mark.parametrize("mutation", ["shift", "evaluation"])
    def test_reports_disagreement(self, monkeypatch, capsys, t, mutation):
        spec = TorusSpec(*t)
        if mutation == "shift":
            monkeypatch.setattr(ss_basis, "phi", phi_dropping_carry)
        else:
            original = ss_basis.evaluate_point
            origin = ExponentVector((0,) * spec.m, (0,) * spec.n)

            def off_by_one_at_origin(f, beta):
                return (original(f, beta) + (beta == origin)) % f.spec.p

            monkeypatch.setattr(ss_basis, "evaluate_point", off_by_one_at_origin)
        assert "the dense and component oracles disagree" in verify_basis(spec).failures
        assert main(["verify"] + [f"--{k}={v}" for k, v in zip("mnpr", t)]) == 1
        assert f"FAIL {spec}: the dense and component oracles disagree\n" in capsys.readouterr().err


class TestComponentOracle:
    @pytest.mark.parametrize(
        "t", DEFAULT_GRID + [(2, 1, 2, 2), (1, 1, 3, 2), (2, 1, 5, 1), (2, 1, 2, 3)]
    )
    def test_equals_dense_oracle(self, t):
        spec = TorusSpec(*t)
        assert ss_component_oracle(spec) == ss_nullspace_oracle(spec)

    def test_dense_threshold_covers_default_grid(self):
        assert DENSE_ORACLE_MAX_N >= max(TorusSpec(*t).dimension for t in DEFAULT_GRID)

    def test_rejects_n_zero(self):
        with pytest.raises(ValueError):
            ss_component_oracle(TorusSpec(2, 0, 3, 1))


class TestGl11Generators:
    def test_p2_r1_list(self):
        spec = TorusSpec(1, 1, 2, 1)
        gens = gl11_generators(spec)
        assert gens[0].terms == {ExponentVector((0,), (1,)): 1}
        assert gens[1].terms == {ExponentVector((1,), (0,)): 1}
        assert gens[2].terms == {
            ExponentVector((0,), (0,)): 1,
            ExponentVector((1,), (1,)): 1,
        }

    def test_counts(self):
        for p, r in ((2, 1), (2, 2), (3, 1), (3, 2)):
            spec = TorusSpec(1, 1, p, r)
            q = spec.q
            assert len(gl11_generators(spec)) == q * (q - q // p) + q // p
        assert len(gl11_generators(TorusSpec(1, 1, 2, 2))) == 10

    def test_span_equals_oracle(self):
        for p, r in ((2, 1), (2, 2), (3, 1)):
            spec = TorusSpec(1, 1, p, r)
            labels = list(spec.labels())
            assert fp_linalg.same_row_space(
                coeff_vectors(gl11_generators(spec), labels),
                coeff_vectors(ss_nullspace_oracle(spec), labels),
                p,
            )

    def test_each_generator_supersymmetric(self):
        spec = TorusSpec(1, 1, 3, 1)
        for g in gl11_generators(spec):
            assert is_supersymmetric(g)

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError):
            gl11_generators(TorusSpec(2, 1, 2, 1))


class TestDimClosedForm:
    def test_examples(self):
        assert dim_closed_form(TorusSpec(3, 1, 2, 1)) == 5
        assert dim_closed_form(TorusSpec(2, 1, 2, 2)) == 16
        assert dim_closed_form(TorusSpec(1, 1, 3, 1)) == 7

    def test_rank_two_one_general_r_form(self):
        # alternative closed form for m = 2, n = 1:
        # (p^(3r-2) (p-1)^2 + p^(2r-1) (p-1)) / 2 + p^r
        for p, r in ((2, 1), (2, 2), (3, 1), (5, 1), (3, 2)):
            alt = (p ** (3 * r - 2) * (p - 1) ** 2 + p ** (2 * r - 1) * (p - 1)) // 2 + p**r
            assert dim_closed_form(TorusSpec(2, 1, p, r, cap=10**9)) == alt

    def test_rank_three_one_form(self):
        # q C(q - q/p + 2, 3) + q + (q/p) C(p, 2)
        for p, r in ((2, 1), (3, 1), (2, 2), (5, 1)):
            q = p**r
            alt = q * comb(q - q // p + 2, 3) + q + (q // p) * comb(p, 2)
            assert dim_closed_form(TorusSpec(3, 1, p, r, cap=10**9)) == alt

    def test_gl21_r1_form(self):
        for p in (2, 3, 5, 7):
            assert dim_closed_form(TorusSpec(2, 1, p, 1, cap=10**9)) == p * (p * p - p + 2) // 2

    def test_matches_canonical_count(self):
        for m, n in ((1, 1), (2, 1), (1, 2), (3, 1), (1, 3), (2, 2), (4, 1), (3, 2), (2, 3)):
            for p in (2, 3):
                for r in (1, 2):
                    spec = TorusSpec(m, n, p, r, cap=10**9)
                    assert dim_closed_form(spec) == count_canonical_total(spec), (m, n, p, r)

    def test_rejects_missing_block(self):
        with pytest.raises(ValueError):
            dim_closed_form(TorusSpec(2, 0, 3, 1))


class TestVerifyBasis:
    def test_gl11_p2(self):
        rep = verify_basis(TorusSpec(1, 1, 2, 1))
        assert rep.passed
        assert rep.to_dict() == {
            "spec": {"m": 1, "n": 1, "p": 2, "r": 1, "q": 2},
            "closed_form": 3,
            "enumerated": 3,
            "oracle_dim": 3,
            "h_basis_ok": True,
            "partition_ok": True,
            "gl11_span_ok": True,
        }

    def test_report_repr_omits_failures(self):
        rep = verify_basis(TorusSpec(1, 1, 3, 1))
        assert repr(rep) == (
            "CountReport(spec=TorusSpec(m=1, n=1, p=3, r=1), closed_form=7, enumerated=7, "
            "oracle_dim=7, h_basis_ok=True, partition_ok=True, gl11_span_ok=True, "
            "oracles=('component', 'dense'))"
        )
        rep.failures.append("a failure")
        assert "failure" not in repr(rep)

    def test_report_fields(self):
        spec = TorusSpec(2, 1, 3, 1)
        fields = dict(closed_form=12, enumerated=12, oracle_dim=11, h_basis_ok=False,
                      partition_ok=True, gl11_span_ok=None)
        rep = CountReport(spec, *fields.values())
        assert (rep.spec, rep.oracles, rep.failures, rep.passed) == (spec, (), [], True)
        assert [getattr(rep, k) for k in fields] == list(fields.values())
        assert rep.to_dict() == {
            "spec": {"m": 2, "n": 1, "p": 3, "r": 1, "q": 3}, **fields
        }
        failed = CountReport(spec=spec, **fields, oracles=("component",), failures=["x"])
        assert (failed.oracles, failed.failures, failed.passed) == (("component",), ["x"], False)
        assert CountReport(spec, *fields.values()).failures is not rep.failures

    def test_gl21_p3(self):
        rep = verify_basis(TorusSpec(2, 1, 3, 1))
        assert rep.passed
        assert rep.oracle_dim == 12
        assert rep.gl11_span_ok is None

    def test_gl22_p2(self):
        rep = verify_basis(TorusSpec(2, 2, 2, 1))
        assert rep.passed
        assert rep.closed_form == rep.oracle_dim == 5

    def test_records_oracles(self):
        assert verify_basis(TorusSpec(2, 2, 3, 1)).oracles == ("component", "dense")
        assert verify_basis(TorusSpec(2, 1, 5, 1)).oracles == ("component",)

    @pytest.mark.parametrize("t, dim", [((2, 2, 5, 1), 131), ((2, 2, 7, 1), 505)])
    def test_large_specs(self, t, dim):
        rep = verify_basis(TorusSpec(*t))
        assert rep.passed, rep.failures
        assert rep.oracle_dim == rep.closed_form == dim

    def test_minimality(self):
        # dropping any class sum strictly shrinks the span
        for t in ((1, 1, 2, 1), (2, 1, 3, 1)):
            spec = TorusSpec(*t)
            labels = list(spec.labels())
            basis = [build_H(c, spec) for c in enumerate_canonical(spec)]
            vecs = coeff_vectors(basis, labels)
            full = fp_linalg.rank(vecs, spec.p)
            assert full == len(basis)
            for k in range(len(vecs)):
                reduced = vecs[:k] + vecs[k + 1 :]
                assert fp_linalg.rank(reduced, spec.p) == full - 1


class TestClassSizes:
    def test_gl31_summand_counts(self):
        for p in (2, 3, 5):
            spec = TorusSpec(3, 1, p, 1)
            for c in enumerate_canonical(spec):
                if c.defect >= 1:
                    size = len(enumerate_equivalence_class(c, spec).members)
                    expected = 3 * p - 2 if c.ev.a[1] == c.ev.a[2] else 6 * p - 6
                    assert size == expected, (p, c)


# `basis` and `canonical` accept n = 0, though `verify` and the oracles do not.
# (1,2,3,2) and (2,2,2,2) have n >= 2 and r >= 2, where a canonical b block
# (0^(f-1), bf, tail) can have bf >= p above its tail, as in (3, 1); the class
# table reads such a label's class at sorted blocks other than its own.
LABELLING_SPECS = DEFAULT_GRID + [
    (1, 1, 3, 2), (2, 2, 5, 1), (1, 1, 11, 1), (2, 0, 3, 1), (3, 0, 2, 2),
    (1, 2, 3, 2), (2, 2, 2, 2),
]


def blocks(labelling) -> dict:
    """The flat label indices of each entry of `labelling`, increasing, keyed
    in order of first occurrence."""
    out: dict = {}
    for t, c in enumerate(labelling):
        out.setdefault(c, []).append(t)
    return out


def bfs_classes(spec):
    """Each class of `enumerate_canonical`, closed by BFS, as increasing flat
    label indices."""
    index = {ev: i for i, ev in enumerate(spec.labels())}
    return [
        sorted(index[ev] for ev in enumerate_equivalence_class(c, spec).members)
        for c in enumerate_canonical(spec)
    ]


def shape_labelling(spec):
    """`ss_basis._class_labelling` of the `_canonical_shapes`, as `verify`
    builds it."""
    shapes = (s[:2] for s in canonical._canonical_shapes(spec))
    return ss_basis._class_labelling(spec, shapes)


def per_label_classes(spec):
    """The class labelling with one `_canonical_form` per label: for every
    label, in label order, the position of its form among the sorted
    `_canonical_shapes`, or None if absent."""
    p, q = spec.p, spec.q
    index = {shape: i for i, shape in enumerate(sorted(canonical._canonical_shapes(spec)))}
    rng = range(q)
    return [
        index.get(_canonical_form(a, b, p, q))
        for a in itertools.product(rng, repeat=spec.m)
        for b in itertools.product(rng, repeat=spec.n)
    ]


class TestLabelClasses:
    # The class table reads each label's form at its sorted blocks; only this
    # test would see a form that depends on the order within a block.
    @pytest.mark.parametrize("t", LABELLING_SPECS)
    def test_form_depends_only_on_sorted_blocks(self, t):
        spec = TorusSpec(*t)
        p, q = spec.p, spec.q
        for ev in spec.labels():
            sorted_form = _canonical_form(tuple(sorted(ev.a)), tuple(sorted(ev.b)), p, q)
            assert _canonical_form(ev.a, ev.b, p, q) == sorted_form, ev

    # `verify` checks only that each shape's (a, b) is its own class; this
    # checks its defect, e and f too.
    @pytest.mark.parametrize("t", LABELLING_SPECS)
    def test_shapes_are_their_own_forms(self, t):
        spec = TorusSpec(*t)
        for shape in canonical._canonical_shapes(spec):
            assert _canonical_form(*shape[:2], spec.p, spec.q) == shape

    @pytest.mark.parametrize("t", LABELLING_SPECS)
    def test_table_labelling_equals_per_label_forms(self, t):
        spec = TorusSpec(*t)
        keys, label_class = shape_labelling(spec)
        assert isinstance(keys, array) and keys.typecode == "q"
        assert isinstance(label_class, array) and label_class.typecode == "q"
        shapes = sorted(canonical._canonical_shapes(spec))
        index = {(ev.a, ev.b): t for t, ev in enumerate(spec.labels())}
        assert list(keys) == [index[s[:2]] for s in shapes]
        assert list(label_class) == [
            -1 if c is None else c for c in per_label_classes(spec)
        ]

    @pytest.mark.parametrize("t", LABELLING_SPECS)
    def test_decoded_class_ids_are_the_sorted_shapes(self, t):
        spec = TorusSpec(*t)
        keys, label_class = shape_labelling(spec)
        shapes = sorted(canonical._canonical_shapes(spec))
        labels = list(spec.labels())
        oracle = per_label_classes(spec)
        assert None not in oracle
        for c, i in zip(oracle, label_class):
            ev = labels[keys[i]]
            assert (ev.a, ev.b) == shapes[c][:2]

    @pytest.mark.parametrize("t", LABELLING_SPECS)
    def test_grouped_buckets_partition_the_labels(self, t):
        spec = TorusSpec(*t)
        keys, label_class = shape_labelling(spec)
        members, offsets = ss_basis._grouped(label_class, len(keys))
        sizes = [hi - lo for lo, hi in zip(offsets, offsets[1:])]
        assert offsets[0] == 0 and all(sizes)
        assert sum(sizes) == len(members) == spec.dimension
        assert sorted(members) == list(range(spec.dimension))
        grouped = blocks(label_class)
        assert [list(members[lo:hi]) for lo, hi in zip(offsets, offsets[1:])] == [
            grouped[c] for c in range(len(keys))
        ]

    @pytest.mark.parametrize("t", LABELLING_SPECS)
    def test_class_sums_equal_bfs_class_sums(self, t):
        spec = TorusSpec(*t)
        assert list(class_sums(spec)) == [build_H(c, spec) for c in enumerate_canonical(spec)]

    @pytest.mark.parametrize("t", LABELLING_SPECS)
    def test_classes_equal_bfs_classes(self, t):
        spec = TorusSpec(*t)
        keys, label_class = shape_labelling(spec)
        grouped = blocks(label_class)
        classes = [grouped.get(i, []) for i in range(len(keys))]
        bfs = bfs_classes(spec)
        assert classes == bfs

    @pytest.mark.parametrize("t", LABELLING_SPECS)
    def test_closed_form_equals_canonicalize(self, t):
        spec = TorusSpec(*t)
        for ev in spec.labels():
            c = canonicalize(ev, spec)
            assert _canonical_form(ev.a, ev.b, spec.p, spec.q) == (
                c.ev.a, c.ev.b, c.defect, c.e, c.f
            ), ev

    # (1,1,3,1) runs the dense oracle, which builds elements; above the
    # threshold verify builds none at all, gl(1|1) generators included.
    @pytest.mark.parametrize("t", [(2, 1, 5, 1), (1, 1, 3, 1), (1, 1, 11, 1)])
    def test_verify_builds_no_class_objects(self, monkeypatch, t):
        def refuse(*args, **kwargs):
            raise AssertionError("verify_basis built a per-class object")

        spec = TorusSpec(*t)
        patched = [
            (canonical, "enumerate_equivalence_class"),
            (supersymmetry, "is_supersymmetric"),
        ]
        if spec.dimension > DENSE_ORACLE_MAX_N:
            patched.append((ss_basis, "TorusElement"))
        for module, name in patched:
            monkeypatch.setattr(module, name, refuse)
        for name in ("is_supersymmetric", "enumerate_equivalence_class", "build_H"):
            assert not hasattr(ss_basis, name)
        rep = verify_basis(spec)
        assert rep.passed, rep.failures

    def test_verify_memory_per_label(self):
        # At m = n = 1 nearly every label is its own class, so a shape tuple
        # and a dict entry per class cost about 290 bytes per label; class ids
        # as ranks in one array('q') of flat indices cost under 50.  The spec
        # is small because tracemalloc slows verify about threefold.
        spec = TorusSpec(1, 1, 53, 1)
        tracemalloc.start()
        try:
            rep = verify_basis(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.passed, rep.failures
        assert peak < 100 * spec.dimension


class TestLabelComponents:
    @pytest.mark.parametrize("t", [t for t in LABELLING_SPECS if t[1] >= 1])
    def test_roots_are_least_labels_of_the_bfs_classes(self, t):
        spec = TorusSpec(*t)
        root = ss_basis._label_components(spec)
        assert len(root) == spec.dimension
        assert all(root[s] <= s and root[root[s]] == root[s] for s in range(len(root)))
        assert list(blocks(root).values()) == sorted(bfs_classes(spec))

    @pytest.mark.parametrize("t", DEFAULT_GRID)
    def test_roots_group_into_dense_oracle_supports(self, t):
        spec = TorusSpec(*t)
        index = {ev: i for i, ev in enumerate(spec.labels())}
        supports = [sorted(index[ev] for ev in o.terms) for o in ss_nullspace_oracle(spec)]
        assert list(blocks(ss_basis._label_components(spec)).values()) == supports


def corrupt_one_class(monkeypatch, spec, mode):
    """Make `verify_basis` label one class wrongly: one member's form leaves
    the enumerated set ("drop"), a second class takes the target's form
    ("merge"), one member takes the form of the second class ("move"), or
    the target's own canonical label does ("move-canonical"), so that a
    canonical label is not its own form while every label still has a class.
    Returns the target and the second canonical label."""
    original = ss_basis._canonical_form
    canonicals = enumerate_canonical(spec)
    target = next(c for c in canonicals if len(enumerate_equivalence_class(c, spec).members) > 1)
    other = next(c for c in canonicals if c != target)
    member = next(ev for ev in enumerate_equivalence_class(target, spec).members if ev != target.ev)

    def form_of(c):
        return c.ev.a, c.ev.b, c.defect, c.e, c.f

    def corrupted(a, b, p, q):
        form = original(a, b, p, q)
        is_member = (a, b) == (member.a, member.b)
        if mode == "drop" and is_member:
            return ()
        if mode == "merge" and form == form_of(other):
            return form_of(target)
        if mode == "move" and is_member:
            return form_of(other)
        if mode == "move-canonical" and (a, b) == (target.ev.a, target.ev.b):
            return form_of(other)
        return form

    monkeypatch.setattr(ss_basis, "_canonical_form", corrupted)
    return target, other


# The failures of each corruption mode at (2,1,5,1) and (2,1,3,1), where the
# target is (0,0|0) and the second class (0,0|1).
PARTITION = "classes do not partition the label set"
NOT_SS = [f"class sum at {ev} is not supersymmetric" for ev in ("(0,0|0)", "(0,0|1)")]
SPAN = "class-sum span differs from the oracle span"
CORRUPTION_FAILURES = {
    "drop": [PARTITION, NOT_SS[0], SPAN],
    "merge": [PARTITION, "class sums are linearly dependent", SPAN],
    "move": NOT_SS + [SPAN],
    "move-canonical": [PARTITION] + NOT_SS + [SPAN],
}


class TestVerifyBasisCatchesCorruption:
    # (2,1,5,1) is above the dense threshold, (2,1,3,1) below it
    @pytest.mark.parametrize("t", [(2, 1, 5, 1), (2, 1, 3, 1)])
    @pytest.mark.parametrize("mode", CORRUPTION_FAILURES)
    def test_reports_failure(self, monkeypatch, capsys, t, mode):
        spec = TorusSpec(*t)
        target, other = corrupt_one_class(monkeypatch, spec, mode)
        assert (str(target.ev), str(other.ev)) == ("(0,0|0)", "(0,0|1)")
        rep = verify_basis(spec)
        assert not rep.passed
        assert rep.failures == CORRUPTION_FAILURES[mode]
        dim = {(2, 1, 5, 1): 55, (2, 1, 3, 1): 12}[t]
        assert rep.to_dict() == {
            "spec": dict(zip("mnpr", t), q=spec.q),
            "closed_form": dim,
            "enumerated": dim,
            "oracle_dim": dim,
            "h_basis_ok": False,
            "partition_ok": mode == "move",
            "gl11_span_ok": None,
        }
        argv = ["verify"] + [f"--{k}={v}" for k, v in zip("mnpr", t)]
        assert main(argv) == 1
        assert capsys.readouterr().err == "".join(
            f"FAIL {spec}: {failure}\n" for failure in CORRUPTION_FAILURES[mode]
        )


def corrupt_gl11_supports(monkeypatch, mode):
    """Make `verify_basis` see wrong gl(1|1) supports: the cyclic support
    absorbs the first singleton ("merge"), splits in two halves ("split"), or
    also lists the first singleton's label, ahead of it ("twice")."""
    original = ss_basis._gl11_supports

    def corrupted(p, q):
        *singles, cycle = original(p, q)
        if mode == "merge":
            return singles[1:] + [sorted(cycle + singles[0])]
        if mode == "split":
            return singles + [cycle[: q // 2], cycle[q // 2 :]]
        # listed last, the singleton alone would leave the labelling right
        return [sorted(cycle + singles[0])] + singles

    monkeypatch.setattr(ss_basis, "_gl11_supports", corrupted)


class TestVerifyBasisCatchesGl11Corruption:
    # (1,1,11,1) runs only the component oracle, (1,1,3,1) the dense one too
    @pytest.mark.parametrize("t", [(1, 1, 11, 1), (1, 1, 3, 1)])
    @pytest.mark.parametrize("mode", ["merge", "split", "twice"])
    def test_reports_failure(self, monkeypatch, capsys, t, mode):
        spec = TorusSpec(*t)
        corrupt_gl11_supports(monkeypatch, mode)
        rep = verify_basis(spec)
        assert rep.gl11_span_ok is False
        assert rep.failures == ["rank-(1|1) generators do not span the oracle space"]
        assert main(["verify"] + [f"--{k}={v}" for k, v in zip("mnpr", t)]) == 1
        assert capsys.readouterr().err == (
            f"FAIL {spec}: rank-(1|1) generators do not span the oracle space\n"
        )
