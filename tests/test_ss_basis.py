import itertools
import random
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
from util import (
    _label_components,
    build_H,
    build_Ha_by_labels,
    coeff_vectors,
    divisibility_rows_by_element,
    per_label,
    shape_is_canonical,
    split_sum_total,
)


class TestFpLinalg:
    def test_rref_and_rank(self):
        rows, pivots = fp_linalg.rref([[1, 2], [2, 4], [0, 1]], 5)
        assert pivots == [0, 1]
        assert rows == [[1, 0], [0, 1]]
        assert fp_linalg.rref([[1, 2], [2, 4]], 5) == ([[1, 2]], [0])

    def test_nullspace(self):
        basis = fp_linalg.nullspace_basis([[1, 1, 0]], 3, 3)
        assert basis == [[1, 2, 0], [0, 0, 1]]
        for vec in basis:
            assert sum(a * b for a, b in zip([1, 1, 0], vec)) % 3 == 0

    def test_nullspace_no_constraints(self):
        assert fp_linalg.nullspace_basis([], 2, 2) == [[1, 0], [0, 1]]

    def test_same_row_space(self):
        assert fp_linalg.rref([[1, 1]], 3) == fp_linalg.rref([[2, 2]], 3)
        assert fp_linalg.rref([[1, 0]], 3) != fp_linalg.rref([[0, 1]], 3)

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
    def test_rref_equality_is_the_three_rank_criterion(self, p):
        # Two families span the same row space exactly when rank A = rank B
        # = rank (A stacked on B); `verify_basis` compares reduced echelon
        # forms instead.
        def rank(rows):
            return len(fp_linalg.rref(rows, p)[0])

        def combos(rows, k, ncols):
            out = []
            for _ in range(k):
                ws = [rng.randrange(p) for _ in rows]
                out.append([sum(w * row[c] for w, row in zip(ws, rows)) % p for c in range(ncols)])
            return out

        rng = random.Random(2800 + p)
        outcomes = set()
        for trial in range(60):
            ncols, nrows = rng.randint(1, 6), rng.randint(0, 5)
            a = [[rng.randrange(p) for _ in range(ncols)] for _ in range(nrows)]
            kind = trial % 5
            if kind == 0:  # random
                b = [[rng.randrange(p) for _ in range(ncols)] for _ in range(rng.randint(0, 5))]
            elif kind == 1:  # combinations of A's rows, often spanning A's space
                b = combos(a, rng.randint(0, 6), ncols)
            elif kind == 2:  # A's rows repeated, scaled and shuffled
                b = [[v * rng.randrange(1, p) % p for v in row] for row in a + a[:2]]
                rng.shuffle(b)
            elif kind == 3:  # rank-deficient A: its last row combines the others
                a = a + combos(a, 1, ncols)
                b = combos(a, len(a), ncols)
            else:  # empty or all-zero families
                a, b = [], [[0] * ncols for _ in range(rng.randint(0, 2))]
            same = rank(a) == rank(b) == rank(a + b)
            assert (fp_linalg.rref(a, p)[0] == fp_linalg.rref(b, p)[0]) == same, (a, b)
            outcomes.add(same)
        assert outcomes == {True, False}


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
        assert list(ss_component_oracle(spec)) == ss_nullspace_oracle(spec)

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
            oracle = coeff_vectors(ss_nullspace_oracle(spec), labels)
            assert fp_linalg.rref(oracle, p)[0] == oracle
            assert fp_linalg.rref(coeff_vectors(gl11_generators(spec), labels), p)[0] == oracle

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

    def test_general_form_covers_the_rank_one_block_forms(self):
        # The special forms for m = 1 or n = 1 that the general form replaced,
        # and the split sum over every (e, f) >= (1, 1) for all (m, n).
        def rank_one_block(m, n, p, q):
            qp = q // p
            if m == 1 and n == 1:
                return q * (q - qp) + qp
            if n == 1:
                return q * comb(q - qp + m - 1, m) + qp * comb(p + m - 2, m - 1)
            if m == 1:
                return q * comb(q - qp + n - 1, n) + qp * comb(p + n - 2, n - 1)
            return None

        checked = 0
        for m, n, p, r in itertools.product(range(1, 7), range(1, 7), (2, 3, 5, 7, 11), (1, 2, 3)):
            q = p**r
            dim = dim_closed_form(TorusSpec(m, n, p, r, cap=q ** (m + n)))
            assert dim == split_sum_total(m, n, q, p), (m, n, p, r)
            special = rank_one_block(m, n, p, q)
            assert special in (None, dim), (m, n, p, r)
            checked += special is not None
        assert checked == 11 * 5 * 3


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
            assert len(fp_linalg.rref(vecs, spec.p)[0]) == len(basis)
            for k in range(len(vecs)):
                reduced = fp_linalg.rref(vecs[:k] + vecs[k + 1 :], spec.p)[0]
                assert len(reduced) == len(basis) - 1


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


# (2,2,3,2) has 6,561 labels and n, r >= 2.
@pytest.mark.parametrize("t", LABELLING_SPECS + [(1, 0, 7, 1), (2, 2, 3, 2)])
def test_build_Ha_matches_label_walk(t):
    spec = TorusSpec(*t)
    for a in range(spec.q):
        assert build_Ha(spec, a) == build_Ha_by_labels(spec, a), a


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
    builds it: the keys, and the table read out to every label by `per_label`."""
    shapes = (s[:2] for s in canonical._canonical_shapes(spec))
    keys, table = ss_basis._class_labelling(spec, shapes)
    return keys, per_label(spec, table)


def verify_peak(spec):
    """The tracemalloc peak, in bytes, of a passing `verify_basis(spec)`."""
    tracemalloc.start()
    try:
        rep = verify_basis(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.passed, rep.failures
    return peak


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
        shapes = (s[:2] for s in canonical._canonical_shapes(spec))
        for made in ss_basis._class_labelling(spec, shapes):
            assert isinstance(made, array) and made.typecode == "q"
        keys, label_class = shape_labelling(spec)
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

    # The buckets are the supports of `_indicators`' elements, one per id.
    @pytest.mark.parametrize("t", LABELLING_SPECS)
    def test_grouped_buckets_partition_the_labels(self, t):
        spec = TorusSpec(*t)
        shapes = (s[:2] for s in canonical._canonical_shapes(spec))
        keys, table = ss_basis._class_labelling(spec, shapes)
        elements = list(ss_basis._indicators(spec, table))
        assert all(e.basis is Basis.IDEMPOTENT and set(e.coeffs.values()) == {1} for e in elements)
        supports = [list(e.coeffs) for e in elements]
        assert all(s == sorted(s) for s in supports)
        assert sorted(itertools.chain(*supports)) == list(range(spec.dimension))
        # ids in increasing order: each support holds the flat index of its key
        assert len(supports) == len(keys)
        assert all(k in s for k, s in zip(keys, supports))
        grouped = blocks(per_label(spec, table))
        assert supports == [grouped[c] for c in range(len(keys))]

    def test_indicators_skip_negative_and_unused_ids(self):
        # (2,1,3,1): 6 x 3 pairs.  Ids 0, 2 and 5 are taken; -1 and the
        # unused 1, 3 and 4 yield no element.
        spec = TorusSpec(2, 1, 3, 1)
        rng = random.Random(18)
        per_pair = array("q", [rng.choice([-1, 0, 2, 5]) for _ in range(18)])
        per_pair[:4] = array("q", [-1, 0, 2, 5])
        labelled = per_label(spec, per_pair)
        expected = [
            [t for t, c in enumerate(labelled) if c == i] for i in (0, 2, 5)
        ]
        elements = list(ss_basis._indicators(spec, per_pair))
        assert [list(e.coeffs) for e in elements] == expected
        assert sum(map(len, expected)) == spec.dimension - labelled.count(-1) < spec.dimension

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
        # as ranks in one array('q') of flat indices cost under 50.  The
        # gl(1|1) check holds no per-label array of its own: with one, the
        # peak was 35.8 to 37.7 bytes per label on Python 3.10 to 3.12, and
        # without it 28.3 to 29.7.  The spec is small because tracemalloc
        # slows verify about threefold.
        spec = TorusSpec(1, 1, 101, 1)
        assert verify_peak(spec) < 32 * spec.dimension

    def test_verify_memory_per_label_where_pairs_are_fewer(self):
        # At (3,3,5,1) there are 1,225 pairs of sorted blocks for 15,625
        # labels: both partitions and the union-find are held per pair, and
        # the keys per canonical label; the peak is 3.0 bytes per label.
        spec = TorusSpec(3, 3, 5, 1)
        assert verify_peak(spec) < 8 * spec.dimension

    def test_verify_memory_past_the_default_cap(self):
        # (8,8,3,1) has 3^16 = 43,046,721 labels, 2,025 pairs of sorted
        # blocks and 217 canonical labels: a byte per label would be 41 MiB,
        # and the peak is 1.5 MiB (Python 3.11).
        assert verify_peak(TorusSpec(8, 8, 3, 1, cap=10**8)) < 4 * 2**20

    def test_verify_memory_below_the_unsorted_blocks(self):
        # (10,10,3,1) has 3^10 = 59,049 blocks a side, past the decoding
        # tables' limit, against 4,356 pairs of sorted blocks and 331
        # canonical labels.  Each label finds its pair from its own decoded
        # blocks: the peak is 0.5 MiB, and 1.4 MiB with a table of every
        # unsorted block (Python 3.11).
        assert verify_peak(TorusSpec(10, 10, 3, 1, cap=10**10)) < 2**20


def pair_flats(spec):
    """The flat indices of the labels with both blocks sorted, increasing:
    the pairs of sorted blocks in the order of `_class_labelling`'s table."""
    return [
        t for t, ev in enumerate(spec.labels())
        if list(ev.a) == sorted(ev.a) and list(ev.b) == sorted(ev.b)
    ]


# (2,2,3,2) and (2,2,5,2) have many labels per pair; (3,3,3,1) and (3,2,5,1)
# have three-element blocks.
PAIR_SPECS = [t for t in LABELLING_SPECS if t[1] >= 1] + [
    (2, 2, 3, 2), (3, 2, 5, 1), (3, 3, 3, 1), (2, 2, 5, 2),
]


class TestCanonicalShapeOrder:
    # `_class_labelling` ranks the keys by bisection, so the shapes must come
    # in lexicographic order of (a, b); (1,1,2,3), (2,1,2,2), (1,2,2,3) and
    # (3,1,2,2) add p = 2 with r >= 2.
    @pytest.mark.parametrize("t", sorted({
        *LABELLING_SPECS, *PAIR_SPECS, (1, 1, 2, 3), (2, 1, 2, 2), (1, 2, 2, 3), (3, 1, 2, 2)
    }))
    def test_shapes_come_in_label_order(self, t):
        spec = TorusSpec(*t)
        pairs = [s[:2] for s in canonical._canonical_shapes(spec)]
        assert all(x < y for x, y in zip(pairs, pairs[1:]))
        assert pairs == [(ev.a, ev.b) for ev in spec.labels() if shape_is_canonical(ev, spec)]


class TestLabelComponents:
    # the per-label reference in tests/util.py
    @pytest.mark.parametrize("t", [t for t in LABELLING_SPECS if t[1] >= 1])
    def test_roots_are_least_labels_of_the_bfs_classes(self, t):
        spec = TorusSpec(*t)
        root = _label_components(spec)
        assert len(root) == spec.dimension
        assert all(root[s] <= s and root[root[s]] == root[s] for s in range(len(root)))
        assert list(blocks(root).values()) == sorted(bfs_classes(spec))

    @pytest.mark.parametrize("t", DEFAULT_GRID)
    def test_roots_group_into_dense_oracle_supports(self, t):
        spec = TorusSpec(*t)
        index = {ev: i for i, ev in enumerate(spec.labels())}
        supports = [sorted(index[ev] for ev in o.terms) for o in ss_nullspace_oracle(spec)]
        root = per_label(spec, ss_basis._pair_components(spec))
        assert list(blocks(root).values()) == supports

    @pytest.mark.parametrize("t", PAIR_SPECS)
    def test_pair_roots_broadcast_to_the_label_roots(self, t):
        spec = TorusSpec(*t)
        root = ss_basis._pair_components(spec)
        flats = pair_flats(spec)
        assert isinstance(root, array) and root.typecode == "q"
        assert len(root) == len(flats) == comb(spec.q + spec.m - 1, spec.m) * comb(
            spec.q + spec.n - 1, spec.n
        )
        assert all(root[s] <= s and root[root[s]] == root[s] for s in range(len(root)))
        labelled = per_label(spec, root)
        assert [flats[r] for r in labelled] == list(_label_components(spec))


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


def corrupt_shapes(monkeypatch, mode):
    """Make `verify_basis` read the canonical shapes with the first one
    twice ("repeat") or with the first two exchanged ("swap")."""
    original = ss_basis._canonical_shapes

    def corrupted(spec):
        first, second, *rest = original(spec)
        return iter([first, first, second, *rest] if mode == "repeat" else [second, first, *rest])

    monkeypatch.setattr(ss_basis, "_canonical_shapes", corrupted)


class TestVerifyBasisCatchesShapeCorruption:
    # A repeated label takes no rank of its own, and two labels out of order
    # misplace the ranks: either way some class sum is empty.
    @pytest.mark.parametrize("t", [(2, 1, 5, 1), (2, 1, 3, 1)])
    @pytest.mark.parametrize("mode", ["repeat", "swap"])
    def test_reports_failure(self, monkeypatch, capsys, t, mode):
        spec = TorusSpec(*t)
        corrupt_shapes(monkeypatch, mode)
        dim = {(2, 1, 5, 1): 55, (2, 1, 3, 1): 12}[t]
        enumerated = dim + (mode == "repeat")
        expected = [PARTITION, "class sums are linearly dependent", SPAN]
        if mode == "repeat":
            expected.append(f"count mismatch: closed form {dim}, enumerated {enumerated}")
        rep = verify_basis(spec)
        assert rep.failures == expected
        assert (rep.enumerated, rep.oracle_dim, rep.partition_ok, rep.h_basis_ok) == (
            enumerated, dim, False, False
        )
        argv = ["verify"] + [f"--{k}={v}" for k, v in zip("mnpr", t)]
        assert main(argv) == 1
        assert capsys.readouterr().err == "".join(f"FAIL {spec}: {f}\n" for f in expected)


def corrupt_gl11_supports(monkeypatch, mode):
    """Make `verify_basis` see wrong gl(1|1) supports: the cyclic support
    absorbs the first singleton ("merge"), splits in two halves ("split"),
    also lists the first singleton's label, ahead of it ("twice"), or loses
    its last label ("drop"); or the first two singletons merge ("merge-singles");
    or the first singleton is listed twice and the cyclic support loses its
    last label, so that the sizes still sum to N ("repeat")."""
    original = ss_basis._gl11_supports

    def corrupted(p, q):
        *singles, cycle = original(p, q)
        if mode == "merge":
            return singles[1:] + [sorted(cycle + singles[0])]
        if mode == "split":
            return singles + [cycle[: q // 2], cycle[q // 2 :]]
        if mode == "drop":
            return singles + [cycle[:-1]]
        if mode == "merge-singles":
            return [singles[0] + singles[1]] + singles[2:] + [cycle]
        if mode == "repeat":
            return singles[:1] + singles + [cycle[:-1]]
        # listed last, the singleton alone would leave the labelling right
        return [sorted(cycle + singles[0])] + singles

    monkeypatch.setattr(ss_basis, "_gl11_supports", corrupted)


class TestVerifyBasisCatchesGl11Corruption:
    # (1,1,11,1) runs only the component oracle, (1,1,3,1) the dense one too
    @pytest.mark.parametrize("t", [(1, 1, 11, 1), (1, 1, 3, 1)])
    @pytest.mark.parametrize(
        "mode", ["merge", "split", "twice", "drop", "merge-singles", "repeat"]
    )
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


def corrupt_components(monkeypatch, mode):
    """Make `verify_basis` see wrong component roots: the first entry that is
    not a root becomes a root of its own ("split"), or the component of the
    second root joins the first ("merge")."""
    original = ss_basis._pair_components

    def corrupted(spec):
        root = original(spec)
        if mode == "split":
            s = next(s for s, r in enumerate(root) if r != s)
            root[s] = s
        else:
            first, second = [s for s, r in enumerate(root) if r == s][:2]
            for s, r in enumerate(root):
                if r == second:
                    root[s] = first
        return root

    monkeypatch.setattr(ss_basis, "_pair_components", corrupted)


# The failures of each component corruption mode, pinned from the union-find
# over every label: a split root adds a dimension, a merge removes one and
# mixes the classes of the first two roots.
DISAGREE = "the dense and component oracles disagree"
COMPONENT_FAILURES = {
    ((2, 1, 5, 1), "split"): [SPAN, "oracle dimension 56 differs from closed form 55"],
    ((2, 1, 5, 1), "merge"): NOT_SS + [SPAN, "oracle dimension 54 differs from closed form 55"],
    ((2, 1, 3, 1), "split"): [DISAGREE, SPAN, "oracle dimension 13 differs from closed form 12"],
    ((2, 1, 3, 1), "merge"): NOT_SS + [
        DISAGREE, SPAN, "oracle dimension 11 differs from closed form 12"
    ],
    ((2, 2, 5, 1), "split"): [SPAN, "oracle dimension 132 differs from closed form 131"],
    ((2, 2, 5, 1), "merge"): [
        "class sum at (0,0|0,0) is not supersymmetric",
        "class sum at (0,0|0,1) is not supersymmetric",
        SPAN,
        "oracle dimension 130 differs from closed form 131",
    ],
}


class TestVerifyBasisCatchesComponentCorruption:
    # (2,1,3,1) runs the dense oracle too; (2,2,5,1) has several labels per pair
    @pytest.mark.parametrize("t, mode", COMPONENT_FAILURES)
    def test_reports_failure(self, monkeypatch, capsys, t, mode):
        spec = TorusSpec(*t)
        expected = COMPONENT_FAILURES[t, mode]
        corrupt_components(monkeypatch, mode)
        rep = verify_basis(spec)
        assert rep.failures == expected
        assert (rep.partition_ok, rep.h_basis_ok) == (True, False)
        assert rep.oracle_dim == dim_closed_form(spec) + (1 if mode == "split" else -1)
        argv = ["verify"] + [f"--{k}={v}" for k, v in zip("mnpr", t)]
        assert main(argv) == 1
        assert capsys.readouterr().err == "".join(f"FAIL {spec}: {f}\n" for f in expected)
