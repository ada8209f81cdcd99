from math import comb

import pytest

from sstorus import fp_linalg, ss_basis
from sstorus.canonical import (
    EquivClass,
    canonicalize,
    count_canonical_total,
    enumerate_canonical,
    enumerate_equivalence_class,
    is_ordinary,
)
from sstorus.cli import DEFAULT_GRID, main
from sstorus.ss_basis import (
    DENSE_ORACLE_MAX_N,
    build_H,
    build_Ha,
    build_special,
    dim_closed_form,
    gl11_generators,
    ss_component_oracle,
    ss_nullspace_oracle,
    verify_basis,
)
from sstorus.supersymmetry import is_supersymmetric, symmetrize
from sstorus.torus import (
    Basis,
    CapExceededError,
    ExponentVector,
    TorusElement,
    TorusSpec,
    add,
    zero,
)
from util import coeff_vectors


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
        with pytest.raises(ValueError):
            build_Ha(TorusSpec(1, 1, 2, 1), 2)


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

    def test_all_pairs_diagnostic_agrees(self):
        for t in ((2, 1, 3, 1), (2, 2, 2, 1), (1, 2, 3, 1)):
            spec = TorusSpec(*t)
            fast = ss_nullspace_oracle(spec)
            slow = ss_nullspace_oracle(spec, all_pairs=True)
            labels = list(spec.labels())
            assert len(fast) == len(slow)
            assert fp_linalg.same_row_space(
                coeff_vectors(fast, labels), coeff_vectors(slow, labels), spec.p
            )

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


class TestComponentOracle:
    @pytest.mark.parametrize("t", DEFAULT_GRID + [(2, 1, 2, 2), (1, 1, 3, 2), (2, 1, 5, 1)])
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


def corrupt_one_class(monkeypatch, spec, mode):
    """Make `verify_basis` see one wrong class: a member dropped, or a second
    class merged into it."""
    original = ss_basis.enumerate_equivalence_class
    canonicals = enumerate_canonical(spec)
    target = next(c for c in canonicals if len(original(c, spec).members) > 1)
    other = next(c for c in canonicals if c != target)

    def corrupted(c, sp):
        cls = original(c, sp)
        if c != target:
            return cls
        if mode == "drop":
            return EquivClass(c, cls.members[1:])
        merged = set(cls.members) | set(original(other, sp).members)
        return EquivClass(c, tuple(sorted(merged)))

    monkeypatch.setattr(ss_basis, "enumerate_equivalence_class", corrupted)


class TestVerifyBasisCatchesCorruption:
    # (2,1,5,1) is above the dense threshold, (2,1,3,1) below it
    @pytest.mark.parametrize("t", [(2, 1, 5, 1), (2, 1, 3, 1)])
    @pytest.mark.parametrize("mode", ["drop", "merge"])
    def test_reports_failure(self, monkeypatch, capsys, t, mode):
        spec = TorusSpec(*t)
        corrupt_one_class(monkeypatch, spec, mode)
        rep = verify_basis(spec)
        assert not rep.passed
        assert not rep.partition_ok and not rep.h_basis_ok
        assert "class-sum span differs from the oracle span" in rep.failures
        if mode == "merge":
            assert "class sums are linearly dependent" in rep.failures
        argv = ["verify"] + [f"--{k}={v}" for k, v in zip("mnpr", t)]
        assert main(argv) == 1
        assert "FAIL" in capsys.readouterr().err
