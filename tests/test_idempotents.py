import hashlib
import json
import os
import random
import resource
import subprocess
import sys
import time
import tracemalloc
from array import array
from functools import reduce
from itertools import compress
from pathlib import Path

import pytest

from sstorus import idempotents
from sstorus.cli import DEFAULT_GRID
from sstorus.idempotents import (
    _change_basis,
    evaluate_point,
    from_idempotent_basis,
    idempotent_h,
    multiply_idempotent_basis,
    to_idempotent_basis,
)
from sstorus.modp import _require_prime
from sstorus.torus import (
    Basis,
    ExponentVector,
    MismatchError,
    TorusElement,
    TorusSpec,
    _element,
    add,
    element_from_json,
    element_to_json,
    multiply,
    one,
    scale,
    zero,
)
from test_output_digest import SPECS as DIGEST_SPECS
from util import (
    _digit_tables,
    binom_mod_p,
    change_basis_by_lists,
    from_idempotent_by_h,
    idempotent_univariate,
    multiply_by_coordinate,
    multiply_by_linear,
    random_element,
)


DATA = Path(__file__).parent / "data"
SRC = Path(__file__).resolve().parents[1] / "src"


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

    def test_evaluate_point_keeps_no_table(self):
        # A q x q table of the binomials mod p peaks at 19.5 MiB at q = 1009.
        # Mod 1009, C(1008, 500) = (-1)^500 and C(7, 3) = 35.
        spec = TorusSpec(1, 1, 1009, 1)
        f = TorusElement(spec, Basis.BINOMIAL, {ExponentVector((500,), (3,)): 2})
        tracemalloc.start()
        try:
            assert evaluate_point(f, ExponentVector((1008,), (7,))) == 70
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


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

    def test_large_p_change_of_basis_matches_digest(self):
        # C(x,331) C(y,970) at (1,1,997,1), N = 994,009: 666 x 27 = 17,982
        # nonzero values, and back; the goldens are sha256s
        f = element_from_json((DATA / "to_idem_1_1_997_1_in.json").read_text())
        coords = to_idempotent_basis(f)
        back = from_idempotent_basis(coords)
        assert len(coords.coeffs) == 17982 and back == f
        for name, g in (("to_idem", coords), ("from_idem", back)):
            digest = hashlib.sha256((element_to_json(g) + "\n").encode()).hexdigest()
            assert f"{digest}  -\n" == (DATA / f"{name}_1_1_997_1.sha256").read_text(), name


SMALL_PRIMES = [p for p in range(2, 60) if all(p % k for k in range(2, p))]

# Every spec of the output digest, three larger primes and one variable at
# each prime below 60; a dense (2,2,5,2) is checked with all N terms only.
PACKED_SPECS = DIGEST_SPECS + [(1, 1, 97, 1), (1, 1, 211, 1), (1, 0, 1009, 1)]
PACKED_SPECS += [(1, 0, p, 1) for p in SMALL_PRIMES if (1, 0, p, 1) not in PACKED_SPECS]


def packed_cases(spec, sizes, seed):
    """Seeded elements of both bases with each number of terms in `sizes`,
    clipped to [1, N], with the basis and the digit table they change to."""
    rng = random.Random(seed)
    N, p = spec.dimension, spec.p
    B, B_inv = _digit_tables(p)
    changes = ((Basis.BINOMIAL, Basis.IDEMPOTENT, B), (Basis.IDEMPOTENT, Basis.BINOMIAL, B_inv))
    for size in sizes:
        for source, target, table in changes:
            support = rng.sample(range(N), min(max(size, 1), N))
            terms = [(t, rng.randrange(1, p)) for t in support]
            yield _element(spec, source, terms), target, table


class TestPackedAgainstLists:
    """The passes over packed 64-bit fields against the same passes over
    Python lists, reduced mod p after each one (`change_basis_by_lists`)."""

    @pytest.mark.parametrize("t", PACKED_SPECS + [(2, 2, 5, 2)])
    def test_matches_list_passes(self, monkeypatch, t):
        spec = TorusSpec(*t)
        N = spec.dimension
        sizes = (N,) if t == (2, 2, 5, 2) else (1, 8, N // 8, N)
        for f, target, table in packed_cases(spec, sizes, seed=sum(t) * 101):
            expected = change_basis_by_lists(f, table, target)
            assert _change_basis(f, target) == expected, (t, len(f.coeffs), target)
            # a limit of 2^16 makes the fields reduce mod p between passes
            with monkeypatch.context() as patched:
                patched.setattr(idempotents, "_FIELD_LIMIT", 1 << 16)
                assert _change_basis(f, target) == expected, (t, len(f.coeffs), target)

    @pytest.mark.parametrize("p", SMALL_PRIMES)
    def test_every_weight_of_the_digit_map(self, p):
        # the unit vector at digit d maps to column d of the Pascal table
        spec = TorusSpec(1, 0, p, 1)
        B, B_inv = _digit_tables(p)
        changes = ((Basis.BINOMIAL, Basis.IDEMPOTENT, B), (Basis.IDEMPOTENT, Basis.BINOMIAL, B_inv))
        for source, target, table in changes:
            for d in range(p):
                f = _element(spec, source, [(d, 1)])
                out = _change_basis(f, target)
                assert out == change_basis_by_lists(f, table, target), (p, d, target)
                assert out.coeffs == {e: row[d] for e, row in enumerate(table) if row[d]}

    # one pass from reduced fields stays below 2^16 at these p
    @pytest.mark.parametrize("t", [(1, 1, 7, 2), (1, 1, 13, 2), (2, 2, 5, 2)])
    def test_lowered_limit_bounds_every_field(self, monkeypatch, t):
        # Each pass writes its output through one `memoryview` of the vector,
        # taken once the input is read; `compress` reads the last output.  In
        # order, "fill" is the start vector or a reduction mod p.
        events, fields = [], []

        def seen(kind, vec):
            events.append(kind)
            fields.append(max(vec))

        def filling(typecode, init):
            events.append("fill")
            return array(typecode, init)

        def writing(vec):
            seen("pass", vec)
            return memoryview(vec)

        def emitting(data, vec):
            seen("end", vec)
            return compress(data, vec)

        monkeypatch.setattr(idempotents, "array", filling)
        monkeypatch.setattr(idempotents, "memoryview", writing, raising=False)
        monkeypatch.setattr(idempotents, "compress", emitting)
        monkeypatch.setattr(idempotents, "_FIELD_LIMIT", 1 << 16)
        spec = TorusSpec(*t)
        for f, target, table in packed_cases(spec, (8,), seed=7):
            events.clear()
            assert _change_basis(f, target) == change_basis_by_lists(f, table, target)
            assert events.count("pass") == (spec.m + spec.n) * spec.r
            assert events[0] == "fill" and events[-1] == "end", events
            assert "pass,fill" in ",".join(events), (t, target, events)
        assert 0 < max(fields) < 1 << 16

    # (spec, lowered limit, bytes per field): 32-bit fields wherever no pass,
    # unreduced, reaches 2^32 or the limit; (2,1,3,2) reaches 93,312 and
    # (2,2,5,1) 640,000, (1,1,2,10) 2^20, (1,1,997,1) about 1e15
    @pytest.mark.parametrize("t, limit, itemsize", [
        ((1, 1, 2, 10), None, 4), ((2, 1, 3, 2), None, 4), ((2, 2, 5, 1), None, 4),
        ((1, 1, 997, 1), None, 8), ((2, 2, 5, 1), 1 << 16, 8), ((1, 0, 3, 1), 1 << 16, 4),
    ])
    def test_field_width_follows_the_bound(self, monkeypatch, t, limit, itemsize):
        typecodes = []

        def filling(typecode, init):
            typecodes.append(typecode)
            return array(typecode, init)

        monkeypatch.setattr(idempotents, "array", filling)
        if limit:
            monkeypatch.setattr(idempotents, "_FIELD_LIMIT", limit)
        spec = TorusSpec(*t)
        f = _element(spec, Basis.BINOMIAL, [(spec.dimension - 1, 1)])  # one term each way
        coords = to_idempotent_basis(f)
        assert from_idempotent_basis(coords) == f
        # one fill per call, and one more per reduction mod p
        assert {array(c).itemsize for c in typecodes} == {itemsize}, typecodes

    def test_refuses_a_prime_whose_pass_could_overflow(self):
        # the least prime above 2,642,245; 2,642,246 is the largest p with
        # (p-1)^2 p < 2^64, so every larger prime is refused
        P = 2642257
        for n in range(2642246, P):
            with pytest.raises(ValueError):
                _require_prime(n)
        assert (P - 1) ** 2 * P >= 1 << 64 > 2642245**2 * 2642246
        assert 2642246**2 * 2642247 >= 1 << 64
        spec = TorusSpec(1, 0, P, 1)
        start = time.perf_counter()
        with pytest.raises(ValueError, match="too large for 64-bit fields"):
            to_idempotent_basis(one(spec))
        with pytest.raises(ValueError, match="too large for 64-bit fields"):
            from_idempotent_basis(_element(spec, Basis.IDEMPOTENT, [(5, 1)]))
        assert time.perf_counter() - start < 1


# C(x,5) at the largest prime below 10^6, and the dense element it converts
# to, in a child limited to 2 GB: each call prints its seconds.  Every input
# digit d >= 5 is live in the second call, which is about 5e11 units of work.
LARGE_P_CHILD = """
import json, random, time
from sstorus.idempotents import from_idempotent_basis, to_idempotent_basis
from sstorus.torus import Basis, ExponentVector, TorusElement, TorusSpec
p, k = 999983, 5
start = time.perf_counter()
monomial = TorusElement(TorusSpec(1, 0, p, 1), Basis.BINOMIAL, {ExponentVector((k,), ()): 1})
g = to_idempotent_basis(monomial)
to_s = time.perf_counter() - start
sample = [0, k - 1, k, k + 1, p - 1] + random.Random(5).sample(range(p), 200)
start = time.perf_counter()
try:
    from_idempotent_basis(g)
    refused = None
except ValueError as exc:
    refused = str(exc)
print(json.dumps({
    "to_s": to_s, "terms": len(g.coeffs), "sample": [[v, g.coeffs.get(v, 0)] for v in sample],
    "from_s": time.perf_counter() - start, "refused": refused,
}))
"""


class TestChangeWork:
    """The work bound of `_change_basis`: each pass adds p - d for each live
    input digit d, times N/p fields."""

    def test_work_counts_each_live_digit(self, monkeypatch):
        # C(x,4) C(y,7) at (1,1,13,1): towards idempotent coordinates only y
        # digit 7, then only x digit 4 is live, so the work is (6 + 9) 13; back,
        # y digits 7..12 (21 terms), then x digits 4..12 (45 terms): 66 * 13
        spec = TorusSpec(1, 1, 13, 1)
        f = monomial(spec, (4,), (7,))
        monkeypatch.setattr(idempotents, "MAX_CHANGE_WORK", 15 * 13)
        coords = to_idempotent_basis(f)
        monkeypatch.setattr(idempotents, "MAX_CHANGE_WORK", 66 * 13)
        assert from_idempotent_basis(coords) == f
        monkeypatch.setattr(idempotents, "MAX_CHANGE_WORK", 66 * 13 - 1)
        with pytest.raises(ValueError, match="too much work"):
            from_idempotent_basis(coords)
        monkeypatch.setattr(idempotents, "MAX_CHANGE_WORK", 15 * 13 - 1)
        with pytest.raises(ValueError, match="too much work"):
            to_idempotent_basis(f)

    def test_bound_admits_dense_997_and_refuses_dense_3001(self):
        # one dense pass: every digit d live, p (p + 1) / 2 terms on N/p fields
        def dense_pass(m, n, p, r):
            return p * (p + 1) // 2 * p ** ((m + n) * r - 1)

        assert 2 * dense_pass(1, 1, 997, 1) <= idempotents.MAX_CHANGE_WORK
        assert dense_pass(1, 1, 3001, 1) > idempotents.MAX_CHANGE_WORK

    def test_large_p_monomial_converts_and_dense_result_is_refused(self):
        proc = subprocess.run(
            [sys.executable, "-c", LARGE_P_CHILD],
            capture_output=True,
            text=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": str(SRC)},
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30)),
        )
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout)
        p, k = 999983, 5
        assert out["to_s"] < 10 and out["terms"] == p - k
        for v, c in out["sample"]:
            assert c == binom_mod_p(v, k, p), v
        assert out["from_s"] < 10 and "too much work" in out["refused"]


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
