import hashlib
import json
import os
import resource
import subprocess
import sys
import tracemalloc
from math import comb
from pathlib import Path

import pytest

from sstorus import canonical, idempotents, ss_basis
from sstorus.canonical import _canonical_shapes, count_c, enumerate_canonical
from sstorus.cli import DEFAULT_GRID, _emit_list, main
from sstorus.idempotents import idempotent_h
from sstorus.torus import (
    Basis,
    ExponentVector,
    TorusElement,
    TorusSpec,
    element_from_dict,
    element_to_dict,
    element_to_json,
    multiply,
    one,
)
from util import build_H, element_documents

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def spec_flags(m, n, p, r):
    return ["--m", str(m), "--n", str(n), "--p", str(p), "--r", str(r)]


def write_element(tmp_path, name, element):
    path = tmp_path / name
    path.write_text(element_to_json(element))
    return str(path)


@pytest.fixture
def spec11():
    return TorusSpec(1, 1, 2, 1)


class TestMul:
    def test_identity(self, capsys, tmp_path, spec11):
        f = TorusElement(
            spec11,
            Basis.BINOMIAL,
            {ExponentVector((1,), (0,)): 1, ExponentVector((0,), (1,)): 1},
        )
        lhs = write_element(tmp_path, "one.json", one(spec11))
        rhs = write_element(tmp_path, "f.json", f)
        code, out, _ = run(capsys, "mul", lhs, rhs)
        assert code == 0
        assert element_from_dict(json.loads(out)) == f

    def test_x_squared(self, capsys, tmp_path, spec11):
        x = TorusElement(spec11, Basis.BINOMIAL, {ExponentVector((1,), (0,)): 1})
        path = write_element(tmp_path, "x.json", x)
        code, out, _ = run(capsys, "mul", path, path)
        assert code == 0
        assert element_from_dict(json.loads(out)) == x

    def test_idempotent_inputs(self, capsys, tmp_path, spec11):
        u = TorusElement(spec11, Basis.IDEMPOTENT, {ExponentVector((0,), (0,)): 1})
        v = TorusElement(spec11, Basis.IDEMPOTENT, {ExponentVector((1,), (0,)): 1})
        pu = write_element(tmp_path, "u.json", u)
        pv = write_element(tmp_path, "v.json", v)
        code, out, _ = run(capsys, "mul", pu, pv)
        assert code == 0
        assert json.loads(out)["terms"] == []

    @pytest.mark.parametrize("basis", [Basis.BINOMIAL, Basis.IDEMPOTENT])
    def test_output_is_json_dumps_of_product(self, capsys, tmp_path, basis):
        spec = TorusSpec(2, 1, 3, 1)
        ev = ExponentVector
        f = TorusElement(spec, basis, {ev((1, 2), (0,)): 2, ev((0, 1), (2,)): 1, ev((2, 2), (1,)): 1})
        g = TorusElement(spec, basis, {ev((1, 2), (0,)): 2, ev((0, 1), (2,)): 2, ev((0, 0), (0,)): 1})
        product = f * g
        assert len(product.terms) >= 2
        code, out, _ = run(
            capsys, "mul", write_element(tmp_path, "f.json", f), write_element(tmp_path, "g.json", g)
        )
        assert code == 0
        assert out == json.dumps(element_to_dict(product), indent=2) + "\n"

    def test_dense_output_matches_golden(self, capsys):
        # two seeded operands of 92 terms each at (2,1,3,2), N = 729
        lhs, rhs = (str(DATA / f"mul_2_1_3_2_{side}.json") for side in ("lhs", "rhs"))
        code, out, err = run(capsys, "mul", lhs, rhs)
        assert code == 0
        assert err == ""
        assert out == (DATA / "mul_2_1_3_2.json").read_text()

    def test_unbalanced_sparse_output_matches_golden(self, capsys):
        # one term each at (2,0,3137,1), N = 3137^2: 7,208 product terms whose
        # labels are decoded from their own blocks; the golden is a sha256.
        lhs, rhs = (str(DATA / f"mul_2_0_3137_1_{side}.json") for side in ("lhs", "rhs"))
        code, out, err = run(capsys, "mul", lhs, rhs)
        assert (code, err) == (0, "")
        assert len(json.loads(out)["terms"]) == 7208
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert f"{digest}  -\n" == (DATA / "mul_2_0_3137_1.sha256").read_text()

    def test_dense_times_sparse_output_matches_golden(self, capsys):
        # 79 terms times 8 at (2,2,5,1), N = 625; the golden is a sha256
        lhs, rhs = (str(DATA / f"mul_2_2_5_1_{side}.json") for side in ("lhs", "rhs"))
        code, out, err = run(capsys, "mul", lhs, rhs)
        assert (code, err) == (0, "")
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert f"{digest}  -\n" == (DATA / "mul_2_2_5_1.sha256").read_text()

    def test_dense_product_past_the_change_work_bound_multiplies_pairwise(
        self, capsys, tmp_path, monkeypatch
    ):
        # f f at (1,1,3,1) expands to more than 3 (m + n) r N = 54 terms
        # before its last row, so it changes basis; with every digit live a
        # change of basis there is 2 * 9 * 4 / 2 = 36, so with the bound at
        # 17 it stays pairwise.
        spec = TorusSpec(1, 1, 3, 1)
        f = TorusElement(spec, Basis.BINOMIAL, {ev: 1 for ev in spec.labels()})
        path = write_element(tmp_path, "f.json", f)
        code, expected, _ = run(capsys, "mul", path, path)
        assert code == 0
        monkeypatch.setattr(idempotents, "MAX_CHANGE_WORK", 17)
        monkeypatch.setattr(idempotents, "_change_basis", None)
        assert run(capsys, "mul", path, path) == (0, expected, "")

    def test_spec_mismatch_exits_2(self, capsys, tmp_path, spec11):
        lhs = write_element(tmp_path, "a.json", one(spec11))
        rhs = write_element(tmp_path, "b.json", one(TorusSpec(1, 1, 3, 1)))
        code, _, err = run(capsys, "mul", lhs, rhs)
        assert code == 2
        assert "error" in err

    def test_basis_mismatch_exits_2(self, capsys, tmp_path, spec11):
        f = one(spec11)
        g = TorusElement(spec11, Basis.IDEMPOTENT, {ExponentVector((0,), (0,)): 1})
        pf = write_element(tmp_path, "f.json", f)
        pg = write_element(tmp_path, "g.json", g)
        code, _, _ = run(capsys, "mul", pf, pg)
        assert code == 2

    def test_bad_json_exits_2(self, capsys, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{not json")
        code, _, _ = run(capsys, "mul", str(path), str(path))
        assert code == 2


class TestCanonical:
    def test_gl11_r2(self, capsys):
        code, out, _ = run(
            capsys, "canonical", "--m", "1", "--n", "1", "--p", "2", "--r", "2", "1|3"
        )
        assert code == 0
        data = json.loads(out)
        assert data == {
            "canonical": {"a": [0], "b": [0]},
            "defect": 1,
            "e": 1,
            "f": 1,
            "class_size": 4,
        }

    def test_gl11_r1(self, capsys):
        code, out, _ = run(
            capsys, "canonical", "--m", "1", "--n", "1", "--p", "2", "--r", "1", "1|1"
        )
        assert code == 0
        assert json.loads(out)["canonical"] == {"a": [0], "b": [0]}

    def test_defect_zero(self, capsys):
        code, out, _ = run(
            capsys, "canonical", "--m", "1", "--n", "1", "--p", "2", "--r", "1", "1|0"
        )
        assert code == 0
        data = json.loads(out)
        assert data["canonical"] == {"a": [1], "b": [0]}
        assert data["defect"] == 0
        assert data["e"] is None

    @pytest.mark.parametrize(
        "golden, flags",
        [
            ("canonical_2_2_3_1_defect1.json", (*spec_flags(2, 2, 3, 1), "1,2|2,0")),
            ("canonical_1_1_2_2.json", (*spec_flags(1, 1, 2, 2), "3|3")),
            ("canonical_2_2_3_1_defect0.json", (*spec_flags(2, 2, 3, 1), "2,1|0,0")),
        ],
    )
    def test_output_matches_golden(self, capsys, golden, flags):
        code, out, err = run(capsys, "canonical", *flags)
        assert (code, err) == (0, "")
        assert out == (DATA / golden).read_text()

    def test_invalid_tuple_exits_2(self, capsys):
        code, _, _ = run(
            capsys, "canonical", "--m", "1", "--n", "1", "--p", "2", "--r", "1", "1,2|0"
        )
        assert code == 2
        code, _, _ = run(
            capsys, "canonical", "--m", "1", "--n", "1", "--p", "2", "--r", "1", "5|0"
        )
        assert code == 2


BASIS_CASES = [
    pytest.param((2, 2, 3, 1), (), id="class-sums"),
    pytest.param((2, 2, 3, 1), ("--oracle",), id="oracle"),
    pytest.param((1, 1, 3, 2), (), id="class-sums-1-1-3-2"),
    pytest.param((1, 1, 3, 2), ("--oracle",), id="oracle-1-1-3-2"),
    pytest.param((2, 1, 5, 1), (), id="class-sums-2-1-5-1"),
    pytest.param((2, 1, 5, 1), ("--oracle",), id="oracle-2-1-5-1"),
    pytest.param((2, 0, 3, 1), (), id="class-sums-2-0-3-1"),
    pytest.param((2, 2, 5, 1), (), id="class-sums-2-2-5-1"),
    pytest.param((3, 1, 2, 2), (), id="class-sums-3-1-2-2"),
    pytest.param((1, 1, 11, 1), (), id="class-sums-1-1-11-1"),
]


class TestBasis:
    def test_counts(self, capsys):
        code, out, _ = run(capsys, "basis", "--m", "1", "--n", "1", "--p", "2", "--r", "1")
        assert code == 0
        assert len(json.loads(out)) == 3
        code, out, _ = run(capsys, "basis", "--m", "2", "--n", "1", "--p", "3", "--r", "1")
        assert code == 0
        assert len(json.loads(out)) == 12

    def test_oracle_same_count(self, capsys):
        code, out, _ = run(
            capsys, "basis", "--m", "2", "--n", "1", "--p", "3", "--r", "1", "--oracle"
        )
        assert code == 0
        assert len(json.loads(out)) == 12

    def test_output_reparses(self, capsys):
        code, out, _ = run(capsys, "basis", "--m", "1", "--n", "1", "--p", "3", "--r", "1")
        assert code == 0
        for entry in json.loads(out):
            element = element_from_dict(entry)
            assert not element.is_zero()

    def test_cap_exceeded_exits_3(self, capsys):
        code, _, err = run(
            capsys, "basis", "--m", "1", "--n", "1", "--p", "2", "--r", "1", "--cap", "2"
        )
        assert code == 3

    def test_oracle_output_unchanged(self, capsys):
        # golden output of the dense oracle; the command prints the component
        # oracle's basis, so this also checks that the two agree
        code, out, _ = run(
            capsys, "basis", "--m", "2", "--n", "1", "--p", "3", "--r", "1", "--oracle"
        )
        assert code == 0
        assert out == (DATA / "basis_oracle_2_1_3_1.json").read_text()

    # sha256 goldens of the component oracle above the dense threshold:
    # 97,377 and 485,898 bytes
    @pytest.mark.parametrize("t", [(2, 2, 5, 1), (3, 2, 5, 1)])
    def test_oracle_output_matches_digest(self, capsys, t):
        code, out, err = run(capsys, "basis", *spec_flags(*t), "--oracle")
        assert (code, err) == (0, "")
        digest = hashlib.sha256(out.encode()).hexdigest()
        golden = DATA / ("basis_oracle_%d_%d_%d_%d.sha256" % t)
        assert f"{digest}  -\n" == golden.read_text()

    def test_oracle_streams_its_elements(self, monkeypatch):
        # Held as one list, the oracle's basis at (1,1,101,1) peaks at 3.6 MiB
        # under tracemalloc; streamed, at 1.0 MiB (Python 3.11).
        with open(os.devnull, "w") as sink:
            monkeypatch.setattr(sys, "stdout", sink)
            tracemalloc.start()
            try:
                code = main(["basis", *spec_flags(1, 1, 101, 1), "--oracle"])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert code == 0 and peak < 2 * 2**20

    def test_class_sums_output_unchanged(self, capsys, monkeypatch):
        # golden output of the BFS route; the command reads the classes from
        # the class table and closes none by search
        def refuse(*args, **kwargs):
            raise AssertionError("basis closed a class by search")

        monkeypatch.setattr(canonical, "enumerate_equivalence_class", refuse)
        # ss_basis holds no binding of its own that could bypass the refusal
        assert not hasattr(ss_basis, "enumerate_equivalence_class")
        assert not hasattr(ss_basis, "build_H")
        code, out, _ = run(capsys, "basis", "--m", "2", "--n", "2", "--p", "3", "--r", "1")
        assert code == 0
        assert out == (DATA / "basis_2_2_3_1.json").read_text()

    def test_oracle_above_dense_threshold_skips_elimination(self, capsys, monkeypatch):
        spec = TorusSpec(2, 2, 5, 1)
        assert spec.dimension > ss_basis.DENSE_ORACLE_MAX_N

        def refuse(*args, **kwargs):
            raise AssertionError("dense oracle run above the threshold")

        monkeypatch.setattr(ss_basis, "ss_nullspace_oracle", refuse)
        code, out, _ = run(
            capsys, "basis", "--m", "2", "--n", "2", "--p", "5", "--r", "1", "--oracle"
        )
        assert code == 0
        expected = [element_to_dict(e) for e in ss_basis.ss_component_oracle(spec)]
        assert json.loads(out) == expected
        assert len(expected) == ss_basis.dim_closed_form(spec) == 131

    # `--oracle` exits 2 at n = 0, so (2,0,3,1) has class sums only.
    @pytest.mark.parametrize("t, flags", BASIS_CASES)
    def test_streamed_output_equals_one_json_document(self, capsys, t, flags):
        spec = TorusSpec(*t)
        if flags:
            elements = ss_basis.ss_component_oracle(spec)
        else:
            elements = [build_H(c, spec) for c in enumerate_canonical(spec)]
        code, out, _ = run(capsys, "basis", *spec_flags(*t), *flags)
        assert code == 0
        assert out == json.dumps([element_to_dict(e) for e in elements], indent=2) + "\n"

    def test_emit_list_matches_json_dumps(self, capsys):
        docs = element_documents()
        for items in ([], docs[:1], docs[1:2], docs):
            _emit_list(iter(items))
            assert capsys.readouterr().out == json.dumps(items, indent=2) + "\n"

    def test_emit_list_writes_in_64_kib_pieces(self, monkeypatch):
        class Spy:
            def __init__(self):
                self.writes = []

            def write(self, text):
                self.writes.append(text)

        big = [element_to_dict(e) for e in ss_basis.class_sums(TorusSpec(2, 2, 5, 1))]
        for docs in ([], element_documents()[:1], big + element_documents()):
            spy = Spy()
            monkeypatch.setattr(sys, "stdout", spy)
            _emit_list(iter(docs))
            monkeypatch.undo()
            out = "".join(spy.writes)
            assert out == json.dumps(docs, indent=2) + "\n"
            assert len(spy.writes) <= -(-len(out.encode()) // 2**16) + 1
            assert all(len(w) >= 2**16 for w in spy.writes[:-1])
        assert len(out) > 2**16 and len(spy.writes) > 1

    # sha256 goldens of `basis` at the benchmark's specs: 2.5, 2.3 and 0.9 MB
    @pytest.mark.parametrize("t", [(3, 3, 5, 1), (2, 2, 11, 1), (2, 2, 3, 2)])
    def test_output_matches_digest(self, capsys, t):
        code, out, err = run(capsys, "basis", *spec_flags(*t))
        assert (code, err) == (0, "")
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert f"{digest}  -\n" == (DATA / ("basis_%d_%d_%d_%d.sha256" % t)).read_text()


class TestVerify:
    def test_single_spec(self, capsys):
        code, out, _ = run(capsys, "verify", "--m", "1", "--n", "1", "--p", "3", "--r", "1")
        assert code == 0
        data = json.loads(out)
        assert data["oracle_dim"] == 7
        assert data["gl11_span_ok"] is True

    def test_grid(self, capsys):
        code, out, _ = run(capsys, "verify", "--grid")
        assert code == 0
        reports = json.loads(out)
        assert len(reports) == len(DEFAULT_GRID)
        assert all(r["h_basis_ok"] and r["partition_ok"] for r in reports)

    @pytest.mark.parametrize(
        "golden, flags",
        [
            ("verify_grid.json", ("--grid",)),
            ("verify_2_2_5_1.json", ("--m", "2", "--n", "2", "--p", "5", "--r", "1")),
            ("verify_1_1_3_2.json", ("--m", "1", "--n", "1", "--p", "3", "--r", "2")),
            ("verify_1_1_211_1.json", ("--m", "1", "--n", "1", "--p", "211", "--r", "1")),
            ("verify_2_2_3_2.json", ("--m", "2", "--n", "2", "--p", "3", "--r", "2")),
            ("verify_2_1_5_1.json", ("--m", "2", "--n", "1", "--p", "5", "--r", "1")),
            ("verify_1_2_5_1.json", ("--m", "1", "--n", "2", "--p", "5", "--r", "1")),
            ("verify_grid_config.json",
             ("--grid", "--config", str(DATA / "verify_grid_config_in.json"))),
            ("verify_4_4_5_1.json", ("--m", "4", "--n", "4", "--p", "5", "--r", "1")),
            ("verify_4_4_7_1.json", ("--m", "4", "--n", "4", "--p", "7", "--r", "1")),
        ],
    )
    def test_output_matches_golden(self, capsys, golden, flags):
        code, out, err = run(capsys, "verify", *flags)
        assert code == 0
        assert err == ""
        assert out == (DATA / golden).read_text()

    @pytest.mark.parametrize(
        "element, golden, expected",
        [("check_ss_2_1_3_1_in.json", "check_ss_true.json", 0),
         ("check_ss_2_1_3_1_dropped_in.json", "check_ss_false.json", 1)],
    )
    def test_check_ss_matches_golden(self, capsys, element, golden, expected):
        # A class sum, and the same sum with (0, 0 | 0) dropped: still
        # bisymmetric, so the (1, 1) divisibility decides.
        code, out, err = run(capsys, "verify", "--check-ss", str(DATA / element))
        assert (code, err) == (expected, "")
        assert out == (DATA / golden).read_text()

    def test_config_grid_override(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"grid": [[1, 1, 2, 1], [1, 1, 3, 1]]}))
        code, out, _ = run(capsys, "verify", "--grid", "--config", str(config))
        assert code == 0
        assert len(json.loads(out)) == 2

    @pytest.mark.parametrize(
        "grid",
        [5, [5], [[1, 1, 2]], [[1, 1, 2.7, 1]], [[True, 1, 2, 1]], []],
        ids=["scalar", "flat-list", "short-entry", "float", "bool", "empty"],
    )
    def test_malformed_config_grid_exits_2(self, capsys, tmp_path, grid):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"grid": grid}))
        code, out, err = run(capsys, "verify", "--grid", "--config", str(config))
        assert code == 2
        assert out == ""
        assert "Traceback" not in err
        assert "error" in err

    def test_check_ss_positive(self, capsys, tmp_path, spec11):
        good = idempotent_h(spec11, ExponentVector((1,), (0,)))
        path = write_element(tmp_path, "good.json", good)
        code, out, _ = run(capsys, "verify", "--check-ss", path)
        assert code == 0
        assert json.loads(out) == {"supersymmetric": True}

    def test_check_ss_negative_control(self, capsys, tmp_path, spec11):
        corrupted = idempotent_h(spec11, ExponentVector((0,), (0,)))
        path = write_element(tmp_path, "bad.json", corrupted)
        code, out, _ = run(capsys, "verify", "--check-ss", path)
        assert code == 1
        assert json.loads(out) == {"supersymmetric": False}

    def test_check_ss_idempotent_basis_element(self, capsys, tmp_path, spec11):
        class_sum = TorusElement(
            spec11,
            Basis.IDEMPOTENT,
            {ExponentVector((0,), (0,)): 1, ExponentVector((1,), (1,)): 1},
        )
        path = write_element(tmp_path, "class.json", class_sum)
        code, out, _ = run(capsys, "verify", "--check-ss", path)
        assert code == 0
        assert json.loads(out) == {"supersymmetric": True}


class TestFlagValidation:
    def test_missing_spec_flags_exit_2(self, capsys):
        code, _, err = run(capsys, "verify", "--m", "1", "--n", "1", "--p", "2")
        assert code == 2
        assert "required" in err
        code, _, _ = run(capsys, "basis", "--m", "1")
        assert code == 2

    def test_composite_modulus_exits_2(self, capsys):
        code, _, _ = run(capsys, "count", "--m", "1", "--n", "1", "--p", "4", "--r", "1")
        assert code == 2


class TestCount:
    def test_gl21_by_defect(self, capsys):
        code, out, _ = run(
            capsys, "count", "--m", "2", "--n", "1", "--p", "3", "--r", "1", "--by-defect"
        )
        assert code == 0
        data = json.loads(out)
        assert data["total"] == 12
        assert data["enumerated"] == 12
        assert data["by_defect"] == {"0": 9, "1": 3}

    def test_symmetric_in_m_and_n(self, capsys):
        # --cap 1 leaves out the enumeration, which is not compared here
        def counted(m, n, p, r):
            flags = [f"--{k}={v}" for k, v in zip("mnpr", (m, n, p, r))]
            code, out, err = run(capsys, "count", *flags, "--by-defect", "--cap", "1")
            assert (code, err) == (0, "")
            data = json.loads(out)
            return data["total"], data["by_defect"]

        for m in range(1, 6):
            for n in range(1, m):
                for p in (2, 3, 5, 7):
                    for r in (1, 2):
                        assert counted(m, n, p, r) == counted(n, m, p, r), (m, n, p, r)

    def test_by_defect_output_symmetric_in_m_and_n(self, capsys):
        def counted(m, n, p, r):
            flags = [f"--{k}={v}" for k, v in zip("mnpr", (m, n, p, r))]
            code, out, err = run(capsys, "count", *flags, "--by-defect")
            assert (code, err) == (0, "")
            return out

        for m in range(2, 7):
            for n in range(1, m):
                for p in (2, 3, 5, 7):
                    for r in (1, 2):
                        assert counted(m, n, p, r) == counted(n, m, p, r), (m, n, p, r)

    def test_work_bound_counts_one_sum_per_defect(self, capsys):
        # The total takes one rectangle sum; --by-defect takes one per defect,
        # 3,000 here, which is over the bound.
        flags = spec_flags(3000, 3000, 211, 1)
        code, out, err = run(capsys, "count", *flags)
        assert (code, err) == (0, "")
        assert json.loads(out)["enumerated"] is None
        code, out, err = run(capsys, "count", *flags, "--by-defect")
        assert (code, out) == (2, "")
        assert "too much work" in err

    @pytest.mark.parametrize("t", [(2, 2, 5, 2), (2, 20, 23, 1)])
    def test_by_defect_matches_golden(self, capsys, t):
        code, out, err = run(capsys, "count", *spec_flags(*t), "--by-defect")
        assert (code, err) == (0, "")
        assert out == (DATA / "count_{}_{}_{}_{}.json".format(*t)).read_text()

    def test_gl11_r2(self, capsys):
        code, out, _ = run(capsys, "count", "--m", "1", "--n", "1", "--p", "2", "--r", "2")
        assert code == 0
        assert json.loads(out)["total"] == 10

    def test_gl31(self, capsys):
        code, out, _ = run(capsys, "count", "--m", "3", "--n", "1", "--p", "2", "--r", "1")
        assert code == 0
        assert json.loads(out)["total"] == 5

    def test_beyond_cap_still_counts(self, capsys):
        code, out, _ = run(
            capsys, "count", "--m", "2", "--n", "2", "--p", "5", "--r", "3", "--cap", "100"
        )
        assert code == 0
        data = json.loads(out)
        assert data["enumerated"] is None
        assert data["total"] > 0

    @pytest.mark.parametrize("t", DEFAULT_GRID + [(2, 2, 5, 2), (2, 0, 3, 1), (1, 1, 3, 2)])
    def test_enumerated_counts_the_canonical_labels(self, capsys, t):
        spec = TorusSpec(*t)
        labels = len(enumerate_canonical(spec))
        assert sum(1 for _ in _canonical_shapes(spec)) == labels
        if spec.n >= 1:  # count refuses n = 0
            code, out, _ = run(capsys, "count", *spec_flags(*t))
            assert code == 0
            assert json.loads(out)["enumerated"] == labels

    def test_large_n_does_not_hang(self):
        # n = 30 has 2^29 compositions, so the count must not enumerate them.
        proc = subprocess.run(
            [sys.executable, "-m", "sstorus.cli", "count", "--by-defect",
             "--m", "2", "--n", "30", "--p", "31", "--r", "1"],
            capture_output=True,
            text=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert proc.returncode == 0, proc.stderr
        data = json.loads(proc.stdout)
        # At q = p each residue class holds one value: a sorted b block on l
        # distinct values is a composition of 30 into l parts, and each a
        # entry has 31 - l admissible values.
        direct = sum(comb(31, l) * comb(29, l - 1) * comb(32 - l, 2) for l in range(1, 31))
        assert data["by_defect"]["0"] == count_c(2, 30, 31, 31) == direct
        assert data["enumerated"] is None


GOOD_TERM = {"a": [1], "b": [0], "c": 1}


def element_json(**fields):
    """A one-term element at (1,1,3,1), with `fields` replaced."""
    data = {"m": 1, "n": 1, "p": 3, "r": 1, "basis": "binomial", "terms": [GOOD_TERM]}
    data.update(fields)
    return json.dumps(data)


MALFORMED_ELEMENTS = {
    "missing-c": element_json(terms=[{"a": [1], "b": [0]}]),
    "missing-a": element_json(terms=[{"b": [0], "c": 1}]),
    "terms-object": element_json(terms=GOOD_TERM),
    "terms-null": element_json(terms=None),
    "entry-list": element_json(terms=[[1, 0, 1]]),
    "entry-number": element_json(terms=[5]),
    "a-scalar": element_json(terms=[{"a": 1, "b": [0], "c": 1}]),
    "float-bool-everywhere": element_json(terms=[{"a": [1.7], "b": [True], "c": 1.9}]),
    "float-exponent": element_json(terms=[{"a": [1.0], "b": [0], "c": 1}]),
    "bool-exponent": element_json(terms=[{"a": [1], "b": [False], "c": 1}]),
    "float-coefficient": element_json(terms=[{"a": [1], "b": [0], "c": 1.0}]),
    "bool-coefficient": element_json(terms=[{"a": [1], "b": [0], "c": True}]),
    "string-coefficient": element_json(terms=[{"a": [1], "b": [0], "c": "1"}]),
    "float-m": element_json(m=1.0),
    "bool-r": element_json(r=True),
    "not-an-object": json.dumps([GOOD_TERM]),
}

# Element documents that are no JSON object, or name no basis, and the exact
# message each exits 2 with.
ELEMENT_SHAPE_FAULTS = {
    "empty-list": ("[]", "element must be a JSON object, got list"),
    "string": ('"x"', "element must be a JSON object, got str"),
    "number": ("5", "element must be a JSON object, got int"),
    "null": ("null", "element must be a JSON object, got NoneType"),
    "unknown-basis": (element_json(basis="nope"), "basis must be 'binomial' or 'idempotent'"),
    "basis-list": (element_json(basis=["binomial"]), "basis must be 'binomial' or 'idempotent'"),
}

MALFORMED_CONFIGS = {
    "cap-list": {"cap": [1]},
    "cap-float": {"cap": 1.5},
    "cap-bool": {"cap": True},
    "cap-zero": {"cap": 0},
    "cap-string": {"cap": "100"},
}


class TestMalformedInput:
    """Bad input exits 2 with a message, never 1 or with a traceback."""

    def check(self, code, out, err):
        assert code == 2
        assert out == ""
        assert "Traceback" not in err
        assert "error" in err

    @pytest.mark.parametrize("text", MALFORMED_ELEMENTS.values(), ids=MALFORMED_ELEMENTS.keys())
    def test_mul_operand(self, capsys, tmp_path, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        good = tmp_path / "good.json"
        good.write_text(element_json())
        self.check(*run(capsys, "mul", str(bad), str(good)))
        self.check(*run(capsys, "mul", str(good), str(bad)))

    @pytest.mark.parametrize("text", MALFORMED_ELEMENTS.values(), ids=MALFORMED_ELEMENTS.keys())
    def test_check_ss_input(self, capsys, tmp_path, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        self.check(*run(capsys, "verify", "--check-ss", str(bad)))

    @pytest.mark.parametrize("text, message", ELEMENT_SHAPE_FAULTS.values(),
                             ids=ELEMENT_SHAPE_FAULTS.keys())
    def test_element_shape_messages(self, capsys, tmp_path, text, message):
        bad, good = tmp_path / "bad.json", tmp_path / "good.json"
        bad.write_text(text)
        good.write_text(element_json())
        for argv in (["verify", "--check-ss", bad], ["mul", bad, good], ["mul", good, bad]):
            assert run(capsys, *map(str, argv)) == (2, "", f"error: {message}\n")

    def test_well_formed_reference_is_accepted(self, capsys, tmp_path):
        good = tmp_path / "good.json"
        good.write_text(element_json())
        code, out, _ = run(capsys, "mul", str(good), str(good))
        assert code == 0
        assert json.loads(out)["terms"]

    @pytest.mark.parametrize("config", MALFORMED_CONFIGS.values(), ids=MALFORMED_CONFIGS.keys())
    def test_config_cap(self, capsys, tmp_path, config):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        self.check(
            *run(capsys, "basis", "--m", "1", "--n", "1", "--p", "2", "--r", "1",
                 "--config", str(path))
        )

    @pytest.mark.parametrize("cap", ["0", "-5"])
    @pytest.mark.parametrize("command", ["basis", "count"])
    def test_cap_flag(self, capsys, command, cap):
        self.check(
            *run(capsys, command, "--m", "1", "--n", "1", "--p", "2", "--r", "1",
                 f"--cap={cap}")
        )

    def test_config_cap_positive_int_is_used(self, capsys, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"cap": 3}))
        args = ("basis", "--m", "1", "--n", "1", "--p", "2", "--r", "1", "--config", str(path))
        assert run(capsys, *args)[0] == 3
        path.write_text(json.dumps({"cap": 4}))
        assert run(capsys, *args)[0] == 0


M61 = 2**61 - 1  # a prime
# argv (HUGE_M names an element file with m = 10^12 at p = 3, DEEP a JSON file
# of 200,000 nested arrays, too deep for the parser), exit code and
# a piece of the expected message or, for exit 0, the expected total or the
# name of a golden file in tests/data that holds the whole output.  The
# numbers are large enough that any power, trial division or decimal
# conversion of them would hang or fail.
#
# At m = 1, q = p = n + 1 there are p C(2n - 1, n) labels of defect zero (a
# value for a_1, then a sorted b over the other n residues) and
# sum_f C(2n - 1 - f, n - 1) = C(2n - 1, n) of defect one (the unit tail of b
# is free): (p + 1) C(2n - 1, n) in all, and the count is symmetric in m, n.
INPUT_GATE = {
    "basis-m14000": (["basis", *spec_flags(14000, 1, 2, 1)], 3, "2^14001 exceeds"),
    "basis-m15000": (["basis", *spec_flags(15000, 1, 2, 1)], 3, "2^15001 exceeds"),
    "basis-huge-r": (["basis", *spec_flags(1, 1, 2, 3_000_000_000)], 3, "label cap"),
    "mul-huge-m": (["mul", "HUGE_M", "HUGE_M"], 3, "3^1000000000001 exceeds"),
    "mul-deep-json": (["mul", "DEEP", "DEEP"], 2, "nested too deeply"),
    "verify-grid-deep-config": (["verify", "--grid", "--config", "DEEP"], 2, "nested too deeply"),
    "count-huge-r": (["count", *spec_flags(1, 1, 2, 3_000_000_000)], 2, "too many digits"),
    "count-large-r": (["count", *spec_flags(1, 1, 2, 30_000_000)], 2, "too many digits"),
    "count-mersenne-prime": (["count", *spec_flags(1, 1, M61, 1)], 0, M61 * (M61 - 1) + 1),
    "count-m1-n400": (["count", *spec_flags(1, 400, 401, 1)], 0, 402 * comb(799, 400)),
    "count-m400-n1": (["count", *spec_flags(400, 1, 401, 1)], 0, 402 * comb(799, 400)),
    "count-m1-n1998": (["count", *spec_flags(1, 1998, 1999, 1)], 0, 2000 * comb(3995, 1998)),
    "count-m1-n3000": (["count", *spec_flags(1, 3000, 3001, 1)], 0, 3002 * comb(5999, 3000)),
    # At p = 2 the only defect-zero labels put b_1 = 1 beside a = (0, .., 0),
    # or the reverse, and count_c_prime(k, 0, 2) = 1 for each e = 1..m.
    "count-m100000-n1": (["count", *spec_flags(100000, 1, 2, 1)], 0, 100002),
    "count-total-too-long": (["count", *spec_flags(1, 1, 2, 13000)], 2, "(1, 1, 2, 13000)"),
    "count-total-too-long-large-r": (["count", *spec_flags(50, 50, 211, 1000)], 2, "too many digits"),
    "count-by-defect-200": (
        ["count", *spec_flags(200, 200, 211, 1), "--by-defect"], 0, "count_200_200_211_1.json"
    ),
    "count-by-defect-400": (
        ["count", *spec_flags(400, 400, 401, 1), "--by-defect"], 0, "count_400_400_401_1.json"
    ),
    "count-too-much-work": (
        ["count", *spec_flags(3000, 3000, 3001, 1), "--by-defect"], 2, "too much work"
    ),
    "basis-mersenne-prime": (["basis", *spec_flags(1, 1, M61, 1)], 3, "label cap"),
    "basis-composite-over-cap": (["basis", *spec_flags(1, 1, 2**61 + 1, 1)], 2, "not prime"),
    "basis-p-beyond-primality-limit": (["basis", *spec_flags(1, 1, 2**89 - 1, 1)], 2, "too large"),
    "count-p-beyond-primality-limit": (["count", *spec_flags(1, 1, 2**89 - 1, 1)], 2, "too large"),
    "verify-n0": (["verify", *spec_flags(2, 0, 3001, 1)], 2, "needs n >= 1"),
}


def run_limited(argv, address_space, timeout):
    """Run the CLI in a child whose address space is limited to
    `address_space` bytes and which must finish in `timeout` seconds."""
    limit = (address_space, address_space)
    return subprocess.run(
        [sys.executable, "-m", "sstorus.cli", *argv],
        capture_output=True,
        text=True,
        timeout=timeout,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, limit),
    )


def run_gated(argv):
    """Run the CLI in a child limited to 2 GB that must finish in 5 s."""
    return run_limited(argv, 2 << 30, 5)


@pytest.mark.parametrize("argv, code, expected", INPUT_GATE.values(), ids=INPUT_GATE.keys())
def test_input_gate_is_fast_and_exact(tmp_path, argv, code, expected):
    """Each input is decided in seconds, in a child limited to 2 GB."""
    files = {"HUGE_M": tmp_path / "huge.json", "DEEP": tmp_path / "deep.json"}
    files["HUGE_M"].write_text(element_json(m=10**12, terms=[]))
    files["DEEP"].write_text("[" * 200_000)
    proc = run_gated([str(files.get(a, a)) for a in argv])
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "Exceeds the limit" not in proc.stderr
    assert "int_max_str_digits" not in proc.stderr
    if code:
        assert expected in proc.stderr
        assert proc.stdout == ""
    elif isinstance(expected, str):
        assert proc.stdout == (DATA / expected).read_text()
    else:
        assert json.loads(proc.stdout) == {"total": expected, "enumerated": None}


def test_check_ss_large_q_is_fast(tmp_path):
    """`--check-ss` at q = 1024 (N = 1,048,576 labels, inside the cap) is
    decided in seconds, in a child limited to 2 GB: the change of basis
    never forms a q x q binomial table."""
    path = tmp_path / "monomial.json"
    path.write_text(element_json(p=2, r=10, terms=[{"a": [3], "b": [5], "c": 1}]))
    proc = run_gated(["verify", "--check-ss", str(path)])
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert json.loads(proc.stdout) == {"supersymmetric": False}


@pytest.mark.parametrize(
    "term, code",
    [({"a": [0], "b": [0], "c": 1}, 0), ({"a": [165], "b": [77], "c": 3}, 1)],
    ids=["constant", "monomial"],
)
def test_check_ss_large_p_is_fast(tmp_path, term, code):
    """`--check-ss` of a one-term binomial input at p = 499 (N = 249,001
    labels) is decided in seconds, in a child limited to 2 GB: a digit pass
    of the change of basis skips the all-zero slices, so one term costs
    O(N) per pass, not O(N p)."""
    path = tmp_path / "monomial.json"
    path.write_text(element_json(p=499, terms=[term]))
    proc = run_gated(["verify", "--check-ss", str(path)])
    assert proc.returncode == code, proc.stderr
    assert json.loads(proc.stdout) == {"supersymmetric": code == 0}


def test_check_ss_p_too_large_for_fields_exits_2(tmp_path):
    """`--check-ss` at p = 2,642,257, with the cap raised past N = p^2, exits
    2 at once, in a child limited to 2 GB: one pass of the change of basis
    could overflow a 64-bit field, so it is refused before the N-field
    array is allocated."""
    path = tmp_path / "one.json"
    path.write_text(element_json(p=2642257, terms=[{"a": [0], "b": [0], "c": 1}]))
    proc = run_gated(["verify", "--check-ss", str(path), "--cap", str(10**13)])
    assert proc.returncode == 2, proc.stderr
    assert "too large for 64-bit fields" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_check_ss_one_term_at_p_3001():
    """`--check-ss` of C(x,1000) C(y,1500) at (1,1,3001,1), N = 9,006,001,
    is decided in a child limited to 700,000 KiB, as in CI: the digit map
    is formed from factorials, not from p x p tables."""
    path = DATA / "check_ss_1_1_3001_1_in.json"
    proc = run_limited(["verify", "--check-ss", str(path)], 700000 << 10, 20)
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == (DATA / "check_ss_false.json").read_text()


def test_memory_error_exits_3():
    """Running out of memory prints one `error:` line and exits 3, not 1
    (verification failed) with a traceback: the same check in a child
    limited to 250 MiB."""
    path = DATA / "check_ss_1_1_3001_1_in.json"
    proc = run_limited(["verify", "--check-ss", str(path)], 250 << 20, 20)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
    assert proc.stdout == ""


class TestDeterminism:
    def test_identical_invocations_byte_identical(self, capsys):
        argvs = [
            ["basis", "--m", "1", "--n", "1", "--p", "3", "--r", "1"],
            ["verify", "--m", "2", "--n", "1", "--p", "2", "--r", "1"],
            ["count", "--m", "2", "--n", "2", "--p", "3", "--r", "1", "--by-defect"],
            ["verify", "--grid"],
        ]
        for argv in argvs:
            _, first, _ = run(capsys, *argv)
            _, second, _ = run(capsys, *argv)
            assert first == second

    def test_grid_matches_published_default(self):
        assert DEFAULT_GRID == [
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


class TestRoundTrip:
    def test_mul_output_feeds_back(self, capsys, tmp_path, spec11):
        x = TorusElement(spec11, Basis.BINOMIAL, {ExponentVector((1,), (0,)): 1})
        path = write_element(tmp_path, "x.json", x)
        code, out, _ = run(capsys, "mul", path, path)
        assert code == 0
        again = tmp_path / "xx.json"
        again.write_text(out)
        code, out2, _ = run(capsys, "mul", str(again), path)
        assert code == 0
        assert element_from_dict(json.loads(out2)) == multiply(multiply(x, x), x)


class TestStartup:
    def test_import_loads_no_unused_stdlib(self):
        # -S keeps site from importing modules on its own account.
        code = (
            "import sys; sys.path.insert(0, sys.argv[1]); import sstorus.cli; "
            "print(sorted({'dataclasses', 'inspect', 'typing', 'ast', 'dis', 'tokenize'}"
            " & set(sys.modules)))"
        )
        proc = subprocess.run(
            [sys.executable, "-S", "-c", code, str(SRC)],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"
