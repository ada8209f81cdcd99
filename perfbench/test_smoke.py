"""Smoke test of the benchmark itself, on tiny inputs.

    python3 -m pytest -q perfbench/test_smoke.py
    python3 perfbench/test_smoke.py

Checks that every workload prints each end-to-end and per-layer metric of
BENCHMARK.json with its unit, that traced counts repeat exactly, that
bypassed layers read zero calls, that the benchmark refuses to run without
the package, and that the stored answers agree with independent formulas.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import re
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import reference  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
ANSWERS = json.loads((BENCH / "answers.json").read_text())

# Metrics named per workload in the summary lines, with their units.
SUMMARY_NAMES = {
    "verify-ladder": [("verify_s", "s"), ("grid_s", "s")],
    "algebra-ops": [("ops_per_s", "1/s"), ("op_p50_ms", "ms"), ("op_p99_ms", "ms")],
    "enumerate-scale": [("enumerate_s", "s")],
}
SHARED_NAMES = [("setup_s", "s"), ("peak_rss_mb", "MB"), ("error_rate", "ratio")]

# Layers each workload must not reach, and some it must.
BYPASSED = {
    "verify-ladder": ["torus.multiply."],
    "algebra-ops": [],
    "enumerate-scale": ["ss_basis.", "fp_linalg.", "idempotents.", "supersymmetry."],
}
REACHED = {
    "verify-ladder": ["ss_basis.ss_nullspace_oracle", "idempotents.evaluate_point", "fp_linalg.rref"],
    "algebra-ops": ["torus.multiply", "idempotents.to_idempotent_basis", "supersymmetry.is_supersymmetric"],
    "enumerate-scale": ["canonical.enumerate_canonical", "canonical.count_c", "torus.element_to_dict"],
}


def bench(workload: str, trace: int, cwd: Path = ROOT, seed: int = 7):
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", "1", "--trace", str(trace), "--tiny",
    ]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def spec_of(key: str):
    m, n, p, r = map(int, key.split(","))
    return m, n, p, p**r


class BenchmarkOutput(unittest.TestCase):
    def last_json(self, proc) -> dict:
        self.assertEqual(proc.returncode, 0, proc.stderr)
        out = json.loads(proc.stdout.splitlines()[-1])
        self.assertEqual(set(out), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(out["correct"], proc.stdout)
        self.assertEqual(out["failed"], 0)
        self.assertGreaterEqual(out["attempted"], 1)
        return out

    def test_one_command_prints_every_end_to_end_metric(self):
        proc = bench("all", 0)
        out = self.last_json(proc)
        want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        for workload in WORKLOADS:
            got = {
                name.split(".", 1)[1]: metric
                for name, metric in out["metrics"].items()
                if name.startswith(workload + ".")
            }
            self.assertEqual({k: v["unit"] for k, v in got.items()}, want)
            self.assertTrue(all(v["value"] > 0 for v in got.values()), got)
        section = proc.stdout.split("== ")
        for workload in WORKLOADS:
            text = next(s for s in section if s.startswith(workload))
            for name, unit in SUMMARY_NAMES[workload] + SHARED_NAMES:
                self.assertRegex(text, rf"(?m)^\s+{name}\s+[-0-9.]+ {re.escape(unit)}\b")
            self.assertIn('"python"', text)
            self.assertIn('"cpu_count"', text)
            self.assertIn('"seed": 7', text)
            self.assertIn('"commit"', text)

    def test_traced_runs_repeat_counts_and_bypass_layers(self):
        want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        for workload in WORKLOADS:
            runs = [self.last_json(bench(workload, 1))["metrics"] for _ in range(2)]
            for metrics in runs:
                self.assertEqual({k: v["unit"] for k, v in metrics.items()}, want)
            counts = [
                {k: v["value"] for k, v in m.items() if v["unit"] in ("count", "bytes", "ratio")}
                for m in runs
            ]
            self.assertEqual(counts[0], counts[1], workload)
            for name, value in counts[0].items():
                if name.endswith(".calls") and any(name.startswith(b) for b in BYPASSED[workload]):
                    self.assertEqual(value, 0, f"{workload}: {name}")
            for layer in REACHED[workload]:
                self.assertGreater(counts[0][f"{layer}.calls"], 0, f"{workload}: {layer}")

    def test_refuses_to_run_without_the_package(self):
        bare = BENCH / "out" / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(
            BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__")
        )
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            for workload in WORKLOADS:
                proc = bench(workload, 0, cwd=bare)
                self.assertNotEqual(proc.returncode, 0)
                self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


class StoredAnswers(unittest.TestCase):
    """The answers the benchmark checks against, recomputed independently."""

    def test_dimensions_are_class_counts(self):
        for key, dim in ANSWERS["dims"].items():
            m, n, p, q = spec_of(key)
            self.assertEqual(len(reference.classes(m, n, p, q)), dim, key)
        for spec in ANSWERS["grid"]:
            self.assertIn(",".join(map(str, spec)), ANSWERS["dims"])

    def test_counts_match_inclusion_exclusion(self):
        for key, want in ANSWERS["count"].items():
            m, n, p, q = spec_of(key)
            by_defect = reference.count_by_defect(m, n, p, q)
            self.assertEqual(want["by_defect"], by_defect, key)
            self.assertEqual(want["total"], sum(by_defect.values()), key)
            if want["enumerated"] is not None:
                self.assertEqual(want["enumerated"], want["total"], key)

    def test_enumerated_counts_by_brute_force(self):
        # (2,2,5,2) has 390,625 labels: count distinct class signatures.
        for key in ("2,2,5,2", "2,2,3,1", "2,3,5,1"):
            m, n, p, q = spec_of(key)
            signatures = {
                reference.class_signature(label, m, p, q)
                for label in itertools.product(range(q), repeat=m + n)
            }
            by_defect: dict = {}
            for sig in signatures:
                by_defect[str(sig[0])] = by_defect.get(str(sig[0]), 0) + 1
            self.assertEqual(by_defect, ANSWERS["count"][key]["by_defect"], key)

    def test_basis_digests_cover_the_reference_classes(self):
        env_path = str(ROOT / "src")
        for key, digest in ANSWERS["basis_sha256"].items():
            m, n, p, q = spec_of(key)
            flags = [f"--{k}={v}" for k, v in zip("mnpr", key.split(","))]
            proc = subprocess.run(
                [sys.executable, "-m", "sstorus.cli", "basis", *flags],
                cwd=ROOT, capture_output=True, timeout=300,
                env={"PYTHONPATH": env_path, "PATH": ""},
            )
            self.assertEqual(proc.returncode, 0, proc.stderr)
            self.assertEqual(hashlib.sha256(proc.stdout).hexdigest(), digest, key)
            sums = {
                frozenset(tuple(t["a"] + t["b"]) for t in el["terms"])
                for el in json.loads(proc.stdout)
            }
            want = {frozenset(cls) for cls in reference.classes(m, n, p, q)}
            self.assertEqual(sums, want, key)

    def test_bruteforce_product_matches_pointwise_values(self):
        rng = random.Random(3)
        for m, n, p, r in [(2, 1, 3, 2), (2, 2, 5, 1), (1, 1, 2, 2)]:
            q = p**r
            labels = reference.all_labels(m, n, q)
            for k in (3, 8, len(labels) // 8):
                f = {x: rng.randrange(1, p) for x in rng.sample(labels, k)}
                g = {x: rng.randrange(1, p) for x in rng.sample(labels, 8)}
                vf = reference.values(f, m, n, p, q)
                vg = reference.values(g, m, n, p, q)
                pointwise = reference.from_values(
                    [a * b % p for a, b in zip(vf, vg)], m, n, p, q
                )
                self.assertEqual(reference.multiply_bruteforce(f, g, p, q), pointwise)
                self.assertEqual(reference.from_values(vf, m, n, p, q), f)


if __name__ == "__main__":
    unittest.main()
