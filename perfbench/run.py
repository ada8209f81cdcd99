"""sstorus benchmark: three workloads against the package in `src/`.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

NAME is verify-ladder, algebra-ops, enumerate-scale, or `all` (each in turn,
one child run at a time).  Run from anywhere; the package is taken from the
`src/` next to this directory.  Human-readable lines come first; the last
stdout line is one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics with `--trace 0`, the per-layer metrics of
a separate traced pass with `--trace 1`.  Why each workload exists, what it
bypasses and what is left out is in README.md next to this file.

Load: one closed-loop caller.  Ops run one at a time; each CLI op is one
child process and algebra-ops uses one worker process, so there is never
more than one busy child.  Every timing is scaled to a reference speed by a
probe timed in the same process (speed.py).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import threading
from math import ceil
from pathlib import Path
from time import perf_counter

import reference
import speed
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
ANSWERS = json.loads((BENCH / "answers.json").read_text())

SETUP_STARTS = 9  # `import sstorus` starts per run; setup_s is their median
CHILD = [sys.executable, str(BENCH / "child.py")]
SETUP_WORKERS = 3  # algebra-ops worker starts per run, each with its warm-up
OP_TIMEOUT_S = 120.0
RUN_DEADLINE_S = 165.0  # a run stops starting ops after this, so it exits < 180 s

# Fixed spec ladders.  Left out on purpose (see README.md): verify (2,2,5,2),
# whose dense oracle does not finish; basis (2,2,5,2), 32 s and 761 MB per op;
# count at n = 30, which hangs in count_c.
LADDERS = {
    "verify-ladder": {
        "full": [
            ("verify_grid", None),
            ("verify", (1, 1, 3, 2)),
            ("verify", (2, 1, 5, 1)),
            ("verify", (1, 2, 5, 1)),
            ("verify", (2, 2, 5, 1)),
        ],
        "tiny": [
            ("verify_grid", None),
            ("verify", (1, 1, 3, 1)),
            ("verify", (2, 1, 3, 1)),
        ],
    },
    "enumerate-scale": {
        "full": [
            ("basis", (3, 3, 5, 1)),
            ("basis", (2, 2, 11, 1)),
            ("basis", (2, 2, 3, 2)),
            ("count", (2, 2, 5, 2)),
            ("count", (2, 20, 23, 1)),
        ],
        "tiny": [
            ("basis", (2, 1, 3, 1)),
            ("count", (2, 2, 3, 1)),
            ("count", (2, 3, 5, 1)),
        ],
    },
}
ALGEBRA_SPECS = {"full": [(2, 1, 3, 2), (2, 2, 5, 1)], "tiny": [(1, 1, 2, 2), (2, 1, 3, 1)]}
WORKLOADS = ["verify-ladder", "algebra-ops", "enumerate-scale"]

# The algebra-ops list for each spec, over its pool of elements: S* sparse
# binomial (8 terms), D* dense binomial and ID dense idempotent (N/8 terms),
# I* sparse idempotent, T* class sums, F* class sums with a member dropped.
SPEC_OPS = [
    ("multiply", ("S1", "S2")),
    ("multiply", ("S3", "S4")),
    ("multiply", ("S1", "S3")),
    ("multiply", ("S2", "S4")),
    ("multiply", ("D1", "S1")),
    ("multiply", ("D2", "S2")),
    ("to_idempotent_basis", ("S1",)),
    ("to_idempotent_basis", ("D1",)),
    ("from_idempotent_basis", ("I1",)),
    ("from_idempotent_basis", ("ID",)),
    ("multiply_idempotent_basis", ("I1", "I2")),
    ("multiply_idempotent_basis", ("ID", "I1")),
    ("phi", ("S2",)),
    ("phi", ("D2",)),
    ("is_supersymmetric", ("T1",)),
    ("is_supersymmetric", ("T2",)),
    ("is_supersymmetric", ("F1",)),
    ("is_supersymmetric", ("F2",)),
    ("json_roundtrip", ("S3",)),
    ("json_roundtrip", ("D1",)),
]

END_TO_END = [
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
]


def key(spec) -> str:
    return ",".join(map(str, spec))


def op_percentile(samples, q: float) -> float:
    """Nearest-rank q-quantile of op latency, where each op of the list
    carries the same weight however many samples it has (q in [0, 1])."""
    points = sorted((x, 1 / len(s)) for s in samples if s for x in s)
    target = q * sum(w for _, w in points)
    seen = 0.0
    for x, w in points:
        seen += w
        if seen >= target * (1 - 1e-12):
            return x
    return points[-1][0]


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(cmd, env, timeout: float):
    """Run one child to completion: (wall seconds, exit code or None on timeout,
    stdout bytes, stderr bytes)."""
    start = perf_counter()
    try:
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return perf_counter() - start, None, b"", b"timed out"
    return perf_counter() - start, proc.returncode, proc.stdout, proc.stderr


def peak_child_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def environment(args) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        commit = ""
    return {
        "workload": args.workload,
        "size": "tiny" if args.tiny else "full",
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "commit": commit or "none",
        "src_sha256": digest.hexdigest()[:16],
    }


class Tally:
    """Attempted and failed ops, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list = []

    def add(self, ok: bool, what: str = "", count: int = 1):
        self.attempted += count
        if not ok:
            self.failed += count
            if len(self.messages) < 10:
                self.messages.append(what)


def scaled(seconds: float, probe_s: float) -> float:
    """A time taken at the speed the probe saw, at the reference speed."""
    return seconds * speed.REFERENCE_S / probe_s


def setup_imports(env) -> list:
    """(raw, scaled) times of interpreter start plus `import sstorus`."""
    times = []
    for _ in range(SETUP_STARTS):
        wall, rc, out, err = run_child(CHILD + ["import"], env, 60)
        if rc != 0:
            raise RuntimeError(f"import sstorus failed: {err.decode(errors='replace')}")
        probe, spent = map(float, out.split())
        times.append((wall - spent, scaled(wall - spent, probe)))
    return times


# ---------------------------------------------------------------- CLI ops


def cli_args(kind: str, spec) -> list:
    if kind == "verify_grid":
        return ["verify", "--grid"]
    m, n, p, r = spec
    flags = ["--m", str(m), "--n", str(n), "--p", str(p), "--r", str(r)]
    return [kind, *flags] + (["--by-defect"] if kind == "count" else [])


def op_label(kind: str, spec) -> str:
    return "verify --grid" if kind == "verify_grid" else f"{kind} {key(spec)}"


def expected_report(spec) -> dict:
    m, n, p, r = spec
    dim = ANSWERS["dims"][key(spec)]
    return {
        "spec": {"m": m, "n": n, "p": p, "r": r, "q": p**r},
        "closed_form": dim,
        "enumerated": dim,
        "oracle_dim": dim,
        "h_basis_ok": True,
        "partition_ok": True,
        "gl11_span_ok": True if m == n == 1 else None,
    }


def check_cli(kind: str, spec, rc, stdout: bytes, stderr: bytes):
    """None if the op's output matches the stored answer, else why not."""
    if rc is None:
        return "timed out"
    if rc != 0:
        tail = stderr.decode(errors="replace").strip().splitlines()[-1:]
        return f"exit code {rc} {tail}"
    try:
        data = json.loads(stdout)
    except ValueError:
        return "stdout is not JSON"
    if kind == "verify_grid":
        want = [expected_report(tuple(s)) for s in ANSWERS["grid"]]
    elif kind == "verify":
        want = expected_report(spec)
    elif kind == "count":
        want = ANSWERS["count"][key(spec)]
    else:
        if len(data) != ANSWERS["dims"][key(spec)]:
            return f"{len(data)} class sums, expected {ANSWERS['dims'][key(spec)]}"
        if hashlib.sha256(stdout).hexdigest() != ANSWERS["basis_sha256"][key(spec)]:
            return "basis output digest differs from the stored one"
        return None
    return None if data == want else f"got {data}, expected {want}"


def run_cli_workload(args, env) -> dict:
    ladder = LADDERS[args.workload]["tiny" if args.tiny else "full"]
    rng = random.Random(args.seed)
    tally = Tally()
    began = perf_counter()
    setup = setup_imports(env)

    stdout_bytes = 0
    probe_file = OUT / f"probe-{os.getpid()}.json"
    OUT.mkdir(exist_ok=True)

    def run_op(i: int, cmd) -> float | None:
        """Run and check one op; its wall time, or None if it failed."""
        nonlocal stdout_bytes
        kind, spec = ladder[i]
        left = RUN_DEADLINE_S - (perf_counter() - began)
        if left < 1:
            tally.add(False, f"{op_label(kind, spec)}: run deadline reached")
            return None
        wall, rc, out, err = run_child(cmd, env, min(OP_TIMEOUT_S, left))
        problem = check_cli(kind, spec, rc, out, err)
        tally.add(problem is None, f"{op_label(kind, spec)}: {problem}")
        stdout_bytes += len(out)
        return None if problem else wall

    def run_probed(i: int):
        """Run op i with speed sampling: (raw, scaled) time, or None."""
        probe_file.unlink(missing_ok=True)
        wall = run_op(i, CHILD + ["cli", str(probe_file), "--", *cli_args(*ladder[i])])
        if wall is None:
            return None
        probe = json.loads(probe_file.read_text())
        cost = wall - probe["spent"]
        # The op's time integrates the speed over its run, so the mean probe.
        return cost, scaled(cost, statistics.mean(probe["samples"]))

    # Whole cycles in seeded order: the first runs every op; later ones run
    # an op again only while its median still fits in the time left.
    samples = [[] for _ in ladder]
    passes = []
    raw_passes = []
    tried = [False] * len(ladder)
    start = perf_counter()
    while True:
        order = list(range(len(ladder)))
        rng.shuffle(order)
        ran = False
        cycle, raw_cycle = {}, {}
        for i in order:
            if tried[i] and (
                not samples[i]
                or perf_counter() - start + statistics.median(samples[i]) > args.seconds
            ):
                continue
            tried[i] = ran = True
            timed = run_probed(i)
            if timed is not None:
                raw_cycle[i], cycle[i] = timed
                samples[i].append(timed[0])
        if not ran:
            break
        passes.append(cycle)
        raw_passes.append(raw_cycle)
    probe_file.unlink(missing_ok=True)

    result = {
        "tally": tally,
        "setup": setup,
        "passes": passes,
        "raw_passes": raw_passes,
        "labels": [op_label(*op) for op in ladder],
        "peak_rss_mb": peak_child_rss_mb(),
    }

    if args.trace:
        trace_dir = fresh_dir(OUT / f"trace-{args.workload}")
        stdout_bytes = 0
        traced = 0.0
        for i in range(len(ladder)):
            cmd = CHILD + ["trace", str(trace_dir / f"op{i}"), str(i), "--", *cli_args(*ladder[i])]
            t0 = perf_counter()
            run_op(i, cmd)
            traced += perf_counter() - t0
        result["traced_pass_s"] = traced
        result["untraced_pass_s"] = sum(statistics.median(s) for s in samples if s)
        result["trace_dir"] = trace_dir
        result["stdout_bytes"] = stdout_bytes
    return result


# ------------------------------------------------------------- algebra-ops


def algebra_inputs(specs, seed: int):
    """Seeded elements, the op list, and each op's expected result digest,
    all computed here by reference arithmetic (no package code)."""
    elements: dict = {}
    ops: list = []
    expected: list = []
    for s, (m, n, p, r) in enumerate(specs):
        q = p**r
        size = q ** (m + n)
        rng = random.Random(f"{seed}/{key((m, n, p, r))}")
        labels = reference.all_labels(m, n, q)
        pool: dict = {}

        def terms(k: int) -> dict:
            return {x: rng.randrange(1, p) for x in rng.sample(labels, k)}

        dense_k = ceil(size / 8)
        for name, k, basis in [
            ("S1", 8, "binomial"),
            ("S2", 8, "binomial"),
            ("S3", 8, "binomial"),
            ("S4", 8, "binomial"),
            ("D1", dense_k, "binomial"),
            ("D2", dense_k, "binomial"),
            ("I1", 8, "idempotent"),
            ("I2", 8, "idempotent"),
            ("ID", dense_k, "idempotent"),
        ]:
            pool[name] = (basis, terms(min(k, size)))

        # is_supersymmetric costs about N x (terms of phi of the binomial
        # form), so the class sums are the ones of a seeded sample whose phi
        # has closest to 0.3 N terms: the cost then barely depends on the seed.
        class_list = reference.classes(m, n, p, q)

        def phi_of(vals) -> dict:
            """Binomial coefficients of phi_11 of the function with these values."""
            shifted = reference.shifted_values(vals, m, n, q)
            return reference.from_values([(u - v) % p for u, v in zip(vals, shifted)], m, n, p, q)

        def phi_terms(f: dict) -> int:
            return len(phi_of(reference.dense(f, m, n, q)))

        # The false cases drop one member of a class of two or more, the one
        # of a few tried that lands closest to the same size.
        target = 0.3 * size
        sample = rng.sample(class_list, min(40, len(class_list)))
        near = sorted(sample, key=lambda cls: abs(phi_terms(dict.fromkeys(cls, 1)) - target))
        pool["T1"] = ("idempotent", dict.fromkeys(near[0], 1))
        pool["T2"] = ("idempotent", dict.fromkeys(near[1], 1))
        for name, cls in zip(("F1", "F2"), [cls for cls in near if len(cls) > 1]):
            perturbed = [
                {x: 1 for x in cls if x != dropped}
                for dropped in rng.sample(cls, min(4, len(cls)))
            ]
            pool[name] = ("idempotent", min(perturbed, key=lambda f: abs(phi_terms(f) - target)))

        for name, (basis, f) in pool.items():
            elements[f"{s}:{name}"] = {
                "m": m, "n": n, "p": p, "r": r, "basis": basis,
                "terms": [
                    {"a": list(x[:m]), "b": list(x[m:]), "c": c}
                    for x, c in sorted(f.items())
                ],
            }

        def expect(kind: str, names) -> str:
            fs = [pool[name][1] for name in names]
            if kind == "multiply":
                return binomial(reference.multiply_bruteforce(*fs, p, q))
            if kind == "to_idempotent_basis":
                return idempotent(reference.sparse(reference.values(*fs, m, n, p, q), m, n, q))
            if kind == "from_idempotent_basis":
                return binomial(reference.from_values(reference.dense(*fs, m, n, q), m, n, p, q))
            if kind == "multiply_idempotent_basis":
                f, g = fs
                return idempotent({x: c * g[x] % p for x, c in f.items() if x in g})
            if kind == "phi":
                return binomial(phi_of(reference.values(*fs, m, n, p, q)))
            if kind == "is_supersymmetric":
                return repr(reference.is_class_constant(*fs, class_list))
            return reference.element_digest(pool[names[0]][0], *fs, m)  # json_roundtrip

        def binomial(f: dict) -> str:
            return reference.element_digest("binomial", f, m)

        def idempotent(f: dict) -> str:
            return reference.element_digest("idempotent", f, m)

        for kind, names in SPEC_OPS:
            ops.append([kind, [f"{s}:{name}" for name in names]])
            expected.append(expect(kind, names))
    return elements, ops, expected


def run_algebra_workload(args, env) -> dict:
    specs = ALGEBRA_SPECS["tiny" if args.tiny else "full"]
    elements, ops, expected = algebra_inputs(specs, args.seed)
    trace_dir = fresh_dir(OUT / "trace-algebra-ops") if args.trace else None
    config = {
        "elements": elements,
        "ops": ops,
        "seconds": args.seconds,
        "seed": args.seed,
        "trace_dir": str(trace_dir) if trace_dir else None,
    }
    began = perf_counter()
    setup = []
    for attempt in range(SETUP_WORKERS):
        last = attempt == SETUP_WORKERS - 1
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "worker.py")],
            cwd=ROOT,
            env=env,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        # The watchdog kills a stuck worker, which ends any blocked read.
        watchdog = threading.Timer(max(1.0, RUN_DEADLINE_S - (perf_counter() - began)), proc.kill)
        watchdog.start()
        try:
            t0 = perf_counter()
            proc.stdin.write(json.dumps(config) + "\n")
            proc.stdin.flush()
            word, *probe = proc.stdout.readline().split()
            ready = word == "ready"
            if ready:
                probe_s, spent = map(float, probe)
                cost = perf_counter() - t0 - spent
                setup.append((cost, scaled(cost, probe_s)))
            proc.stdin.write("go\n" if last and ready else "stop\n")
            proc.stdin.close()
            line = proc.stdout.readline() if last and ready else ""
        finally:
            watchdog.cancel()
            if proc.poll() is None and not ready:
                proc.kill()
            proc.stdout.close()
            proc.wait()
        if not ready:
            raise RuntimeError(f"algebra worker did not get ready (exit {proc.returncode})")
    report = json.loads(line)

    tally = Tally()
    for i, (kind, names) in enumerate(ops):
        label = f"{kind} {' '.join(names)}"
        runs = report["runs"][i]
        if report["digests"][i] != expected[i]:
            tally.add(False, f"{label}: result differs from the reference", count=runs)
            continue
        bad = report["errors"][i] + report["mismatches"][i]
        tally.add(True, count=runs - bad)
        if bad:
            tally.add(False, f"{label}: {bad} runs failed or disagreed", count=bad)
    for text in report["error_text"]:
        print(text, file=sys.stderr)

    raw_passes = [
        {i: ns / 1e9 for i, ns in enumerate(row) if ns is not None} for row in report["passes"]
    ]
    passes = [
        {i: scaled(t, probe[i]) for i, t in raw.items()}
        for raw, probe in zip(raw_passes, report["speeds"])
    ]
    result = {
        "tally": tally,
        "setup": setup,
        "passes": passes,
        "raw_passes": raw_passes,
        "labels": [f"{kind} {' '.join(names)}" for kind, names in ops],
        "peak_rss_mb": peak_child_rss_mb(),
    }
    if args.trace:
        result["traced_pass_s"] = report["traced_pass_ns"] / 1e9
        result["untraced_pass_s"] = statistics.median(report["pass_ns"]) / 1e9
        result["trace_dir"] = trace_dir
        result["stdout_bytes"] = 0
    return result


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# ----------------------------------------------------------------- report


def per_op(passes, n: int) -> list:
    """Each of n ops' samples, gathered from the passes."""
    return [[p[i] for p in passes if i in p] for i in range(n)]


def end_to_end(result: dict) -> dict:
    samples = per_op(result["passes"], len(result["labels"]))
    pass_s = sum(statistics.median(x) for x in samples if x)
    return {
        "setup_s": statistics.median(scaled for _, scaled in result["setup"]),
        "pass_s": pass_s,
        "ops_per_s": sum(1 for x in samples if x) / pass_s,
        "op_p50_ms": op_percentile(samples, 0.50) * 1e3,
        "op_p99_ms": op_percentile(samples, 0.99) * 1e3,
        "peak_rss_mb": result["peak_rss_mb"],
    }


def per_layer(result: dict) -> dict:
    metrics = tracer.layer_metrics(result["trace_dir"])
    metrics["cli.stdout_bytes"] = result["stdout_bytes"]
    metrics["trace.traced_pass_s"] = result["traced_pass_s"]
    metrics["trace.overhead_s"] = result["traced_pass_s"] - result["untraced_pass_s"]
    return metrics


def summary_lines(workload: str, result: dict, e2e: dict) -> list:
    tally = result["tally"]
    n = len(result["labels"])
    samples = per_op(result["passes"], n)
    raw = per_op(result["raw_passes"], n)
    flat = [x for xs in samples for x in xs]
    units = dict(END_TO_END)
    lines = [f"  {name:<12} {e2e[name]:12.4f} {units[name]}" for name, _ in END_TO_END]
    raw_pass = sum(statistics.median(x) for x in raw if x)
    lines.append(
        f"  unscaled: setup_s {statistics.median(r for r, _ in result['setup']):.4f} s, "
        f"pass_s {raw_pass:.4f} s (timings x{e2e['pass_s'] / raw_pass:.3f} to reference speed)"
    )
    lines.append(
        f"  latency samples: {len(flat)} ops, "
        f"{sum(x * 1e3 > e2e['op_p99_ms'] for x in flat)} above op_p99_ms"
    )
    if workload == "verify-ladder":
        lines.append(f"  {'verify_s':<12} {e2e['pass_s']:12.4f} s   (time to all verdicts = pass_s)")
        grid = statistics.median(samples[0]) if samples[0] else float("nan")
        lines.append(f"  {'grid_s':<12} {grid:12.4f} s   (the verify --grid op)")
    if workload == "enumerate-scale":
        lines.append(f"  {'enumerate_s':<12} {e2e['pass_s']:12.4f} s   (all ops = pass_s)")
    rate = tally.failed / tally.attempted if tally.attempted else 0.0
    lines.append(f"  {'error_rate':<12} {rate:12.4f} ratio ({tally.failed} failed / {tally.attempted} attempted)")
    for label, xs, rs in zip(result["labels"], samples, raw):
        shown = (
            f"median {statistics.median(xs) * 1e3:10.2f} ms (unscaled {statistics.median(rs) * 1e3:10.2f})"
            if xs else "failed"
        )
        lines.append(f"    op {label:<36} {shown}  n={len(xs)}")
    lines += [f"  FAIL {msg}" for msg in tally.messages]
    return lines


def run_workload(args) -> int:
    env = child_env()
    print("env " + json.dumps(environment(args)))
    if args.workload == "algebra-ops":
        result = run_algebra_workload(args, env)
    else:
        result = run_cli_workload(args, env)
    e2e = end_to_end(result)
    print("\n".join(summary_lines(args.workload, result, e2e)))
    if args.trace:
        layers = per_layer(result)
        for name, unit in tracer.layer_names():
            print(f"  {name:<46} {layers[name]:16.6g} {unit}")
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in tracer.layer_names()}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    tally = result["tally"]
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own child run, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=200)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: {workload} run failed (exit {proc.returncode})", file=sys.stderr)
            return 1
        print(f"== {workload}")
        print("\n".join(lines[:-1]))
        part = json.loads(lines[-1])
        combined["correct"] &= part["correct"]
        combined["attempted"] += part["attempted"]
        combined["failed"] += part["failed"]
        for name, metric in part["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for the smoke test")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "sstorus" / "__init__.py").is_file():
        print(f"error: no sstorus package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
