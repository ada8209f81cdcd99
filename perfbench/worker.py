"""Long-lived library worker for the algebra-ops workload.

Protocol on stdin/stdout, one JSON line each way per step:
  1. reads the config (specs, pre-generated elements, op list, seconds, seed,
     trace directory), builds the elements and runs one untimed warm-up
     pass while sampling the machine's speed, then prints "ready", the
     mean probe and the time probing took;
  2. reads "go" (anything else exits), runs whole passes over the op list in
     seeded order, with a speed probe between ops, until `seconds` have
     passed, then, if a trace directory is set, one traced pass;
  3. prints per-op run counts, per-pass latencies and probe times, result
     digests and errors, and exits.

Only the package call is timed; digests are taken after each call.
"""

from __future__ import annotations

import json
import random
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter_ns

import speed
from reference import digest
from sstorus import idempotents, supersymmetry, torus


def call(kind: str, args):
    if kind == "multiply":
        return torus.multiply(*args)
    if kind == "phi":
        return supersymmetry.phi(*args, 1, 1)
    if kind == "is_supersymmetric":
        return supersymmetry.is_supersymmetric(*args)
    if kind == "json_roundtrip":
        return torus.element_from_json(torus.element_to_json(*args))
    return getattr(idempotents, kind)(*args)


def result_digest(result) -> str:
    if isinstance(result, bool):
        return repr(result)
    return digest(
        result.basis.value, [(ev.a, ev.b, c) for ev, c in result.terms.items()]
    )


class Runner:
    def __init__(self, config: dict):
        elements = {
            key: torus.element_from_dict(data) for key, data in config["elements"].items()
        }
        self.ops = [
            (kind, [elements[key] for key in keys]) for kind, keys in config["ops"]
        ]
        n = len(self.ops)
        self.runs = [0] * n
        self.digests = [None] * n
        self.mismatches = [0] * n
        self.errors = [0] * n
        self.error_text: list = []

    def run_op(self, i: int):
        """Run op i and check its digest; its time in ns, or None if it raised."""
        kind, args = self.ops[i]
        self.runs[i] += 1
        try:
            start = perf_counter_ns()
            result = call(kind, args)
            elapsed = perf_counter_ns() - start
        except Exception:
            self.errors[i] += 1
            if len(self.error_text) < 5:
                self.error_text.append(traceback.format_exc(limit=3))
            return None
        got = result_digest(result)
        if self.digests[i] is None:
            self.digests[i] = got
        elif got != self.digests[i]:
            self.mismatches[i] += 1
        return elapsed


def main() -> int:
    with speed.Sampler() as sampler:
        config = json.loads(sys.stdin.readline())
        runner = Runner(config)
        order = list(range(len(runner.ops)))
        for i in order:
            runner.run_op(i)
    print("ready", statistics.mean(sampler.samples), sampler.spent, flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0

    rng = random.Random(config["seed"])
    budget_ns = int(config["seconds"] * 1e9)
    passes = []  # per pass, each op's time in ns (None if it raised)
    speeds = []  # per pass, the mean of the probes just before and after each op
    pass_ns = []  # per pass, wall time without the probes
    begin = perf_counter_ns()
    while not pass_ns or perf_counter_ns() - begin < budget_ns:
        rng.shuffle(order)
        row = [None] * len(order)
        speed_row = [None] * len(order)
        start = perf_counter_ns()
        before, probing = speed.probe()
        for i in order:
            row[i] = runner.run_op(i)
            after, spent = speed.probe()
            speed_row[i] = (before + after) / 2
            before = after
            probing += spent
        pass_ns.append(perf_counter_ns() - start - int(probing * 1e9))
        passes.append(row)
        speeds.append(speed_row)

    traced_pass_ns = None
    if config["trace_dir"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        start = perf_counter_ns()
        for i in range(len(runner.ops)):
            tracer.op_id = i
            runner.run_op(i)
        traced_pass_ns = perf_counter_ns() - start
        tracer.write(Path(config["trace_dir"]) / "algebra-ops")

    report = {
        "runs": runner.runs,
        "passes": passes,
        "digests": runner.digests,
        "mismatches": runner.mismatches,
        "errors": runner.errors,
        "error_text": runner.error_text,
        "pass_ns": pass_ns,
        "speeds": speeds,
        "traced_pass_ns": traced_pass_ns,
    }
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
