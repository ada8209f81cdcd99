"""The benchmark's child processes; each runs the package from `src/`.

    python perfbench/child.py import
        import sstorus while sampling the machine's speed, then print the
        mean probe and the time probing took: "PROBE SPENT" seconds
    python perfbench/child.py cli PROBE_FILE -- CLI_ARGS...
        behave like `python -m sstorus.cli CLI_ARGS...` (same stdout and
        exit code) while sampling the machine's speed; write the samples to
        PROBE_FILE as JSON
    python perfbench/child.py trace TRACE_PREFIX OP_ID -- CLI_ARGS...
        the same command line with the tracer installed; write the trace to
        TRACE_PREFIX.{json,bin}
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

import speed


def main() -> int:
    mode, *rest = sys.argv[1:]
    if mode == "import":
        with speed.Sampler() as sampler:
            import sstorus  # noqa: F401
        print(statistics.mean(sampler.samples), sampler.spent)
        return 0
    cut = rest.index("--")
    params, argv = rest[:cut], rest[cut + 1 :]
    if mode == "cli":
        with speed.Sampler() as sampler:
            from sstorus import cli

            code = cli.main(argv)
        sys.stdout.flush()
        Path(params[0]).write_text(json.dumps({"samples": sampler.samples, "spent": sampler.spent}))
        return code
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.op_id = int(params[1])
        tracer.install()
        from sstorus import cli

        try:
            return cli.main(argv)
        finally:
            sys.stdout.flush()
            tracer.write(Path(params[0]))
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main())
