"""Spans and counters around the package's public functions, patched in from
outside so the package source stays untouched.

`Tracer.install()` replaces each traced function in every `sstorus` module
namespace that binds it (modules import each other's functions by name), so
internal calls are seen too.  Spans (id, name, start, end, parent, op id)
stay in per-thread buffers until `write()`; `load()` and `layer_metrics()`
turn the written files back into per-layer numbers.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
from array import array
from pathlib import Path
from time import perf_counter_ns

# Module -> functions wrapped in spans; each yields `<module>.<fn>.calls`
# and `<module>.<fn>.self_s`.
TRACED = {
    "canonical": [
        "enumerate_canonical",
        "is_canonical",
        "canonicalize",
        "enumerate_equivalence_class",
        "count_c",
    ],
    "torus": ["multiply", "element_to_dict", "element_from_json"],
    "idempotents": [
        "evaluate_point",
        "to_idempotent_basis",
        "from_idempotent_basis",
        "multiply_idempotent_basis",
        "idempotent_h",
    ],
    "supersymmetry": [
        "shift_substitute",
        "is_supersymmetric",
        "is_multiple_of_linear",
        "is_bisymmetric",
    ],
    "ss_basis": ["ss_nullspace_oracle", "verify_basis"],
    "fp_linalg": ["rref"],
    "cli": ["main"],
}
CACHED = "idempotents.idempotent_h"
FIELDS = 6  # span id, name index, start ns, end ns, parent span id, op id


def layer_names():
    """Every per-layer metric name with its unit, in report order."""
    out = []
    for mod, fns in TRACED.items():
        for fn in fns:
            out += [(f"{mod}.{fn}.calls", "count"), (f"{mod}.{fn}.self_s", "s")]
    out += [
        (f"{CACHED}.hit_ratio", "ratio"),
        (f"{CACHED}.cache_entries", "count"),
        ("fp_linalg.rref.cells", "count"),
        ("torus.ExponentVector.created", "count"),
        ("torus.TorusElement.created", "count"),
        ("cli.stdout_bytes", "bytes"),
        ("trace.traced_pass_s", "s"),
        ("trace.overhead_s", "s"),
    ]
    return out


class Tracer:
    def __init__(self):
        self.names = [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns]
        self.op_id = 0
        self._ids = itertools.count()
        self._local = threading.local()
        self._buffers = []
        self._created = {
            "torus.ExponentVector.created": itertools.count(),
            "torus.TorusElement.created": itertools.count(),
        }
        self._cells = 0
        self._cells_lock = threading.Lock()
        self._cache_fn = None
        self._cache_base = (0, 0)

    def _stack(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.buf = array("q")
            self._buffers.append(local.buf)
        return local

    def _wrap(self, name_idx: int, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            local = tracer._stack()
            stack = local.stack
            parent = stack[-1] if stack else -1
            sid = next(tracer._ids)
            stack.append(sid)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                local.buf.extend((sid, name_idx, start, end, parent, tracer.op_id))

        return wrapper

    def install(self):
        """Patch every traced function and the construction counters."""
        import sstorus  # noqa: F401  (loads every submodule but cli)
        import sstorus.cli  # noqa: F401

        modules = [
            mod
            for name, mod in sys.modules.items()
            if mod is not None and (name == "sstorus" or name.startswith("sstorus."))
        ]
        for idx, full in enumerate(self.names):
            mod_name, fn_name = full.split(".")
            orig = getattr(sys.modules[f"sstorus.{mod_name}"], fn_name)
            wrapper = self._wrap(idx, orig)
            if full == CACHED:
                wrapper.cache_info = orig.cache_info
                wrapper.cache_clear = orig.cache_clear
                info = orig.cache_info()
                self._cache_fn = orig
                self._cache_base = (info.hits, info.misses)
            if full == "fp_linalg.rref":
                wrapper = self._count_cells(wrapper)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapper)

        from sstorus.torus import ExponentVector, TorusElement

        ev_count = self._created["torus.ExponentVector.created"]
        el_count = self._created["torus.TorusElement.created"]
        post_init = ExponentVector.__post_init__
        init = TorusElement.__init__

        def counted_post_init(ev):
            next(ev_count)
            post_init(ev)

        def counted_init(el, *args, **kwargs):
            next(el_count)
            init(el, *args, **kwargs)

        ExponentVector.__post_init__ = counted_post_init
        TorusElement.__init__ = counted_init

    def _count_cells(self, fn):
        @functools.wraps(fn)
        def wrapper(matrix, *args, **kwargs):
            rows = len(matrix)
            cells = rows * len(matrix[0]) if rows else 0
            with self._cells_lock:
                self._cells += cells
            return fn(matrix, *args, **kwargs)

        return wrapper

    def write(self, prefix: Path):
        """Write spans to `<prefix>.bin` and names and counters to `<prefix>.json`."""
        counters = {name: next(c) for name, c in self._created.items()}
        counters["fp_linalg.rref.cells"] = self._cells
        caches = {}
        if self._cache_fn is not None:
            info = self._cache_fn.cache_info()
            caches[CACHED] = {
                "hits": info.hits - self._cache_base[0],
                "misses": info.misses - self._cache_base[1],
                "currsize": info.currsize,
            }
        spans = array("q")
        for buf in self._buffers:
            spans.extend(buf)
        with open(f"{prefix}.bin", "wb") as fh:
            spans.tofile(fh)
        meta = {"names": self.names, "counters": counters, "caches": caches}
        Path(f"{prefix}.json").write_text(json.dumps(meta))


def load(prefix: Path):
    """Read back one written trace: (meta, span columns keyed by field)."""
    meta = json.loads(Path(f"{prefix}.json").read_text())
    flat = array("q")
    with open(f"{prefix}.bin", "rb") as fh:
        flat.frombytes(fh.read())
    fields = ("id", "name", "start", "end", "parent", "op")
    return meta, {f: flat[i::FIELDS] for i, f in enumerate(fields)}


def _covered(intervals) -> int:
    """Length of the union of (start, end) intervals."""
    total = 0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def layer_metrics(trace_dir: Path) -> dict:
    """Aggregate every trace in a directory into per-layer values.

    A span's self time is its duration minus the part of it that its child
    spans cover.  A root span that starts inside another root span ran on a
    thread the other one started (`verify --grid` uses a thread pool), so it
    counts as that span's child; such children overlap each other, which is
    why coverage is a union of intervals.
    """
    calls: dict = {}
    self_ns: dict = {}
    counters: dict = {}
    hits = misses = entries = 0
    for meta_path in sorted(trace_dir.glob("*.json")):
        meta, cols = load(meta_path.with_suffix(""))
        names = meta["names"]
        spans = list(zip(cols["id"], cols["name"], cols["start"], cols["end"], cols["parent"]))
        roots = sorted((s for s in spans if s[4] < 0), key=lambda s: s[2])
        children: dict = {}
        for _, _, start, end, parent in spans:
            if parent >= 0:
                children.setdefault(parent, []).append((start, end))
        outer = None
        for root in roots:
            if outer is not None and root[3] <= outer[3]:
                children.setdefault(outer[0], []).append((root[2], root[3]))
            else:
                outer = root
        for sid, idx, start, end, _ in spans:
            name = names[idx]
            calls[name] = calls.get(name, 0) + 1
            self_ns[name] = self_ns.get(name, 0) + end - start - _covered(children.get(sid, []))
        for name, value in meta["counters"].items():
            counters[name] = counters.get(name, 0) + value
        cache = meta["caches"].get(CACHED)
        if cache:
            hits += cache["hits"]
            misses += cache["misses"]
            entries = max(entries, cache["currsize"])
    out = {}
    for mod, fns in TRACED.items():
        for fn in fns:
            name = f"{mod}.{fn}"
            out[f"{name}.calls"] = calls.get(name, 0)
            out[f"{name}.self_s"] = self_ns.get(name, 0) / 1e9
    out[f"{CACHED}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    out[f"{CACHED}.cache_entries"] = entries
    out.update(counters)
    return out
