"""Command-line interface: element arithmetic, canonical forms, basis
construction and the verification driver, all emitting JSON on stdout.

Exit codes: 0 success, 1 verification failure, 2 bad input, 3 label cap
exceeded or memory exhausted.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import canonical as canon
from . import ss_basis, torus
from .supersymmetry import is_supersymmetric
from .torus import (
    CapExceededError,
    DEFAULT_CAP,
    ExponentVector,
    MismatchError,
    TorusSpec,
)

DEFAULT_GRID = [
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

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INPUT = 2
EXIT_CAP = 3


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_element(path: str, cap: int):
    return torus.element_from_json(_read_text(path), cap=cap)


def _load_config(args) -> dict:
    if not getattr(args, "config", None):
        return {}
    data = torus.load_json(_read_text(args.config))
    if not isinstance(data, dict):
        raise ValueError("config must be a JSON object")
    if unknown := sorted(data.keys() - {"cap", "grid"}):
        raise ValueError(f"config keys {unknown} are unknown: only cap and grid are read")
    return data


def _effective_cap(args, config: dict) -> int:
    if args.cap is not None:
        source, cap = "--cap", args.cap
    else:
        source, cap = "config cap", config.get("cap", DEFAULT_CAP)
    if type(cap) is not int or cap < 1:
        raise ValueError(f"{source} {cap!r} is not a positive integer")
    return cap


def _spec_fields(args) -> tuple:
    fields = (args.m, args.n, args.p, args.r)
    for name, value in zip("mnpr", fields):
        if value is None:
            raise ValueError(f"--{name} is required here")
    return fields


def _parse_label(text: str) -> ExponentVector:
    left, sep, right = text.partition("|")
    if not sep:
        raise ValueError("label must look like 'a1,..,am|b1,..,bn'")

    def parse_side(side: str) -> tuple:
        side = side.strip()
        if not side:
            return ()
        return tuple(int(tok) for tok in side.replace(" ", "").split(","))

    return ExponentVector(parse_side(left), parse_side(right))


def _emit(obj) -> None:
    print(json.dumps(obj, indent=2))


def _emit_list(docs) -> None:
    """Print the same text as `_emit(list(docs))` for `element_to_dict`
    documents in pieces of at least 64 KiB (then the rest): the output is
    never held whole, and unbuffered stdout takes few writes."""
    write, head, piece, size = sys.stdout.write, "[\n  ", [], 0
    for doc in docs:
        piece.append(head + torus.element_text(doc, "  "))
        size += len(piece[-1])
        if size >= 1 << 16:
            write("".join(piece))
            piece, size = [], 0
        head = ",\n  "
    piece.append("[]\n" if head == "[\n  " else "\n]\n")
    write("".join(piece))


def cmd_mul(args, config: dict, cap: int) -> int:
    f = _load_element(args.lhs, cap)
    g = _load_element(args.rhs, cap)
    print(torus.element_to_json(f * g))
    return EXIT_OK


def cmd_canonical(args, config: dict, cap: int) -> int:
    spec = TorusSpec(*_spec_fields(args), cap=cap)
    label = canon.canonicalize(_parse_label(args.label), spec)
    cls = canon.enumerate_equivalence_class(label, spec)
    _emit(
        {
            "canonical": {"a": list(label.ev.a), "b": list(label.ev.b)},
            "defect": label.defect,
            "e": label.e,
            "f": label.f,
            "class_size": len(cls.members),
        }
    )
    return EXIT_OK


def cmd_basis(args, config: dict, cap: int) -> int:
    spec = TorusSpec(*_spec_fields(args), cap=cap)
    elements = (ss_basis.ss_component_oracle if args.oracle else ss_basis.class_sums)(spec)
    _emit_list(torus.element_to_dict(e) for e in elements)
    return EXIT_OK


def cmd_count(args, config: dict, cap: int) -> int:
    m, n, p, r = _spec_fields(args)
    if n < 1:
        raise ValueError("counting requires n >= 1")
    try:
        spec = TorusSpec(m, n, p, r, cap=cap)
        enumerated = sum(1 for _ in canon._canonical_shapes(spec))
    except CapExceededError:
        # TorusSpec has checked m, r and p before it compared with the cap.
        enumerated = None
    q = torus.printable_power(p, r)
    if q is None:
        raise ValueError(f"q = {p}^{r} has too many digits to print")
    at = f"(m, n, p, r) = ({m}, {n}, {p}, {r})"
    too_long = ValueError(f"the count at {at} has too many digits to print")
    # Beside b = (0, .., 0), every sorted a block of nonzero residues is a
    # canonical label: the total is at least C(N + m - 1, m) >= (N/m)^m for
    # N = q - q/p, and likewise with the blocks swapped.
    big = max(m, n)
    if big * (((q - q // p) // big).bit_length() - 1) >= torus.MAX_PRINT_BITS:
        raise too_long
    # Without --by-defect, every positive defect is counted in one sum.
    top = min(m, n) if args.by_defect else 1
    work = canon._count_work(m, n, q, p, top)
    if work > canon.MAX_COUNT_WORK:
        raise ValueError(
            f"the count at {at} is too much work: about {work:.1e} bit operations,"
            f" above {canon.MAX_COUNT_WORK:.1e}"
        )
    counts = canon._counts_by_defect(m, n, q, p, top)
    total = sum(counts)
    # The by-defect counts are the parts of the total, so they print too.
    if total.bit_length() > torus.MAX_PRINT_BITS:
        raise too_long
    out = {"total": total, "enumerated": enumerated}
    if args.by_defect:
        out["by_defect"] = {str(d): c for d, c in enumerate(counts)}
    _emit(out)
    return EXIT_OK


def _grid_from(config: dict):
    """The config's grid, or the default one: a non-empty list of
    [m, n, p, r] lists of integers (no floats, no booleans)."""
    if "grid" not in config:
        return DEFAULT_GRID
    grid = config["grid"]
    if not isinstance(grid, list) or not grid:
        raise ValueError("config grid must be a non-empty list of [m, n, p, r] lists")
    for entry in grid:
        if not (
            isinstance(entry, list)
            and len(entry) == 4
            and all(type(v) is int for v in entry)
        ):
            raise ValueError(f"config grid entry {entry!r} is not a list of four integers")
    return [tuple(entry) for entry in grid]


def cmd_verify(args, config: dict, cap: int) -> int:
    if args.check_ss:
        element = _load_element(args.check_ss, cap)
        ok = is_supersymmetric(element)
        _emit({"supersymmetric": ok})
        return EXIT_OK if ok else EXIT_VERIFY

    # Every spec is built before any is verified, so a bad one exits first.
    entries = _grid_from(config) if args.grid else [_spec_fields(args)]
    specs = [TorusSpec(*entry, cap=cap) for entry in entries]
    reports = [ss_basis.verify_basis(spec) for spec in specs]
    _emit([rep.to_dict() for rep in reports] if args.grid else reports[0].to_dict())
    for rep in reports:
        for failure in rep.failures:
            print(f"FAIL {rep.spec}: {failure}", file=sys.stderr)
    return EXIT_OK if all(rep.passed for rep in reports) else EXIT_VERIFY


def _add_spec_flags(sub):
    for name in "mnpr":
        sub.add_argument(f"--{name}", type=int)


def _add_common_flags(sub):
    sub.add_argument("--cap", type=int, default=None, help="label-count cap")
    sub.add_argument("--config", type=str, default=None, help="JSON config file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sstorus",
        description="Exact torus algebra computations over prime fields.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    mul = subs.add_parser("mul", help="multiply two element JSON files")
    mul.add_argument("lhs")
    mul.add_argument("rhs")
    _add_common_flags(mul)
    mul.set_defaults(func=cmd_mul)

    can = subs.add_parser("canonical", help="canonical form of a label")
    _add_spec_flags(can)
    can.add_argument("label", help="label like '1,2|0'")
    _add_common_flags(can)
    can.set_defaults(func=cmd_canonical)

    basis = subs.add_parser("basis", help="emit the supersymmetric basis")
    _add_spec_flags(basis)
    basis.add_argument("--oracle", action="store_true", help="emit the nullspace basis instead")
    _add_common_flags(basis)
    basis.set_defaults(func=cmd_basis)

    verify = subs.add_parser("verify", help="run the verification bundle")
    _add_spec_flags(verify)
    verify.add_argument("--grid", action="store_true", help="verify the built-in grid")
    verify.add_argument("--check-ss", type=str, default=None, metavar="FILE",
                        help="check one element file ('-' for stdin) for supersymmetry")
    _add_common_flags(verify)
    verify.set_defaults(func=cmd_verify)

    count = subs.add_parser("count", help="canonical-label counts")
    _add_spec_flags(count)
    count.add_argument("--by-defect", action="store_true", dest="by_defect")
    _add_common_flags(count)
    count.set_defaults(func=cmd_count)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config(args)
        return args.func(args, config, _effective_cap(args, config))
    except (CapExceededError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_CAP
    except (MismatchError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
