"""Sparse exact arithmetic in truncated divided-power algebras of diagonal
tori over prime fields.

An element is an F_p-linear combination of monomials

    C(x_1, a_1) ... C(x_m, a_m) * C(y_1, b_1) ... C(y_n, b_n),

all exponents in [0, q) with q = p^r.  Distinct variables commute; within a
single variable the product expands as

    C(x, a) C(x, b) = sum_{i=0}^{min(a,b)} C(a+b-i, a-i) C(b, b-i) C(x, a+b-i),

and summands with exponent >= q are dropped: adding a-i to b then carries in
base p, so the dropped integer coefficient is divisible by p anyway.

Besides this binomial basis, elements can carry an idempotent basis tag (see
`idempotents`); operations here insist on matching tags and raise
`MismatchError` otherwise.
"""

from __future__ import annotations

import enum
import itertools
import json
from dataclasses import dataclass, field
from functools import lru_cache
from math import comb
from typing import Iterator

from .modp import _require_prime

DEFAULT_CAP = 10_000_000

# Integers up to this many bits print within Python's default limit of 4300
# decimal digits for int-to-str conversion.
MAX_PRINT_BITS = 14_000


def printable_power(p: int, e: int):
    """p^e if it has at most MAX_PRINT_BITS bits, else None.  A larger power
    is formed only when it has at most twice that many bits."""
    if (p.bit_length() - 1) * e > MAX_PRINT_BITS:
        return None
    power = p**e
    return power if power.bit_length() <= MAX_PRINT_BITS else None


class MismatchError(ValueError):
    """Operands belong to different algebras or carry different basis tags."""


class CapExceededError(ValueError):
    """The requested algebra has more basis labels than the configured cap."""


class Basis(enum.Enum):
    BINOMIAL = "binomial"
    IDEMPOTENT = "idempotent"


@dataclass(frozen=True, order=True)
class ExponentVector:
    """A label (a_1..a_m | b_1..b_n); compares lexicographically."""

    a: tuple
    b: tuple

    def __post_init__(self):
        a, b = self.a, self.b
        if type(a) is not tuple:
            a = tuple(a)
            object.__setattr__(self, "a", a)
        if type(b) is not tuple:
            b = tuple(b)
            object.__setattr__(self, "b", b)
        for v in a + b:
            if type(v) is not int:
                raise ValueError(f"label entries must be integers, got {v!r}")

    def total(self) -> int:
        return sum(self.a) + sum(self.b)

    def __str__(self):
        return "(%s|%s)" % (
            ",".join(map(str, self.a)),
            ",".join(map(str, self.b)),
        )


@dataclass(frozen=True)
class TorusSpec:
    """Ambient parameters of one truncated torus algebra.

    m x-variables, n y-variables, exponents below q = p^r.  Construction
    fails once q^(m+n) exceeds `cap`, decided from bit lengths before any
    large power is formed; the cap is configuration, not identity, so
    equality and hashing ignore it.
    """

    m: int
    n: int
    p: int
    r: int
    cap: int = field(default=DEFAULT_CAP, compare=False, repr=False)

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("need at least one x variable (m >= 1)")
        if self.n < 0:
            raise ValueError("n must be non-negative")
        if self.r < 1:
            raise ValueError("r must be positive")
        _require_prime(self.p)
        p, e, cap = self.p, self.r * (self.m + self.n), self.cap
        # p^e >= 2^((bits(p) - 1) e) settles a large exponent without forming
        # the power; otherwise p^e < 4 cap^2, which is cheap to form.
        if (p.bit_length() - 1) * e >= cap.bit_length() or p**e > cap:
            size = printable_power(p, e) or f"{p}^{e}"
            raise CapExceededError(f"q^(m+n) = {size} exceeds the label cap {cap}")

    @property
    def q(self) -> int:
        return self.p**self.r

    @property
    def dimension(self) -> int:
        return self.q ** (self.m + self.n)

    def labels(self) -> Iterator[ExponentVector]:
        """All labels, in lexicographic order."""
        rng = range(self.q)
        for a in itertools.product(rng, repeat=self.m):
            for b in itertools.product(rng, repeat=self.n):
                yield ExponentVector(a, b)

    def slot(self, block: str, index: int) -> int:
        """Position of x_index or y_index (1-based) in the flat tuple a + b."""
        if block == "x":
            if not 1 <= index <= self.m:
                raise ValueError(f"x index {index} out of range 1..{self.m}")
            return index - 1
        if block == "y":
            if not 1 <= index <= self.n:
                raise ValueError(f"y index {index} out of range 1..{self.n}")
            return self.m + index - 1
        raise ValueError("block must be 'x' or 'y'")

    def check_label(self, ev: ExponentVector):
        if len(ev.a) != self.m or len(ev.b) != self.n:
            raise ValueError(
                f"label {ev} has wrong shape for (m, n) = ({self.m}, {self.n})"
            )
        q = self.q
        for v in ev.a + ev.b:
            if not 0 <= v < q:
                raise ValueError(f"label {ev} has an exponent outside [0, {q})")


class TorusElement:
    """A sparse element: finite map from labels to nonzero residues mod p.

    Immutable by convention; every operation returns a fresh element.  Two
    elements are equal iff their specs, basis tags and term maps agree.  The
    constructor is the one place that reduces coefficients mod p and drops
    zeros, so operations hand it raw integer sums.
    """

    __slots__ = ("spec", "basis", "terms")

    def __init__(self, spec: TorusSpec, basis: Basis, terms):
        p = spec.p
        cleaned = {}
        items = terms.items() if hasattr(terms, "items") else terms
        for ev, c in items:
            c = int(c) % p
            if not c:
                continue
            spec.check_label(ev)
            cleaned[ev] = c
        self.spec = spec
        self.basis = basis
        self.terms = cleaned

    def coefficient(self, ev: ExponentVector) -> int:
        return self.terms.get(ev, 0)

    def is_zero(self) -> bool:
        return not self.terms

    def sorted_terms(self):
        return sorted(self.terms.items())

    def __eq__(self, other):
        if not isinstance(other, TorusElement):
            return NotImplemented
        return (
            self.spec == other.spec
            and self.basis is other.basis
            and self.terms == other.terms
        )

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return add(self, scale(-1, other))

    def __neg__(self):
        return scale(-1, self)

    def __mul__(self, other):
        if isinstance(other, TorusElement):
            if self.basis is Basis.IDEMPOTENT and other.basis is Basis.IDEMPOTENT:
                from . import idempotents

                return idempotents.multiply_idempotent_basis(self, other)
            return multiply(self, other)
        return scale(other, self)

    def __rmul__(self, other):
        return scale(other, self)

    def __str__(self):
        if not self.terms:
            return "0"
        mono = "h%s" if self.basis is Basis.IDEMPOTENT else "m%s"
        parts = []
        for ev, c in self.sorted_terms():
            head = "" if c == 1 else f"{c}*"
            parts.append(head + mono % ev)
        return " + ".join(parts)

    def __repr__(self):
        return (
            f"TorusElement({self.spec!r}, {self.basis.value!r}, "
            f"{dict(self.sorted_terms())!r})"
        )


def _require_same_spec(f: TorusElement, g: TorusElement):
    if f.spec != g.spec:
        raise MismatchError(f"spec mismatch: {f.spec} vs {g.spec}")


def _require_basis(f: TorusElement, basis: Basis):
    if f.basis is not basis:
        raise MismatchError(f"expected {basis.value}-basis element, got {f.basis.value}")


def zero(spec: TorusSpec, basis: Basis = Basis.BINOMIAL) -> TorusElement:
    return TorusElement(spec, basis, {})


def one(spec: TorusSpec) -> TorusElement:
    """The unit: the all-zero-exponent monomial in the binomial basis."""
    ev = ExponentVector((0,) * spec.m, (0,) * spec.n)
    return TorusElement(spec, Basis.BINOMIAL, {ev: 1})


def add(f: TorusElement, g: TorusElement) -> TorusElement:
    _require_same_spec(f, g)
    if f.basis is not g.basis:
        raise MismatchError("cannot add elements in different bases")
    terms = dict(f.terms)
    for ev, c in g.terms.items():
        terms[ev] = terms.get(ev, 0) + c
    return TorusElement(f.spec, f.basis, terms)


def scale(c, f: TorusElement) -> TorusElement:
    return TorusElement(f.spec, f.basis, {ev: c * cc for ev, cc in f.terms.items()})


def _coordinate_table(k1: int, k2: int, p: int, q: int):
    """Expansion of C(x, k1) C(x, k2) truncated below q, as ((exp, coeff), ...)."""
    out = []
    for i in range(min(k1, k2) + 1):
        e = k1 + k2 - i
        if e >= q:
            continue
        c = comb(e, k1 - i) * comb(k2, k2 - i) % p
        if c:
            out.append((e, c))
    return tuple(out)


# Five times the 3,240 monomial pairs of the benchmark's algebra-ops products.
@lru_cache(maxsize=1 << 14)
def _monomial_product(key1: tuple, key2: tuple, p: int, q: int):
    """Coordinatewise product of two monomials given by flat exponent keys."""
    partial = [((), 1)]
    for k1, k2 in zip(key1, key2):
        tab = _coordinate_table(k1, k2, p, q)
        partial = [
            (ex + (e,), c * ce % p) for ex, c in partial for e, ce in tab
        ]
    return tuple((ex, c) for ex, c in partial if c)


def multiply(f: TorusElement, g: TorusElement) -> TorusElement:
    """Product of two binomial-basis elements (commutative, associative)."""
    _require_same_spec(f, g)
    _require_basis(f, Basis.BINOMIAL)
    _require_basis(g, Basis.BINOMIAL)
    spec = f.spec
    p, q, m = spec.p, spec.q, spec.m
    gterms = [(ev.a + ev.b, c) for ev, c in g.terms.items()]
    acc: dict = {}
    for ev1, c1 in f.terms.items():
        key1 = ev1.a + ev1.b
        for key2, c2 in gterms:
            c12 = c1 * c2
            for ex, c in _monomial_product(key1, key2, p, q):
                acc[ex] = acc.get(ex, 0) + c12 * c
    terms = {}
    for ex, c in acc.items():
        if c % p:
            terms[ExponentVector(ex[:m], ex[m:])] = c
    return TorusElement(spec, Basis.BINOMIAL, terms)


def multiply_by_coordinate(f: TorusElement, block: str, index: int) -> TorusElement:
    """Left-multiply by the degree-one coordinate x_index or y_index, the
    monomial C(x_index, 1) or C(y_index, 1)."""
    spec = f.spec
    key = [0] * (spec.m + spec.n)
    key[spec.slot(block, index)] = 1
    coordinate = ExponentVector(tuple(key[: spec.m]), tuple(key[spec.m :]))
    return multiply(TorusElement(spec, Basis.BINOMIAL, {coordinate: 1}), f)


def multiply_by_linear(f: TorusElement, i: int, j: int) -> TorusElement:
    """Left-multiply by x_i + y_j (1-based indices into the two blocks)."""
    return add(
        multiply_by_coordinate(f, "x", i),
        multiply_by_coordinate(f, "y", j),
    )


def element_to_dict(f: TorusElement) -> dict:
    """JSON-ready form; terms sorted by label, coefficients in [1, p)."""
    spec = f.spec
    return {
        "m": spec.m,
        "n": spec.n,
        "p": spec.p,
        "r": spec.r,
        "basis": f.basis.value,
        "terms": [
            {"a": list(ev.a), "b": list(ev.b), "c": c} for ev, c in f.sorted_terms()
        ],
    }


def element_from_dict(data: dict, cap: int = DEFAULT_CAP) -> TorusElement:
    """Inverse of `element_to_dict`.  Spec fields, exponents and coefficients
    must be JSON integers: floats and booleans are rejected, not coerced."""
    try:
        fields = [data[k] for k in ("m", "n", "p", "r")]
        basis = Basis(data["basis"])
        raw = data["terms"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed element object: {exc}") from None
    if any(type(v) is not int for v in fields):
        raise ValueError(f"malformed element object: m, n, p, r must be integers, got {fields}")
    if type(raw) is not list:
        raise ValueError("malformed element object: terms must be a list")
    spec = TorusSpec(*fields, cap=cap)
    terms = {}
    for entry in raw:
        a, b, c = (
            (entry.get("a"), entry.get("b"), entry.get("c"))
            if type(entry) is dict
            else (None, None, None)
        )
        if not (
            type(a) is list
            and type(b) is list
            and type(c) is int
            and all(type(v) is int for v in a + b)
        ):
            raise ValueError(
                f"malformed term {entry!r}: needs integer lists a, b and an integer c"
            )
        ev = ExponentVector(tuple(a), tuple(b))
        if not 0 < c < spec.p:
            raise ValueError(f"coefficient {c} outside [1, {spec.p})")
        if ev in terms:
            raise ValueError(f"duplicate term at {ev}")
        terms[ev] = c
    return TorusElement(spec, basis, terms)


def element_text(data: dict, pad: str = "") -> str:
    """`json.dumps(data, indent=2)` for an `element_to_dict` document, with
    every line after the first indented by `pad`.

    A string template in `element_to_dict`'s key order: with an indent,
    json encodes through pure-Python generators, several times slower.
    """
    i2 = "\n" + pad + "  "
    i4, i6, i8 = i2 + "  ", i2 + "    ", i2 + "      "
    sep8, close8 = "," + i8, i6 + "]"

    def ints(v):
        return "[" + i8 + sep8.join(map(str, v)) + close8 if v else "[]"

    terms = ("," + i4).join(
        [
            f'{{{i6}"a": {ints(t["a"])},{i6}"b": {ints(t["b"])},{i6}"c": {t["c"]}{i4}}}'
            for t in data["terms"]
        ]
    )
    return (
        f'{{{i2}"m": {data["m"]},{i2}"n": {data["n"]},{i2}"p": {data["p"]},'
        f'{i2}"r": {data["r"]},{i2}"basis": {json.dumps(data["basis"])},'
        f'{i2}"terms": {"[" + i4 + terms + i2 + "]" if terms else "[]"}\n{pad}}}'
    )


def element_to_json(f: TorusElement) -> str:
    return element_text(element_to_dict(f))


def element_from_json(text: str, cap: int = DEFAULT_CAP) -> TorusElement:
    return element_from_dict(json.loads(text), cap=cap)
