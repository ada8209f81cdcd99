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
from collections.abc import Iterator
from functools import lru_cache
from math import comb
from operator import itemgetter
from types import MappingProxyType

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


class ExponentVector(tuple):
    """A label (a_1..a_m | b_1..b_n): the pair (a, b) of int tuples, so it
    hashes, compares and orders lexicographically as that pair does."""

    __slots__ = ()
    a, b = property(itemgetter(0)), property(itemgetter(1))

    def __new__(cls, a, b):
        ev = tuple.__new__(cls, (tuple(a), tuple(b)))
        ev.__post_init__()
        return ev

    def __post_init__(self):
        for v in self[0] + self[1]:
            if type(v) is not int:
                raise ValueError(f"label entries must be integers, got {v!r}")

    def __getnewargs__(self):
        return tuple(self)

    def total(self) -> int:
        return sum(self[0]) + sum(self[1])

    def __repr__(self):
        return "ExponentVector(a=%r, b=%r)" % self

    def __str__(self):
        return "(%s|%s)" % (",".join(map(str, self[0])), ",".join(map(str, self[1])))


class TorusSpec:
    """Ambient parameters of one truncated torus algebra.

    m x-variables, n y-variables, exponents below q = p^r, every field an
    `int` (a float or a bool is rejected, not coerced).  Construction fails
    once q^(m+n) exceeds `cap`, decided from bit lengths before any large
    power is formed; the cap is configuration, not identity, so equality
    and hashing ignore it.
    """

    __slots__ = ("m", "n", "p", "r", "cap", "q")

    def __init__(self, m: int, n: int, p: int, r: int, cap: int = DEFAULT_CAP):
        for name, v in zip(self.__slots__, (m, n, p, r, cap)):
            if type(v) is not int:
                raise ValueError(f"{name} must be an integer, got {v!r}")
        if m < 1:
            raise ValueError("need at least one x variable (m >= 1)")
        if n < 0:
            raise ValueError("n must be non-negative")
        if r < 1:
            raise ValueError("r must be positive")
        _require_prime(p)
        e = r * (m + n)
        # p^e >= 2^((bits(p) - 1) e) settles a large exponent without forming
        # the power; otherwise p^e < 4 cap^2, which is cheap to form.
        if (p.bit_length() - 1) * e >= cap.bit_length() or p**e > cap:
            size = printable_power(p, e) or f"{p}^{e}"
            raise CapExceededError(f"q^(m+n) = {size} exceeds the label cap {cap}")
        # Past the cap check, so q <= cap.
        for name, v in zip(self.__slots__, (m, n, p, r, cap, p**r)):
            object.__setattr__(self, name, v)

    def __setattr__(self, name, *value):
        raise AttributeError(f"TorusSpec is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return TorusSpec, (self.m, self.n, self.p, self.r, self.cap)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.m, self.n, self.p, self.r) == (other.m, other.n, other.p, other.r)

    def __hash__(self):
        return hash((self.m, self.n, self.p, self.r))

    def __repr__(self):
        return f"TorusSpec(m={self.m}, n={self.n}, p={self.p}, r={self.r})"

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
        if type(index) is not int:
            raise ValueError(f"{block} index must be an integer, got {index!r}")
        if block == "x":
            if not 1 <= index <= self.m:
                raise ValueError(f"x index {index} out of range 1..{self.m}")
            return index - 1
        if block == "y":
            if not 1 <= index <= self.n:
                raise ValueError(f"y index {index} out of range 1..{self.n}")
            return self.m + index - 1
        raise ValueError("block must be 'x' or 'y'")

    def check_label(self, ev: ExponentVector) -> int:
        """The flat index of `ev` (see `torus._flat`); `ValueError` if it is
        not an `ExponentVector`, its shape is wrong or an exponent lies
        outside [0, q)."""
        if not isinstance(ev, ExponentVector):
            raise ValueError(f"a label must be an ExponentVector, got {ev!r}")
        if len(ev.a) != self.m or len(ev.b) != self.n:
            raise ValueError(
                f"label {ev} has wrong shape for (m, n) = ({self.m}, {self.n})"
            )
        q, t = self.q, 0
        for v in ev.a + ev.b:
            if not 0 <= v < q:
                raise ValueError(f"label {ev} has an exponent outside [0, {q})")
            t = t * q + v
        return t


_new, _pair = object.__new__, tuple.__new__

# At most this many blocks, q^m + q^n, are tabled once per (q, m, n) for
# decoding labels; a larger algebra decodes from the blocks at hand.
BLOCK_TABLE_LIMIT = 1 << 14


@lru_cache(maxsize=4)
def _block_tables(q: int, m: int, n: int):
    """(A, B, q^n) with A and B the lists of all q^m and all q^n blocks in
    flat order, or None above `BLOCK_TABLE_LIMIT` blocks."""
    if q**m + q**n > BLOCK_TABLE_LIMIT:
        return None
    return *(list(itertools.product(range(q), repeat=k)) for k in (m, n)), q**n


def _decoder(spec: TorusSpec, keys):
    """(A, B, w) such that the label at each flat index t in `keys` is
    (A[t // w], B[t % w]): `_block_tables` where they exist, else maps from
    the blocks of `keys` alone, so a sparse element of a large algebra
    costs its size."""
    q, m, n = spec.q, spec.m, spec.n
    tables = _block_tables(q, m, n)
    if tables:
        return tables
    w = q**n
    return _blocks({t // w for t in keys}, q, m), _blocks({t % w for t in keys}, q, n), w


def _labels(spec: TorusSpec, keys) -> list:
    """The labels at the flat indices `keys`, in order."""
    A, B, w = _decoder(spec, keys)
    return [_pair(ExponentVector, (A[t // w], B[t % w])) for t in keys]


def _blocks(us, q: int, k: int) -> dict:
    """The map from each u in `us` to its k base-q digits, as a tuple."""
    us = list(us)
    digits = [[u // q**s % q for u in us] for s in range(k - 1, -1, -1)]
    return dict(zip(us, zip(*digits) if k else itertools.repeat(())))


def _flat(label, q: int) -> int:
    """The flat index of a label, or of any (a, b) pair: the integer whose
    base-q digits are a + b, its position in `spec.labels()`."""
    t = 0
    for v in label[0] + label[1]:
        t = t * q + v
    return t


def _weight(spec: TorusSpec, block: str, index: int) -> int:
    """The place value in a flat index of the digit of x_index or y_index."""
    return spec.q ** (spec.m + spec.n - 1 - spec.slot(block, index))


class TorusElement:
    """A sparse element: finite map from labels to nonzero residues mod p,
    held as `coeffs`, keyed by flat index (see `_flat`); `terms` is the same
    map keyed by label, read-only and decoded once, on first use.

    Immutable by convention; every operation returns a fresh element.  The
    constructors are the one place that reduces coefficients mod p and drops
    zeros, so operations hand them raw integer sums.  A coefficient that is
    not an `int` (a float or a bool included) raises `ValueError`, and so
    does a label outside the spec.  Operations build their results on flat
    indices in range through `_element` instead, which skips both checks.
    """

    __slots__ = ("spec", "basis", "coeffs", "_terms")

    def __init__(self, spec: TorusSpec, basis: Basis, terms):
        p = spec.p
        coeffs = {}
        items = terms.items() if hasattr(terms, "items") else terms
        for ev, c in items:
            if type(c) is not int:
                raise ValueError(f"coefficients must be integers, got {c!r}")
            c %= p
            if c:
                coeffs[spec.check_label(ev)] = c
        self.spec, self.basis, self.coeffs, self._terms = spec, basis, coeffs, None

    @property
    def terms(self):
        if self._terms is None:
            coeffs = self.coeffs
            self._terms = dict(zip(_labels(self.spec, coeffs), coeffs.values()))
        return MappingProxyType(self._terms)

    def coefficient(self, ev: ExponentVector) -> int:
        return self.terms.get(ev, 0)

    def is_zero(self) -> bool:
        return not self.coeffs

    def sorted_terms(self):
        keys = sorted(self.coeffs)
        return list(zip(_labels(self.spec, keys), map(self.coeffs.__getitem__, keys)))

    def __eq__(self, other):
        if not isinstance(other, TorusElement):
            return NotImplemented
        return (
            self.spec == other.spec
            and self.basis is other.basis
            and self.coeffs == other.coeffs
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
        if not self.coeffs:
            return "0"
        mono = "h%s" if self.basis is Basis.IDEMPOTENT else "m%s"
        parts = []
        for ev, c in self.sorted_terms():
            head = "" if c == 1 else f"{c}*"
            parts.append(head + mono % (ev,))
        return " + ".join(parts)

    def __repr__(self):
        return (
            f"TorusElement({self.spec!r}, {self.basis.value!r}, "
            f"{dict(self.sorted_terms())!r})"
        )


def _element(spec: TorusSpec, basis: Basis, terms) -> TorusElement:
    """A `TorusElement` from (flat index, int) pairs whose indices are in
    range by construction: reduces mod p and drops zeros, and checks nothing."""
    p = spec.p
    f = _new(TorusElement)
    f.spec, f.basis, f._terms = spec, basis, None
    f.coeffs = {t: r for t, c in terms if (r := c % p)}
    return f


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
    coeffs = dict(f.coeffs)
    for t, c in g.coeffs.items():
        coeffs[t] = coeffs.get(t, 0) + c
    return _element(f.spec, f.basis, coeffs.items())


def scale(c, f: TorusElement) -> TorusElement:
    if type(c) is not int:
        raise ValueError(f"coefficients must be integers, got {c!r}")
    return _element(f.spec, f.basis, [(t, c * cc) for t, cc in f.coeffs.items()])


# Products of monomial pairs by (t1, t2, p, q, k), as `_monomial_product`
# returns them.  A product of more than PRODUCT_TERMS_MAX terms is not kept,
# and the cache is emptied before it would hold PRODUCT_CACHE_TERMS in all.
PRODUCT_TERMS_MAX = 1 << 12
PRODUCT_CACHE_TERMS = 1 << 18
_products: dict = {}
_product_terms = 0


def _monomial_product(t1: int, t2: int, p: int, q: int, k: int):
    """Product of the monomials at flat indices t1 and t2 of labels with k
    entries, as ((flat index, coeff), ...): per coordinate, the module
    docstring's expansion of C(x, k1) C(x, k2), less exponents of q or more
    and zero coefficients, so their products are nonzero mod the prime p.
    Kept in `_products` when small."""
    global _product_terms
    partial = [(0, 1)]
    for w in [q**s for s in range(k - 1, -1, -1)]:
        k1, k2 = t1 // w % q, t2 // w % q
        tab = [
            (e, c)
            for i in range(min(k1, k2) + 1)
            if (e := k1 + k2 - i) < q and (c := comb(e, k1 - i) * comb(k2, i) % p)
        ]
        partial = [(t * q + e, c * ce % p) for t, c in partial for e, ce in tab]
    product = tuple(partial)
    if len(product) <= PRODUCT_TERMS_MAX:
        if _product_terms + len(product) > PRODUCT_CACHE_TERMS:
            _products.clear()
            _product_terms = 0
        _products[t1, t2, p, q, k] = product
        _product_terms += len(product)
    return product


def multiply(f: TorusElement, g: TorusElement) -> TorusElement:
    """Product of two binomial-basis elements (commutative, associative),
    accumulated on flat indices.  Exponents stay below q, so every index is
    a label's."""
    _require_same_spec(f, g)
    _require_basis(f, Basis.BINOMIAL)
    _require_basis(g, Basis.BINOMIAL)
    spec = f.spec
    p, q, k = spec.p, spec.q, spec.m + spec.n
    gterms = list(g.coeffs.items())
    acc: dict = {}
    for t1, c1 in f.coeffs.items():
        for t2, c2 in gterms:
            c12 = c1 * c2
            product = _products.get((t1, t2, p, q, k))
            if product is None:
                product = _monomial_product(t1, t2, p, q, k)
            for t, c in product:
                acc[t] = acc.get(t, 0) + c12 * c
    return _element(spec, Basis.BINOMIAL, acc.items())


def element_to_dict(f: TorusElement) -> dict:
    """JSON-ready form; terms sorted by label, coefficients in [1, p)."""
    spec, coeffs = f.spec, f.coeffs
    keys = sorted(coeffs)
    A, B, w = _decoder(spec, keys)
    return {
        "m": spec.m,
        "n": spec.n,
        "p": spec.p,
        "r": spec.r,
        "basis": f.basis.value,
        "terms": [{"a": list(A[t // w]), "b": list(B[t % w]), "c": coeffs[t]} for t in keys],
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
            and set(map(type, a + b)) <= {int}
        ):
            raise ValueError(
                f"malformed term {entry!r}: needs integer lists a, b and an integer c"
            )
        ev = _pair(ExponentVector, (tuple(a), tuple(b)))  # entries checked above
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
    Every term fills one `%`-template, built from m and n.
    """
    i2 = "\n" + pad + "  "
    i4, i6, i8 = i2 + "  ", i2 + "    ", i2 + "      "

    def ints(k):
        return "[" + i8 + ("," + i8).join(["%s"] * k) + i6 + "]" if k else "[]"

    term = f'{{{i6}"a": {ints(data["m"])},{i6}"b": {ints(data["n"])},{i6}"c": %s{i4}}}'
    terms = ("," + i4).join([term % (*t["a"], *t["b"], t["c"]) for t in data["terms"]])
    return (
        f'{{{i2}"m": {data["m"]},{i2}"n": {data["n"]},{i2}"p": {data["p"]},'
        f'{i2}"r": {data["r"]},{i2}"basis": {json.dumps(data["basis"])},'
        f'{i2}"terms": {"[" + i4 + terms + i2 + "]" if terms else "[]"}\n{pad}}}'
    )


def element_to_json(f: TorusElement) -> str:
    return element_text(element_to_dict(f))


def load_json(text: str):
    """`json.loads`, with nesting too deep for the parser as a `ValueError`."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON input is nested too deeply") from None


def element_from_json(text: str, cap: int = DEFAULT_CAP) -> TorusElement:
    return element_from_dict(load_json(text), cap=cap)
