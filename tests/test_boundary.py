"""Arguments checked at the door.

Every function that `import sstorus` binds and that takes an `int` is called
with valid, seeded arguments, then with `True`, a float and -1 in place of
each int argument in turn; every function that takes a label gets a plain
tuple in its place.  Only `ValueError` may come out (`MismatchError` and
`CapExceededError` are subclasses of it), except where -1 is a legal input.
"""

import inspect
import random

import pytest

import sstorus
from sstorus import Basis, ExponentVector, TorusSpec
from util import random_element

SPEC = TorusSpec(2, 1, 3, 1)


def valid_calls():
    """For each public function that takes an int: valid arguments, and the
    positions of its int arguments among them."""
    rng = random.Random(31)
    f, g = random_element(SPEC, rng, 4), random_element(SPEC, rng, 4)
    doc = sstorus.element_to_dict(f)
    return {
        "is_prime": ((7,), (0,)),
        "alternating_power_sum": ((3, 2), (0, 1)),
        "count_c": ((2, 1, 9, 3), (0, 1, 2, 3)),
        "count_c_prime": ((2, 1, 3), (0, 1, 2)),
        "count_ordinary_points_m1": ((2, 3), (0, 1)),
        "build_Ha": ((SPEC, 1), (1,)),
        "scale": ((2, f), (0,)),
        "shift_substitute": ((f, 2, 1), (1, 2)),
        "phi": ((f, 2, 1), (1, 2)),
        "is_multiple_of_linear": ((f, 2, 1), (1, 2)),
        "satisfies_dagger": ((f, 2, 1), (1, 2)),
        "freeze_slices": ((f, 2, 1), (1, 2)),
        "star_system_check": ((f, g, 2, 1), (2, 3)),
        "TorusSpec": ((2, 1, 3, 1, 1000), (0, 1, 2, 3, 4)),
        "element_from_dict": ((doc, 1000), (1,)),
        "element_from_json": ((sstorus.element_to_json(f), 1000), (1,)),
    }


# A report record that `verify_basis` fills in: its int fields are results.
RECORDS = {"CountReport"}


def public_callables():
    for name in sorted(vars(sstorus)):
        obj = getattr(sstorus, name)
        if not name.startswith("_") and callable(obj):
            try:
                yield name, inspect.signature(obj)
            except ValueError:  # the exception classes have none
                pass


def test_table_covers_every_int_parameter():
    table = valid_calls()
    for name, sig in public_callables():
        ints = [i for i, p in enumerate(sig.parameters.values()) if p.annotation == "int"]
        if ints and name not in RECORDS:
            assert name in table, name
            assert set(ints) <= set(table[name][1]), name


@pytest.mark.parametrize("bad", [True, "float", -1], ids=["bool", "float", "negative"])
def test_bad_ints_raise_value_error(bad):
    for name, (args, positions) in valid_calls().items():
        fn = getattr(sstorus, name)
        fn(*args)
        for i in positions:
            value = float(args[i]) if bad == "float" else bad
            changed = args[:i] + (value,) + args[i + 1 :]
            if (name, value) == ("is_prime", -1):
                assert fn(*changed) is False
            elif (name, value) == ("scale", -1):
                assert sstorus.add(fn(*changed), args[1]).is_zero()
            else:
                with pytest.raises(ValueError):
                    fn(*changed)
                    pytest.fail(f"{name} accepted {value!r} at position {i}")


LABEL = ((0, 1), (1,))  # special and canonical at p = 3


def label_calls():
    spec, f = SPEC, sstorus.one(SPEC)
    canonical = sstorus.canonicalize(ExponentVector(*LABEL), spec)
    return {
        "TorusElement": lambda ev: sstorus.TorusElement(spec, Basis.BINOMIAL, {ev: 1}),
        "build_special": lambda ev: sstorus.build_special(ev, spec),
        "canonicalize": lambda ev: sstorus.canonicalize(ev, spec),
        "defect": lambda ev: sstorus.defect(ev, spec),
        "enumerate_equivalence_class": lambda ev: sstorus.enumerate_equivalence_class(
            canonical._replace(ev=ev), spec
        ),
        "evaluate_point": lambda ev: sstorus.evaluate_point(f, ev),
        "idempotent_h": lambda ev: sstorus.idempotent_h(spec, ev),
        "is_canonical": lambda ev: sstorus.is_canonical(ev, spec),
        "is_ordinary": lambda ev: sstorus.is_ordinary(ev, spec),
        "is_special": lambda ev: sstorus.is_special(ev, spec),
        "symmetrize": lambda ev: sstorus.symmetrize(ev, spec),
        "check_label": spec.check_label,
    }


def test_label_table_covers_every_label_parameter():
    table = label_calls()
    for name, sig in public_callables():
        if any(p.annotation == "ExponentVector" for p in sig.parameters.values()):
            assert name in table, name


@pytest.mark.parametrize("name", sorted(label_calls()))
def test_plain_tuple_label_raises_value_error(name):
    call = label_calls()[name]
    call(ExponentVector(*LABEL))  # the same label is accepted
    with pytest.raises(ValueError):
        call(LABEL)
        pytest.fail(f"{name} accepted a plain tuple")
