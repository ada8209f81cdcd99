"""One sha256 over the JSON text of seeded outputs of the element operations.

The digest was computed before term maps were keyed by flat index, so any
change in the product, the shift difference or the change of basis, down to
a single coefficient or the order of the printed terms, shows here.
"""

import hashlib
import random

from sstorus.idempotents import from_idempotent_basis, to_idempotent_basis
from sstorus.supersymmetry import phi
from sstorus.torus import Basis, TorusSpec, element_to_json, multiply
from util import random_element

SPECS = [
    (1, 1, 2, 1),
    (1, 0, 5, 1),
    (2, 0, 3, 1),
    (1, 1, 3, 1),
    (1, 1, 2, 2),
    (1, 1, 5, 1),
    (1, 1, 3, 2),
    (2, 1, 2, 1),
    (2, 1, 3, 1),
    (1, 2, 3, 1),
    (2, 1, 2, 3),
    (2, 2, 2, 2),
    (2, 2, 3, 1),
    (2, 1, 3, 2),
    (3, 1, 2, 2),
    (1, 1, 7, 2),
    (2, 2, 5, 1),
]
ROUNDS = 12
DIGEST = "cfe05d661aaba93a3174e1e0cc4ba5317e2a1ba3b5d2f69f7fb350cd3215d57a"


def outputs():
    """The JSON text of every output, in a fixed order."""
    for fields in SPECS:
        spec = TorusSpec(*fields)
        m, n = spec.m, spec.n
        rng = random.Random(sum(v * 31**i for i, v in enumerate(fields)))
        for k in range(ROUNDS):
            size = (1, 3, 8, 24)[k % 4]
            f = random_element(spec, rng, max_terms=size)
            g = random_element(spec, rng, max_terms=size + 2)
            h = random_element(spec, rng, max_terms=size * 2, basis=Basis.IDEMPOTENT)
            results = [multiply(f, g), multiply(g, f), to_idempotent_basis(f)]
            results.append(from_idempotent_basis(h))
            if n:
                results += [phi(f, 1, 1), phi(g, m, n)]
            yield from map(element_to_json, results)


def test_outputs_match_the_pinned_digest():
    digest = hashlib.sha256()
    count = 0
    for text in outputs():
        digest.update(text.encode() + b"\n")
        count += 1
    assert count == 1176
    assert digest.hexdigest() == DIGEST
