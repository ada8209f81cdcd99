"""Exact computations in truncated divided-power algebras of diagonal tori
over prime fields: the orthogonal idempotent basis, shift-difference
supersymmetry, canonical labels with their counts, and verified bases of the
supersymmetric subalgebra."""

from .canonical import (
    CanonicalLabel,
    EquivClass,
    canonicalize,
    count_c,
    count_c_prime,
    count_canonical_total,
    count_ordinary_points_m1,
    defect,
    enumerate_canonical,
    enumerate_equivalence_class,
    is_canonical,
    is_ordinary,
    is_special,
)
from .idempotents import (
    evaluate_point,
    from_idempotent_basis,
    idempotent_h,
    multiply_idempotent_basis,
    to_idempotent_basis,
)
from .modp import alternating_power_sum, is_prime
from .ss_basis import (
    DENSE_ORACLE_MAX_N,
    CountReport,
    build_Ha,
    build_special,
    class_sums,
    dim_closed_form,
    gl11_generators,
    ss_component_oracle,
    ss_nullspace_oracle,
    verify_basis,
)
from .supersymmetry import (
    DaggerWitness,
    freeze_slices,
    is_bisymmetric,
    is_multiple_of_linear,
    is_supersymmetric,
    phi,
    satisfies_dagger,
    shift_substitute,
    star_system_check,
    symmetrize,
)
from .torus import (
    Basis,
    CapExceededError,
    DEFAULT_CAP,
    ExponentVector,
    MismatchError,
    TorusElement,
    TorusSpec,
    add,
    element_from_dict,
    element_from_json,
    element_to_dict,
    element_to_json,
    multiply,
    one,
    scale,
    zero,
)

__version__ = "0.1.0"
