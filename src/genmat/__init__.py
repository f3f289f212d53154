"""Generic exchange for graded algebras: Noether normalizations,
minimal reductions, and complete reductions, with Groebner-backed
verification over large prime fields."""

__version__ = "0.1.0"

from .polyring import (
    DEFAULT_PRIME,
    GREVLEX,
    LEX,
    MonomialOrder,
    MultiDegree,
    PolyRing,
    Polynomial,
    PrimeField,
    RingMismatchError,
    elimination_order,
    parse_polynomial,
    poly_to_str,
    polynomial_ring,
    random_linear_combination,
)
from .groebner import (
    GroebnerBasis,
    IdealSpec,
    buchberger,
    hilbert_numerator,
    is_zero_dimensional,
    kernel_of_map,
    krull_dimension,
    normal_form,
    top_degree,
)
from .algebra import (
    EquigeneratedIdeal,
    GradedAlgebraPresentation,
    InconclusiveError,
    OutsideIdealError,
    ReductionVerdict,
    analytic_spread,
    diagonal_subring,
    equigenerated_ideal,
    fiber_algebra,
    fiber_reduction_test,
    graded_algebra,
    ideal_power,
    ideal_product,
    is_complete_reduction_ideals,
    is_complete_reduction_ring,
    is_hsop,
    is_minimal_reduction,
    is_noether_normalization,
    is_reduction,
    lemma_correspondence_check,
    multigraded_fiber_algebra,
    standard_graded_algebra,
)
from .matroid import (
    AxiomCheck,
    ExchangeCertificate,
    ExchangeExhausted,
    ExchangePath,
    GenericMatroidInstance,
    MatroidHandle,
    check_generic_exchange_statistical,
    check_matroid_axioms,
    exchange_path,
    exchange_step,
)
from .instances import (
    complete_reduction_instance,
    finite_matroid,
    minred_instance,
    nn_instance,
    vector_matroid,
)
