"""Residual intersections, Fitting ideals, and Koszul-homology computations
on polynomial ideals over exact fields."""

__version__ = "0.1.0"

from .field import FieldSpec, RATIONALS, GF32003
from .ring import PolyRing, Polynomial, MonomialOrder
from .groebner import (
    GroebnerBasis,
    reduced_groebner,
    normal_form,
    syzygies,
    ideal_syzygies,
    express_in_terms,
    set_step_limit,
)
from .ideals import (
    Ideal,
    ideal_sum,
    intersect,
    colon,
    ideal_equal,
    dimension,
    height,
    min_gens,
    mu,
)
from .fitting import (
    check_Gs,
    minors,
    presentation_of_quotient,
    fitt0_quotient,
)
from .koszul import (
    ExteriorElement,
    KoszulComplex,
    homology_lifts,
    kitt,
    kitt_via_cycles,
    fitt0_via_Z1,
    wedge,
)
from .residual import (
    ResidualInstance,
    VerificationReport,
    generic_generators,
    is_residual,
    is_geometric,
    rhs_formula,
    links_in_formula,
    verify,
)
from .instances import parse_instance, format_instance
from .corpus import generate_corpus, generate_instance
