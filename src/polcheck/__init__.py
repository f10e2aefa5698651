"""polcheck: exact verification of polynomial functional equations
satisfied by generalized polynomials over computable characteristic-zero
fields."""

__version__ = "0.1.0"

from .errors import (
    ArityTooLarge,
    DenominatorVanishes,
    DictionaryInsufficient,
    DivisionByZero,
    InvalidImage,
    NameResolutionError,
    ParseError,
    PolcheckError,
    SpecMismatch,
    TypeMismatch,
    UnsupportedSpec,
)
from .fields import (
    FieldElement,
    FieldSpec,
    SampleConfig,
    field_arith,
    format_element,
    normalize,
    parse_element,
    random_element,
    substitute,
)
from .forms import (
    ConstForm,
    GenMonomial,
    LinComb,
    Lift,
    MapOfProduct,
    ProductSym,
    SymmetricForm,
    delta_many,
    eval_form,
    polarize,
    trace,
)
from .funceq import (
    HOLDS_ON_SAMPLE,
    HOLDS_ON_SPAN,
    INCONCLUSIVE,
    NOT_APPLICABLE,
    REFUTED,
    Classification,
    EquationReport,
    Witness,
    check_pointwise,
    check_symmetrized,
    check_values,
    classify_quadratic_square,
    degree_precheck,
    quartic_solve,
)
from .genpoly import (
    NO_BOUND_FOUND,
    GenPoly,
    degree_estimate,
    eval_genpoly,
    genpoly_from,
    variety_rank,
)
from .maps import (
    ADDITIVE,
    LEIBNIZ,
    MULTIPLICATIVE,
    AdditiveMap,
    apply_map,
    build_derivation,
    build_endomorphism,
    compose_maps,
    identity_map,
    scale_map,
    sum_maps,
    verify_map_laws,
    zero_map,
)
from .oracle import Oracle, from_element, matches
from .polys import Poly
from .session import (
    ReportDocument,
    RunOptions,
    Session,
    default_probes,
    emit_report,
    parse_session,
    run_session,
)

__all__ = [name for name in dir() if not name.startswith("_")]
