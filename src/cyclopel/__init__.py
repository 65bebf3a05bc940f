"""cyclopel: integral PEL data for families of cyclic covers of the line.

Exact cyclotomic arithmetic, certified interval embeddings, monodromy
degeneration, CM-type simplicity, polarization elements, and assembly of
the block-diagonal Hermitian form with its integral Gram matrix."""

from .cmfield import CMType, SimplicityReport, cm_type_from_triple, is_simple
from .cyclotomic import Cyclo, element_str, parse_element
from .embeddings import ComplexInterval, certified_sign_im, embed
from .errors import (
    CyclopelError,
    DisconnectedCover,
    Indeterminate,
    InvariantViolation,
    NonCompactType,
    NonIntegralForm,
    NonMaximalOrder,
    UnbalancedInertia,
    Unsatisfiable,
    UnsupportedModulus,
    ZeroInertia,
)
from .monodromy import (
    DegenerationTree,
    MonodromyDatum,
    Signature,
    degenerate,
    galois_act,
    genus,
    signature,
    validate,
)
from .peldatum import (
    Block,
    FamilyResult,
    HermitianDatum,
    assemble,
    form_signature,
    gram_determinant,
    gram_matrix,
)
from .polarization import (
    beta0,
    beta_for_type,
    equivalent_beta,
    verify_conditions,
)
from .verify import (
    equivalent_datum,
    load_corpus,
    m17_pipeline,
    verify_fixture,
)

__version__ = "0.1.0"

__all__ = [
    "Block",
    "CMType",
    "ComplexInterval",
    "Cyclo",
    "CyclopelError",
    "DegenerationTree",
    "DisconnectedCover",
    "FamilyResult",
    "HermitianDatum",
    "Indeterminate",
    "InvariantViolation",
    "MonodromyDatum",
    "NonCompactType",
    "NonIntegralForm",
    "NonMaximalOrder",
    "Signature",
    "SimplicityReport",
    "UnbalancedInertia",
    "Unsatisfiable",
    "UnsupportedModulus",
    "ZeroInertia",
    "assemble",
    "beta0",
    "beta_for_type",
    "certified_sign_im",
    "cm_type_from_triple",
    "degenerate",
    "element_str",
    "embed",
    "equivalent_beta",
    "equivalent_datum",
    "form_signature",
    "galois_act",
    "genus",
    "gram_determinant",
    "gram_matrix",
    "is_simple",
    "load_corpus",
    "m17_pipeline",
    "parse_element",
    "signature",
    "validate",
    "verify_fixture",
    "__version__",
]
