"""Exact intersection calculus for F-curves and nef cones on the moduli
of stable curves, with the Torelli-pullback catalog for compactified
moduli of abelian varieties."""

from .cones import (
    DEFAULT_DIM_LIMIT,
    Check,
    FaceCertificate,
    PolyCone,
    extreme_rays,
    face_certificate,
    face_of,
    fnef_cone,
    lemma_matrix,
    nonneg_combination,
    verify_extremal_face,
)
from .divisors import (
    DivisorClass,
    GenusContext,
    as_context,
    boundary_total,
    canonical_class,
    delta,
    face_member,
    from_coeffs,
    lambda_class,
    linear_combination,
    parse_divisor,
    reflect_index,
    twelve_lambda_minus_delta0,
    zero_divisor,
)
from .errors import (
    CertificateFailure,
    DimensionLimitError,
    GenusMismatchError,
    IndexOutOfRangeError,
    MgnefError,
    ModelMismatchError,
    NegativeCoefficientError,
    NonSquareError,
    NotMemberError,
    NotPointedError,
    ParseError,
    UnsupportedGenusError,
)
from .fcurves import (
    FCurve,
    FCurveClass,
    enumerate_fcurves,
    enumerate_fcurves_raw,
    ineq_row,
    intersect,
    intersection_vector,
    is_fnef,
    numerical_classes,
)
from .linalg import QMatrix, dot, primitive, vec
from .torelli import (
    MODELS,
    PARTIAL,
    PERFECT,
    SATAKE,
    AbelianDivisor,
    BpfEntry,
    BpfReport,
    CompactificationModel,
    FaceClassification,
    FaceLocation,
    SemiampleStatus,
    basis_images,
    bpf_scan,
    classify_in_face,
    get_model,
    parse_abelian,
    pullback,
    pullback_nef_cone,
    semiample_status,
)

__version__ = "0.1.0"
