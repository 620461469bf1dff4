"""Exact verification of cone indicator identities over rational bases.

The package builds projected bases and their duals from a Gram matrix,
enumerates ordered partitions with their block frames, evaluates the cone
characteristic functions exactly, and checks each identity in the catalog
either pointwise at sampled regular points or exhaustively over every
chamber of the induced hyperplane arrangement.
"""

from .chambers import (
    Cell,
    FormSet,
    enumerate_cells,
    form_set,
    sample_regular,
    wall_point,
)
from .corpus import (
    CORPUS_NAMES,
    basis_from_dict,
    basis_to_dict,
    corpus_bases,
    load_basis,
    named_basis,
    named_gram,
    random_basis,
    random_gram,
)
from .errors import (
    CellBudgetExceeded,
    ConecertError,
    DimensionMismatch,
    EmptyGroundSet,
    GroundMismatch,
    HypothesisViolated,
    InvalidMode,
    InvalidRank,
    MissingParam,
    NonRegularLambda,
    NotNested,
    NotPositiveDefinite,
    NotSymmetric,
    RankMismatch,
    SamplingExhausted,
    SingularMatrix,
    WitnessNotInterior,
)
from .geometry import (
    EuclideanBasis,
    LambdaCut,
    ProjectedBasis,
    lambda_cut,
    make_basis,
)
from .indicators import (
    PartitionCounts,
    SignCounts,
    dominance,
    partition_indicators,
    sign_counts,
    tau_pair,
    theta_pair,
)
from .linalg import QMatrix, QVector, int_dot, invert, primitive_tuple, solve
from .partitions import (
    OrderedPartition,
    PartitionFrame,
    build_frame,
    enumerate_ordered_partitions,
)
from .subsets import (
    bits,
    full_mask,
    is_subset,
    iter_between,
    iter_nested_pairs,
    iter_submasks,
    popcount,
)
from .verifiers import (
    IDENTITIES,
    CertificateReport,
    CertifySession,
    Verdict,
    certify,
    collect_forms,
    hypothesis_ok,
    obtuse,
    verify,
)

__version__ = "0.1.0"
