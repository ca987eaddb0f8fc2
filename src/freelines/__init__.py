"""Free line arrangements in the projective plane.

Exact lattice invariants and freeness certificates over the rationals, the
angular freeness loss (read off an exact verdict: 0 on a certificate, 1 on a
refutation; its float ALS evaluator is kept alongside), and score-guided
construction of new free arrangements.
"""

from .arrangement import (
    Arrangement,
    CandidateExponents,
    CharPoly,
    DuplicateLine,
    LatticeSummary,
    Line,
    ZeroForm,
    arrangement_hash,
    build_arrangement,
    candidate_exponents,
    canonicalize_line,
    characteristic_polynomial,
    discriminant,
    intersection_summary,
    read_arrangement,
    tjurina,
    write_arrangement,
)
from .certify import (
    Certified,
    FreenessCertificate,
    InternalInconsistency,
    NoCandidateExponents,
    NotFreeAtExponents,
    chain_certificate,
    check_certificate,
    exact_determinant,
    read_certificate,
    verify_arrangement,
    verify_free,
    write_certificate,
)
from .derivations import (
    DegreeMismatch,
    DerivationMatrix,
    NullBasisExact,
    NullBasisFloat,
    SaitoTensor,
    assemble_saito_tensor,
    contract,
    derivation_matrix,
    euler_multiples,
    line_kernel_basis,
    null_space_exact,
    null_space_float,
    null_space_from_fields,
    q_coefficient_vector,
)
from .monomials import MonomialBasis, monomial_basis
from .saito import ALSConfig, ALSResult, SaitoEvaluation, als_minimize, homogeneous_lsq, saito_functional
from .scores import RewardBreakdown, RewardWeights, ScoreConfig, reward, sigma_alg, sigma_comb
from .search import (
    CandidatePool,
    Catalog,
    Discovery,
    ExtensionConfig,
    beam_search_build,
    bootstrap_extend,
    candidate_pool,
    cascade,
    construct_certified,
    delta_b2,
    enumerate_extension_candidates,
    load_catalog,
    save_catalog,
    supersolvable_two_pencil,
    two_pencil_witness,
)

__version__ = "0.1.0"
