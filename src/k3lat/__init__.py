"""Exact-arithmetic toolkit for even lattices and their discriminant forms:
primitive-embedding gluing data and its congruence extension, extended
Neron-Severi bookkeeping for moduli of sheaves, index-r twists with their
partner-discriminant growth, and the supporting modular arithmetic."""

__version__ = "0.1.0"

from .intlat import (
    IntegralLattice,
    SublatticeEmbedding,
    direct_sum,
    enumerate_vectors,
    hyperbolic_plane,
    identity_embedding,
    index_of_sublattice,
    is_primitive_sublattice,
    orthogonal_complement,
    polarization_lattice,
    quotient_by_isotropic,
    rank_one,
    saturation,
    sublattice,
)
from .discform import (
    DiscriminantForm,
    FiniteSubgroup,
    SubgroupMap,
    discriminant_form,
    glue_perp_quotient,
    subgroup_isometries,
)
from .nikulin import (
    ExtensionCertificate,
    GluingData,
    admissible_m,
    embedding_to_glue,
    embedding_witnesses,
    extend_glue,
    extension_constants,
)
from .mukai import (
    MukaiVector,
    NeronSeveriData,
    check_condition_C,
    disc_comparison_chain,
    euler_characteristic,
    fujiki_degree,
    full_mukai_lattice,
    moduli_dimension,
    mukai_pairing,
    mukai_vector_of_sheaf,
)
from .zarhin import (
    ZarhinCertificate,
    brauer_multiplier,
    build_seed,
    ensure_positive_rank,
    zarhin_constants,
    zarhin_construct,
)
from .twisted import (
    TwistedMukaiLattice,
    WitnessRecord,
    divisibility_nv,
    partner_disc,
    witness_sequence,
)
from .modarith import (
    QRConstraint,
    crt,
    is_prime,
    legendre,
    prime_search,
    represent_value,
    sqrt_mod_prime,
)
