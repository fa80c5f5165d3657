"""Exact-arithmetic toolkit for even lattices and their discriminant forms:
primitive-embedding gluing data and its congruence extension, extended
Neron-Severi bookkeeping for moduli of sheaves, index-r twists with their
partner-discriminant growth, and the supporting modular arithmetic."""

__version__ = "0.1.0"

from .intlat import (
    IntegralLattice,
    SublatticeEmbedding,
    enumerate_vectors,
    identity_embedding,
    orthogonal_complement,
    polarization_lattice,
    quotient_by_isotropic,
    rank_one,
    sublattice,
)
from .discform import (
    DiscriminantForm,
    FiniteSubgroup,
    SubgroupMap,
    discriminant_form,
    glue_perp_quotient,
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
)
from .zarhin import (
    ZarhinCertificate,
    build_seed,
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
