"""Finite soluble group analysis, Cayley-ball growth, and growth
certificates: enumerated group tables with exact word metrics, chief-series
and self-centralizing rank analysis, the modified derived length with exact
cost arithmetic, bound verification suites, and the conjugate-chain
certificate pipeline.
"""

from .elements import GenSet, GroupElement, Lamplighter, MatFp, MatZ, Perm, TreeAuto
from .errors import (
    CapExceeded,
    ContextViolated,
    DegenerateWindow,
    HypothesisViolated,
    InvariantViolated,
    MixedVariants,
    NotNormal,
    NotSelfCentralizing,
    NotSoluble,
    NotTransitive,
    ParseError,
    RankDeficient,
    SeriesMismatch,
    SolgrowError,
    TrivialGroup,
    UnknownName,
    WitnessDegenerate,
)
from .table import (
    FiniteGroupTable,
    QuotientGroup,
    Subgroup,
    centralizer,
    commutator_subgroup,
    conjugacy_classes,
    derived_length,
    derived_series,
    direct_product,
    enumerate_group,
    is_soluble,
    lower_central_series,
    nilpotency_class,
    normal_closure,
    quotient,
    subgroup_generated,
    subgroup_table,
    whole_group,
)
from .constructions import affine_semidirect, matrix_wreath, sym_gens, wreath_product
from .soluble import (
    ChiefFactorRecord,
    NormalLattice,
    check_srank_nilpotency,
    chief_series,
    is_supersoluble,
    minimal_normal_subgroups,
    normal_subgroups,
    sc_chief_rank,
    sc_iff_maximal_index_check,
    soluble_subgroups,
)
from .mu import (
    ModifiedSeries,
    MuValue,
    mu_bruteforce,
    mu_fast,
    mu_of_wreath_check,
    mu_properties_check,
    product_counterexample_check,
)
from .bounds import (
    is_irreducible,
    mu_bound,
    permutation_structure,
    rho_bound,
    rho_int_bound,
    sigma_value,
)
from .catalog import catalog, catalog_names
from .growth import (
    GrowthFit,
    GrowthTable,
    gap_hypothesis_check,
    growth_exponent_fit,
    growth_table,
    s4_tower,
    s4_tower_derived,
)
from .milnor import (
    Certificate,
    MilnorChain,
    canonical_modified_chain,
    certify_growth_lower_bound,
    derived_generators,
    distinct_products_check,
    milnor_chain,
    quantitative_bound_check,
)
from .smallcases import verify_mu_theorem, verify_small_cases
from .specio import load_genset, parse_genset, serialize_genset

__version__ = "0.1.0"
