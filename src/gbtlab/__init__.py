"""Finite-model laboratory for generalized bitopological spaces."""

from .axioms import (
    AXIOM_NAMES,
    AxiomProfile,
    InternalDisagreementError,
    UnknownAxiomError,
    axiom_profile,
)
from .claims import ClaimRecord, ClaimReport, explain, list_claims, run_claims
from .enumeration import canonical_key, enumerate_gbt_pairs, enumerate_gts
from .gbt import (
    GbtSpace,
    are_weakly_separated,
    is_g_closed_wrt,
    is_g_open_wrt,
    is_lambda_closed_wrt,
    is_lambda_open_wrt,
    is_pairwise_lambda_closed,
    is_pairwise_lambda_open,
    is_wedge12_set,
    lambda_open_family_wrt,
    make_space,
    pairwise_lambda_open_family,
)
from .gt import (
    GeneralizedTopology,
    GTValidationError,
    closure,
    complete_unions,
    derived_set,
    interior,
    is_closed,
    is_gt_T0,
    is_gt_T1,
    is_open,
    validate_gt,
    vee,
    wedge,
)
from .lattice import LatticeReport, implication_lattice
from .mining import CensusRow, MiningQuery, MiningResult, Witness, census, mine
from .sets import (
    GroundSet,
    GroundSetError,
    Subset,
    complement,
    ground,
    intersect,
    is_subset,
    parse_subset,
    union,
)
from .spacefile import SpaceFileError, parse_space_file, write_space_file

__version__ = "0.1.0"
