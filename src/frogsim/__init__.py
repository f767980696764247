"""Monte Carlo toolkit for frog-model first passage times on Z^d."""

from .environment import ConfigLaw, Environment, condition_origin, sample_environment, star
from .errors import (
    CensoringBudgetError,
    EmptySetError,
    FrogsimError,
    GeometryError,
    LawParameterError,
    PlanError,
    SearchCapError,
)
from .lattice import (
    AdaptedBasis,
    SignedPermutation,
    all_signed_permutations,
    closest_in_set,
    find_adapted_basis,
    identity_map,
    l1,
    linf,
    neighbors,
)
from .passage import (
    ActivationTable,
    HittingTime,
    PassageOutcome,
    jump_witness_scan,
    oracle_passage_time,
    passage_between,
    passage_time,
    passage_time_star,
    simulate_frogs,
    tau,
    witness_last_relay,
)
from .walks import SeedSpec

__version__ = "0.1.0"

__all__ = [
    "ActivationTable",
    "AdaptedBasis",
    "CensoringBudgetError",
    "ConfigLaw",
    "EmptySetError",
    "Environment",
    "FrogsimError",
    "GeometryError",
    "HittingTime",
    "LawParameterError",
    "PassageOutcome",
    "PlanError",
    "SearchCapError",
    "SeedSpec",
    "SignedPermutation",
    "all_signed_permutations",
    "closest_in_set",
    "condition_origin",
    "find_adapted_basis",
    "identity_map",
    "jump_witness_scan",
    "l1",
    "linf",
    "neighbors",
    "oracle_passage_time",
    "passage_between",
    "passage_time",
    "passage_time_star",
    "sample_environment",
    "simulate_frogs",
    "star",
    "tau",
    "witness_last_relay",
]
