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
from .lattice import l1, linf
from .passage import (
    ActivationTable,
    PassageOutcome,
    oracle_passage_time,
    passage_between,
    passage_time,
    passage_time_star,
    simulate_frogs,
    tau,
)
from .walks import SeedSpec

__version__ = "0.1.0"

__all__ = [
    "ActivationTable",
    "CensoringBudgetError",
    "ConfigLaw",
    "EmptySetError",
    "Environment",
    "FrogsimError",
    "GeometryError",
    "LawParameterError",
    "PassageOutcome",
    "PlanError",
    "SearchCapError",
    "SeedSpec",
    "condition_origin",
    "l1",
    "linf",
    "oracle_passage_time",
    "passage_between",
    "passage_time",
    "passage_time_star",
    "sample_environment",
    "simulate_frogs",
    "star",
    "tau",
]
