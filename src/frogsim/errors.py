"""Exception types shared across the package."""


class FrogsimError(Exception):
    """Base class for all frogsim errors."""


class LawParameterError(FrogsimError):
    """Invalid parameters for an initial-configuration law."""


class GeometryError(FrogsimError):
    """Requested computation does not fit inside the sampled box."""


class EmptySetError(FrogsimError):
    """An operation over a set of sites received an empty set."""


class SearchCapError(FrogsimError):
    """A search exceeded its configured size cap."""


class CensoringBudgetError(FrogsimError):
    """Too many replicas were censored at the configured horizon."""

    def __init__(self, message: str, horizon: int, censored: int, total: int):
        super().__init__(message)
        self.horizon = horizon
        self.censored = censored
        self.total = total


class PlanError(FrogsimError):
    """Invalid experiment plan or command-line parameters."""
