"""Exception hierarchy shared across the solver stack.

The CLI maps these onto process exit codes: input problems exit 2,
exceeded work budgets exit 3, and violated internal invariants
(e.g. the determinacy self-check) exit 4.
"""


class ObgError(Exception):
    """Base class for all errors raised by this package."""


class InputFormatError(ObgError):
    """A file or argument could not be parsed or failed validation."""


class BudgetExceededError(ObgError):
    """A work budget was hit before the computation finished."""


class OracleInfeasibleError(BudgetExceededError):
    """The brute-force oracle would enumerate too many strategy pairs."""


class InternalInvariantError(ObgError):
    """A solver self-check failed; this always indicates a bug."""
