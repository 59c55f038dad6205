"""Enumeration budgets for the exponential parts of the solvers.

Every budget can be overridden through an ``OBG_BUDGET_*`` environment
variable or per call.  Budgets must be positive.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

from .errors import InputFormatError

_ENV_PREFIX = "OBG_BUDGET_"


@dataclass(frozen=True)
class Budgets:
    """Bounds on the enumerative parts of the algorithms.

    max_obligations / max_priority gate the dependency search; games
    beyond them are still accepted by the certificate checker, which is
    polynomial.  max_strategy_pairs gates the brute-force parity oracle.
    max_dependency_nodes caps the monitor-game tests of the dependency
    search's progress-measure lifting, memo hits included.  Each test adds
    at most one value to the search's per-operation memo, so it bounds
    that memo too, beside one monitor product per obligation configuration
    and one value per obligation configuration read off the certificate.
    """

    max_obligations: int = 10
    max_priority: int = 4
    max_strategy_pairs: int = 4096
    max_dependency_nodes: int = 20000

    def __post_init__(self) -> None:
        for name in ("max_obligations", "max_priority", "max_strategy_pairs",
                     "max_dependency_nodes"):
            if getattr(self, name) <= 0:
                raise InputFormatError(f"budget {name} must be positive")

    def override(self, **kwargs) -> "Budgets":
        kwargs = {k: v for k, v in kwargs.items() if v is not None}
        return replace(self, **kwargs) if kwargs else self


def budgets_from_env(base: Budgets | None = None) -> Budgets:
    """Read ``OBG_BUDGET_MAX_OBLIGATIONS`` etc. from the environment."""
    budgets = base or Budgets()
    overrides = {}
    for field in ("max_obligations", "max_priority", "max_strategy_pairs",
                  "max_dependency_nodes"):
        raw = os.environ.get(_ENV_PREFIX + field.upper())
        if raw is not None:
            try:
                overrides[field] = int(raw)
            except ValueError:
                raise InputFormatError(
                    f"{_ENV_PREFIX}{field.upper()} must be an integer, got {raw!r}")
    return budgets.override(**overrides)


DEFAULT_BUDGETS = Budgets()
