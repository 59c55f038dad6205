"""Enumeration budgets for the exponential parts of the solvers.

Each budget is a field of ``Budgets`` with its default; the library takes
a ``Budgets`` per call and the command line sets fields through flags of
the same name.  Budgets must be positive integers.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .errors import InputFormatError
from .model import require_int


@dataclass(frozen=True)
class Budgets:
    """Bounds on the enumerative parts of the algorithms.

    max_obligations / max_priority gate the dependency search; games
    beyond them are still accepted by the certificate checker, which is
    polynomial.  max_strategy_pairs gates the brute-force parity oracle.
    max_dependency_nodes caps the monitor-game tests of the dependency
    search's progress-measure lifting, memo hits included.  Each test adds
    at most one value to the search's per-operation memo, so it bounds
    that memo too, beside one set of reachable pairs per obligation
    configuration and one value per obligation configuration read off the
    certificate.
    """

    max_obligations: int = 10
    max_priority: int = 4
    max_strategy_pairs: int = 4096
    max_dependency_nodes: int = 20000

    def __post_init__(self) -> None:
        for field in fields(self):
            if require_int(getattr(self, field.name), f"budget {field.name}") <= 0:
                raise InputFormatError(f"budget {field.name} must be positive")


DEFAULT_BUDGETS = Budgets()
