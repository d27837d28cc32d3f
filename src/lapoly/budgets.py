"""Resource budgets for enumeration-heavy operations.

Budgets fail loudly: exceeding one raises BudgetError instead of silently
truncating.  Defaults can be overridden per call or via the environment
variables LAPOLY_BUDGET_POINTS and LAPOLY_BUDGET_CELLS.
"""

from __future__ import annotations

import os

DEFAULT_POINT_BUDGET = 10**9
DEFAULT_CELL_BUDGET = 10**6


class BudgetError(RuntimeError):
    """An enumeration would exceed its configured budget."""


def parse_budget(text):
    """A budget given as text, by flag or environment: an integer >= 0."""
    if not text.isdecimal():
        raise ValueError(f"need an integer >= 0, got {text!r}")
    return int(text)


def _resolve(override, variable, default):
    if override is not None:
        return int(override)
    text = os.environ.get(variable)
    try:
        return default if text is None else parse_budget(text)
    except ValueError as exc:
        raise ValueError(f"{variable}: {exc}") from None


def point_budget(override=None):
    return _resolve(override, "LAPOLY_BUDGET_POINTS", DEFAULT_POINT_BUDGET)


def cell_budget(override=None):
    return _resolve(override, "LAPOLY_BUDGET_CELLS", DEFAULT_CELL_BUDGET)
