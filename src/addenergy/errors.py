"""Shared exception types."""

from __future__ import annotations

import os

DEFAULT_WORK_BUDGET = 10_000_000
BUDGET_ENV_VAR = "ADDENERGY_BUDGET"


class BudgetError(Exception):
    """Raised when a request would exceed the configured enumeration budget."""

    def __init__(self, required: int, budget: int, what: str = "enumeration"):
        self.required = required
        self.budget = budget
        super().__init__(f"{what} needs ~{required} visits, budget is {budget}")


def default_budget() -> int:
    """Work budget, overridable through the ADDENERGY_BUDGET env var."""
    raw = os.environ.get(BUDGET_ENV_VAR)
    if raw is None:
        return DEFAULT_WORK_BUDGET
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value <= 0:
        raise ValueError(f"{BUDGET_ENV_VAR} must be a positive integer, got {raw!r}")
    return value
