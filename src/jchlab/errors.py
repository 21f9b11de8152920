"""Exception types shared across the package.

Validation and parameter problems raise plain ValueError; these classes cover
the two failure modes that callers (and the CLI exit-code contract) must be
able to tell apart from bad input.
"""


class BudgetExceededError(RuntimeError):
    """An enumeration would exceed its configured search-space budget.

    Raised loudly instead of silently downgrading to an approximation.
    """

    def __init__(self, message, required=None, budget=None):
        super().__init__(message)
        self.required = required
        self.budget = budget


def check_budget(required, budget, unit):
    """Refuse a search of `required` units above `budget`; None means no cap."""
    if budget is not None and required > budget:
        # a count of 64 bits or more is shown by its leading power of two
        shown = (required if required.bit_length() < 64
                 else f"at least 2^{required.bit_length() - 1}")
        raise BudgetExceededError(f"{shown} {unit} exceed budget {budget}",
                                  required=required, budget=budget)


class CertificationError(RuntimeError):
    """A claimed numeric property failed an exhaustive or residual check."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class ConvergenceError(RuntimeError):
    """An iterative solver hit its iteration cap before reaching tolerance."""
