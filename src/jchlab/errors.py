"""Exception types shared across the package.

Validation and parameter problems raise plain ValueError; these classes cover
the two failure modes that callers (and the CLI exit-code contract) must be
able to tell apart from bad input.  DEFAULT_BUDGET lives here, beside
check_budget, so that every layer and the CLI read it without loading
another layer.  So do the file-line readers, and compare_first, the
equality of the records whose value leaves some of their fields out.
"""

import math

# the search-space cap of every enumeration and the line cap of every writer
DEFAULT_BUDGET = 5_000_000


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


def check_comb_budget(n, r, budget, unit):
    """check_budget(math.comb(n, r), budget, unit), without the product once
    it passes the budget; returns C(n, r) when it fits.

    C(n, r) = C(n, n-r) is built factor by factor up to min(r, n-r) <= n/2,
    where every partial C(n, i) is at most the whole, so the first partial
    past the budget refuses.  The refusal then names the count by its bit
    length from lgamma, and from the exact product only when log2 C(n, r) is
    within a rounding error of a whole number; `required` is None then.
    """
    if budget is None:
        return math.comb(n, r)
    r = min(r, n - r)
    count = int(r >= 0)     # C(n, r) = 0 for r > n
    for i in range(r):
        count = count * (n - i) // (i + 1)
        if count > budget and i + 1 < r:
            break
    else:
        check_budget(count, budget, unit)
        return count
    bits = (math.lgamma(n + 1) - math.lgamma(r + 1) - math.lgamma(n - r + 1)) / math.log(2)
    # lgamma is good to a few ulps, far inside 1e-12 of its largest term
    slack = 1e-12 * math.lgamma(n + 1) / math.log(2) + 1e-9
    if bits < 66 or abs(bits - round(bits)) < slack:
        check_budget(math.comb(n, r), budget, unit)
    raise BudgetExceededError(f"at least 2^{math.floor(bits)} {unit} exceed budget {budget}",
                              budget=budget)


def parse_line(line, what, parse):
    """parse(line.split()); a ValueError or ZeroDivisionError it raises becomes
    one ValueError "<what> line '<line>': <reason>"."""
    try:
        return parse(line.split())
    except (ValueError, ZeroDivisionError) as exc:
        reason = "zero denominator" if isinstance(exc, ZeroDivisionError) else exc
        raise ValueError(f"{what} line {line.strip()!r}: {reason}") from None


def parse_lines(fh, what, parse):
    """parse_line of every line of fh that is not blank, in order."""
    return [parse_line(line, what, parse) for line in fh if line.strip()]


def parse_header(line, shape):
    """The integer fields of a header line shaped like `shape`, a keyword and
    field names ('jc n z y k'), through parse_line."""
    keyword, *names = shape.split()

    def parse(fields):
        if len(fields) != 1 + len(names) or fields[0] != keyword:
            raise ValueError(f"{keyword} file must start with '{shape}'")
        return [int(v) for v in fields[1:]]
    return parse_line(line, keyword, parse)


def compare_first(n):
    """__eq__, __ne__ and __hash__ of a namedtuple record whose value is its
    first n fields: the fields after them (search counters, functions) are
    left out, and a record of another type is never equal."""
    def eq(self, other):
        return type(other) is type(self) and self[:n] == other[:n]
    return eq, lambda self, other: not eq(self, other), lambda self: hash(self[:n])


class CertificationError(RuntimeError):
    """A claimed numeric property failed an exhaustive or residual check."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class ConvergenceError(RuntimeError):
    """An iterative solver hit its iteration cap before reaching tolerance."""
