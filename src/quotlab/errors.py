"""Exception hierarchy shared by all quotlab modules.

The CLI maps these onto exit codes: InputError -> 1,
DegenerateError -> 2, ResourceCapError -> 3, InternalCheckError -> 4.
"""


class QuotlabError(Exception):
    """Base class for all quotlab errors."""


class InputError(QuotlabError):
    """Malformed configuration, flag, or data file."""


class DegenerateError(QuotlabError):
    """The polynomial violates the growth-theorem hypotheses
    (its pair difference is divisible by the slope difference)."""


class ResourceCapError(QuotlabError):
    """A run would not fit in memory, memory ran out, or a worker died."""


class InternalCheckError(QuotlabError):
    """An exact internal conservation identity failed: implementation bug."""
