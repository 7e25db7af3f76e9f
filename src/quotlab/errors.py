"""Exception hierarchy shared by all quotlab modules."""

OUT_OF_MEMORY = "out of memory; use a smaller set or fewer workers"


class QuotlabError(Exception):
    """Base class for all quotlab errors.  Each type sets ``exit_status``,
    the CLI's exit status for it, and ``label``, which starts its stderr line."""


class InputError(QuotlabError):
    """Malformed configuration, flag, or data file."""

    exit_status, label = 1, "error"


class DegenerateError(QuotlabError):
    """The polynomial violates the growth-theorem hypotheses
    (its pair difference is divisible by the slope difference)."""

    exit_status, label = 2, "hypothesis violation"


class ResourceCapError(QuotlabError):
    """A run would not fit in memory, memory ran out, or a worker died."""

    exit_status, label = 3, "resource cap"


class InternalCheckError(QuotlabError):
    """An exact internal conservation identity failed: implementation bug."""

    exit_status, label = 4, "internal check failed"
