"""quotlab: exact difference-quotient sets, line incidences, and
growth-exponent experiments over finite rational sets."""

from .reports import TOOL_VERSION as __version__

from .rationals import parse_rational, format_rational, as_rational
from .polynomials import Poly, bivariate_from_terms, bivariate_to_terms, degeneracy_test
from .sets import GroundSet, SetSpec, generate_set
from .lines import (LineMultiset, build_lines, vertical_section, crossing_weights,
                    rich_point_reports, incidences)
from .quotients import (QuotientSet, QuadrupleHistogram, quotient_set,
                        quadruple_histogram, verify_chain, exponent_scan,
                        fit_loglog_slope)
from .bisectors import bisector_intercept_set, intercept_quotient_poly
from .errors import (QuotlabError, InputError, DegenerateError,
                     ResourceCapError, InternalCheckError)

__all__ = [
    "__version__",
    "parse_rational", "format_rational", "as_rational",
    "Poly", "bivariate_from_terms", "bivariate_to_terms", "degeneracy_test",
    "GroundSet", "SetSpec", "generate_set",
    "LineMultiset", "build_lines", "vertical_section", "crossing_weights",
    "rich_point_reports", "incidences",
    "QuotientSet", "QuadrupleHistogram", "quotient_set", "quadruple_histogram",
    "verify_chain", "exponent_scan", "fit_loglog_slope",
    "bisector_intercept_set", "intercept_quotient_poly",
    "QuotlabError", "InputError", "DegenerateError", "ResourceCapError",
    "InternalCheckError",
]
