"""Exception types shared across the package, and the digit counts their
messages give in place of integers too long to print."""

import sys


class KnotObstructError(Exception):
    """Base class for all errors raised by this package."""


class InputSyntaxError(KnotObstructError):
    """Malformed or unreadable input: an option value, a batch file or a
    batch row's payload."""


class PDSyntaxError(InputSyntaxError):
    """Malformed PD-code text."""


class ValidationError(KnotObstructError):
    """Structurally invalid diagram or matrix data."""


class DiagramTooLarge(KnotObstructError):
    """Input over a size cap, raised before the capped work starts: the
    brute-force state sum's 20 crossings; the contraction engine's
    open-boundary width and its work estimate, both taken from the
    contraction plan alone; the twist route's |p| + |q| + |r|, also summed
    over pretzel-scan's Jones rows, and pretzel-scan's row count; or a
    Seifert matrix's 16x16 for the Bareiss elimination of its one
    determinant, det(V - t V^T), and that elimination's size^3 times
    bit length estimate, which grows with the entries' size.  Also a
    result with an integer of more digits than int-to-text conversion
    allows (sys.get_int_max_str_digits()), found after the work and
    before any of it is printed."""


class NormalizationError(KnotObstructError):
    """Bracket exponents inconsistent with the t = A^-4 substitution.

    A convention tripwire: on a planar knot diagram, the only kind
    validate_pd accepts, it fires only if the smoothing or sign
    conventions are broken.
    """


class PreconditionViolation(KnotObstructError):
    """An operation was called outside its stated domain."""


class InconsistentInput(KnotObstructError):
    """Cross-validation between independent computation routes failed."""


def print_limit() -> int:
    """Most digits int-to-text conversion allows, sys.get_int_max_str_digits(),
    or 0, no limit, before Python 3.10.7 (which has no such function)."""
    return getattr(sys, "get_int_max_str_digits", int)()


def digit_estimate(n: int) -> int:
    """An upper bound on the decimal digits of |n|, bit_length() * log10(2)
    + 1, found with no conversion; it is exact or one over."""
    return abs(n).bit_length() * 30103 // 100000 + 1  # log10(2) < 0.30103
