"""Exception types shared across the package."""


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
    crossing order alone; the twist route's |p| + |q| + |r|; or a
    Seifert matrix's 8x8 for its cofactor determinants."""


class NormalizationError(KnotObstructError):
    """Bracket exponents inconsistent with the t = A^-4 substitution.

    This is a convention tripwire: it fires only if the smoothing or
    sign conventions have been broken, never on valid knot diagrams.
    """


class NonNormalizable(KnotObstructError):
    """No unit multiple of the polynomial is symmetric with value 1 at t=1."""


class SingularForm(KnotObstructError):
    """The symmetrized Seifert form V + V^T is singular."""


class PreconditionViolation(KnotObstructError):
    """An operation was called outside its stated domain."""


class InconsistentInput(KnotObstructError):
    """Cross-validation between independent computation routes failed."""
