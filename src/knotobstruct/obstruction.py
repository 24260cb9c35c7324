"""The verdict engine for cosmetic-crossing obstructions.

Two branches: a non-trivial Alexander polynomial settles the question on
its own; with trivial Alexander polynomial the fallback is the mod-16
test on Ob = Theta(-1) - Theta(1), computed purely from the Jones
polynomial via Theta(1) = 2 w3 and Theta(-1) = -(1/12) V'(-1) V(-1).
A cosmetic crossing would force Ob into 16Z, so Ob outside 16Z obstructs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .diagram import PDCode, PretzelParams
from .errors import (DiagramTooLarge, InconsistentInput, PreconditionViolation,
                     digit_estimate, print_limit)
from .kauffman import jones, twist_jones_values
from .laurent import LaurentPoly, Scalar
from .seifert import (
    GenusOneSpine,
    SeifertMatrix,
    alexander_from_seifert,
    knot_determinant,
    pretzel_seifert,
    seifert_from_spine,
    signature,
)

VERDICT_NONTRIVIAL_ALEXANDER = "HoldsNontrivialAlexander"
VERDICT_MOD16 = "HoldsMod16"
VERDICT_INCONCLUSIVE = "Inconclusive"

#: The quantity Ob = Theta(-1) - Theta(1) is convention-free; the factor
#: relating it to the Casson invariant of the double branched cover is
#: normalization-dependent, so reports carry this caveat.
_LAMBDA_NOTE = (
    "ob = Theta(-1) - Theta(1); its identification with "
    "lambda(Sigma_2) - 2*w3 depends on the Casson normalization "
    "(lambda = 2*lambda_w), but the mod-16 test is unaffected"
)


def jones_values(
    jones_poly: LaurentPoly | PretzelParams,
) -> tuple[Scalar, Scalar, Scalar, Scalar]:
    """(V''(1), V'''(1), V(-1), V'(-1)) in one pass over the terms c t^e,
    as the sums of c e(e-1), c e(e-1)(e-2), c (-1)^e and c e (-1)^(e-1):
    all that w3, Theta(-1), lambda_w and |V(-1)| read.  Pretzel parameters
    take theirs off the twist route's numerator, with no V built
    (twist_jones_values)."""
    if isinstance(jones_poly, PretzelParams):
        return twist_jones_values(jones_poly)
    v2 = v3 = vm1 = dvm1 = 0
    for e, c in jones_poly.terms.items():
        falling = c * e * (e - 1)
        v2 += falling
        v3 += falling * (e - 2)
        if e % 2:
            vm1 -= c
            dvm1 += c * e
        else:
            vm1 += c
            dvm1 -= c * e
    return v2, v3, vm1, dvm1


def w3(jones_poly: LaurentPoly | PretzelParams) -> Fraction:
    """(1/36) V'''(1) + (1/12) V''(1), the degree-3 finite type invariant."""
    return _thetas(*jones_values(jones_poly))[0]


def _require_knot_jones(jones_poly: LaurentPoly) -> None:
    """Refuse a supplied V that is no knot's: every knot's Jones
    polynomial has integer coefficients, V(1) = 1 and V'(1) = 0."""
    terms = jones_poly.terms.items()
    if (any(c.denominator != 1 for _, c in terms)
            or sum(c for _, c in terms) != 1
            or sum(e * c for e, c in terms) != 0):
        raise PreconditionViolation(
            f"V = {jones_poly.render()} is no knot's Jones polynomial, which "
            "has integer coefficients, V(1) = 1 and V'(1) = 0"
        )


def _lambda_w(vm1: Scalar, dvm1: Scalar, sigma: int) -> Fraction:
    if vm1 == 0:
        raise PreconditionViolation("V(-1) = 0: not a knot Jones polynomial")
    return Fraction(3 * sigma * vm1 - 2 * dvm1, 12 * vm1)


def _thetas(
    v2: Scalar, v3: Scalar, vm1: Scalar, dvm1: Scalar
) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """(w3, Theta(1), Theta(-1), Ob) = (w3, 2 w3, -V'(-1) V(-1)/12,
    Theta(-1) - Theta(1)), each one Fraction of an integer sum."""
    w = v3 + 3 * v2  # 36 w3
    p = dvm1 * vm1  # -12 Theta(-1)
    return (Fraction(w, 36), Fraction(w, 18), Fraction(-p, 12),
            Fraction(-3 * p - 2 * w, 36))


def mullins_lambda_w(jones_poly: LaurentPoly | PretzelParams, sigma: int) -> Fraction:
    """Casson-Walker invariant of the double branched cover
    (Mullins): -V'(-1)/(6 V(-1)) + sigma/4."""
    _, _, vm1, dvm1 = jones_values(jones_poly)
    return _lambda_w(vm1, dvm1, sigma)


def obstruction_value(
    jones_poly: LaurentPoly | PretzelParams,
) -> tuple[Fraction, Fraction, Fraction]:
    """(Theta(1), Theta(-1), Ob) from the Jones polynomial alone (or a
    pretzel's, as jones_values reads it): Theta(1) = 2 w3 and
    Theta(-1) = -(1/12) V'(-1) V(-1)."""
    return _thetas(*jones_values(jones_poly))[1:]


def require_printable(*values: LaurentPoly | Scalar | None) -> None:
    """Raise DiagramTooLarge when a value has an integer (a coefficient's,
    or a rational's numerator or denominator) with more digits than
    int-to-text conversion allows (print_limit).  One pass takes the
    largest bit length b, and digit_estimate of a b-bit integer decides.
    None values are skipped."""
    limit = print_limit()
    bits = 0
    for v in filter(None, values):  # drops None and zeros, which have no bits
        for x in v.terms.values() if isinstance(v, LaurentPoly) else (v,):
            b = x.bit_length() if type(x) is int else max(
                x.numerator.bit_length(), x.denominator.bit_length())
            if b > bits:
                bits = b
    digits = digit_estimate(1 << bits >> 1)  # an integer of `bits` bits
    if limit and digits > limit:
        raise DiagramTooLarge(
            f"a result has an integer of about {digits} digits, "
            f"over the {limit}-digit limit for printing integers"
        )


def _mod16_nonzero(ob: Fraction) -> bool:
    """True iff ob is outside 16Z (non-integers included)."""
    return ob.denominator != 1 or int(ob) % 16 != 0


@dataclass
class ObstructionReport:
    """All computed invariants plus the verdict and the deciding branch."""

    alexander: LaurentPoly | None
    jones: LaurentPoly | None
    determinant: int | None
    sigma: int | None
    w3: Fraction | None
    lambda_w: Fraction | None
    theta_at_1: Fraction | None
    theta_at_minus1: Fraction | None
    ob: Fraction | None
    ob_mod16_nonzero: bool | None
    verdict: str
    notes: list[str] = field(default_factory=list)


#: the JSON text of each scalar type a report holds
_SCALAR_TEXT = {
    type(None): lambda value: "null",
    bool: lambda value: "true" if value else "false",
    int: int.__repr__,
    str: encode_basestring_ascii,
    Fraction: lambda value: f'"{value}"',  # digits, "-" and "/" need no escape
}


def json_text(value, indent: str = "") -> str:
    """The JSON text that json.dumps(..., indent=2) writes for a report
    value on a line that starts with `indent`: rationals as "n" or "n/d"
    strings, polynomials as exponent -> coefficient maps in exponent order,
    a report as its fields in order, strings in ASCII with \\uXXXX escapes."""
    scalar = _SCALAR_TEXT.get(type(value))
    if scalar is not None:
        return scalar(value)
    inner = indent + "  "
    if isinstance(value, list):
        brackets, items = "[]", [json_text(v, inner) for v in value]
    elif isinstance(value, LaurentPoly):
        brackets = "{}"
        items = [f'"{e}": "{c}"' for e, c in sorted(value.terms.items())]
    elif isinstance(value, (dict, ObstructionReport)):
        # a dataclass's __dict__ holds its fields in declaration order
        pairs = value.items() if isinstance(value, dict) else vars(value).items()
        brackets = "{}"
        items = [f"{encode_basestring_ascii(k)}: {json_text(v, inner)}"
                 for k, v in pairs]
    else:
        raise TypeError(f"no JSON form for {type(value).__name__}")
    if not items:
        return brackets
    return (f"{brackets[0]}\n{inner}" + f",\n{inner}".join(items)
            + f"\n{indent}{brackets[1]}")


def cosmetic_verdict(
    pretzel: PretzelParams | None = None,
    pd: PDCode | None = None,
    seifert: SeifertMatrix | None = None,
    spine: GenusOneSpine | None = None,
    jones_poly: LaurentPoly | None = None,
) -> ObstructionReport:
    """Run the cosmetic-crossing decision procedure for a genus-one knot.

    Input is one of: pretzel parameters (both routes, fast), a PD code
    (optionally with a Seifert matrix), or a Seifert matrix or spine
    (optionally with a precomputed Jones polynomial); any other combination
    raises PreconditionViolation, named by the CLI options, and so does a
    supplied Jones polynomial that is no knot's.  The Alexander
    polynomial is the one the Seifert matrix keeps, and the determinant
    is its |Delta(-1)|.  Genus one is the caller's assertion;
    a Delta of degree over 1 refutes it and raises PreconditionViolation.
    A |V(-1)| != |Delta(-1)| pair raises InconsistentInput.  Before any of
    these checks, one require_printable call raises DiagramTooLarge when a
    number that a check or the report prints has too many digits to print.
    """
    notes: list[str] = []

    given = [x is not None for x in (pretzel, pd, seifert, spine)]
    if sum(given) != 1 and given != [False, True, True, False]:
        raise PreconditionViolation(
            "give one input source (--pretzel | --pd | --seifert | --spine), "
            "or --pd with --seifert"
        )
    if jones_poly is not None and (pretzel is not None or pd is not None):
        raise PreconditionViolation(
            "--jones goes with --seifert or --spine; "
            "--pretzel and --pd compute their own Jones polynomial"
        )
    if pretzel is not None:
        seifert = pretzel_seifert(pretzel)
        jp = jones(pretzel)
    elif spine is not None:
        seifert = seifert_from_spine(spine)
        jp = jones_poly
    elif pd is not None:
        if pd.n == 0:
            seifert = seifert or SeifertMatrix([])  # crossingless unknot
        jp = jones(pd)
    else:
        jp = jones_poly
    if jones_poly is not None:
        _require_knot_jones(jones_poly)

    alex = det = sigma = None
    if seifert is not None:
        alex = alexander_from_seifert(seifert)
        det = knot_determinant(seifert)
        sigma = signature(seifert)

    w3v = lam = th1 = thm1 = ob = vm1 = None
    if jp is not None:
        v2, v3, vm1, dvm1 = jones_values(jp)
        w3v, th1, thm1, ob = _thetas(v2, v3, vm1, dvm1)
        if sigma is not None:  # an integer V with V(1) = 1 has V(-1) odd
            lam = _lambda_w(vm1, dvm1, sigma)
    # each of these is printed: in the report, a note or an error below
    require_printable(alex, jp, det, vm1, w3v, lam, th1, thm1, ob)

    if alex is not None and alex.max_exp() > 1:  # span Delta <= 2 genus
        raise PreconditionViolation(
            f"Delta = {alex.render()} has degree {alex.max_exp()}: "
            "not a genus-one knot"
        )
    mod16 = None
    if jp is not None:
        if w3v.denominator != 1:
            notes.append(f"w3 = {w3v} is not an integer: input is likely "
                         "not a knot Jones polynomial")
        mod16 = _mod16_nonzero(ob)
        notes.append(_LAMBDA_NOTE)
        if det is not None and abs(vm1) != det:
            raise InconsistentInput(
                f"|V(-1)| = {abs(vm1)} disagrees with |Delta(-1)| = {det}: "
                "the Jones polynomial and the Seifert matrix belong to "
                "different knots"
            )

    if alex is not None and alex != LaurentPoly.one():
        verdict = VERDICT_NONTRIVIAL_ALEXANDER
    elif alex is not None and ob is not None and mod16:
        verdict = VERDICT_MOD16
    else:
        verdict = VERDICT_INCONCLUSIVE

    return ObstructionReport(
        alexander=alex,
        jones=jp,
        determinant=det,
        sigma=sigma,
        w3=w3v,
        lambda_w=lam,
        theta_at_1=th1,
        theta_at_minus1=thm1,
        ob=ob,
        ob_mod16_nonzero=mod16,
        verdict=verdict,
        notes=notes,
    )


def pretzel_family(k: int) -> tuple[PretzelParams, Fraction, bool]:
    """The trivial-Alexander family P(4k+1, 4k+3, -(2k+1)).

    Returns the parameters, the closed-form Ob = -16 k(k+1)(2k+1)/12,
    and whether the mod-16 obstruction is predicted to fire (exactly
    when k(k+1)(2k+1)/12 is not an integer, i.e. k = 1, 2 mod 4).
    """
    if k < 1:
        raise PreconditionViolation("k must be >= 1")
    params = PretzelParams(4 * k + 1, 4 * k + 3, -(2 * k + 1))
    x = Fraction(k * (k + 1) * (2 * k + 1), 12)
    return params, -16 * x, x.denominator != 1
