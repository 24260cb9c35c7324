"""The verdict engine for cosmetic-crossing obstructions.

Two branches: a non-trivial Alexander polynomial settles the question on
its own; with trivial Alexander polynomial the fallback is the mod-16
test on Ob = Theta(-1) - Theta(1), computed purely from the Jones
polynomial via Theta(1) = 2 w3 and Theta(-1) = -(1/12) V'(-1) V(-1).
A cosmetic crossing would force Ob into 16Z, so Ob outside 16Z obstructs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields
from fractions import Fraction

from .diagram import PDCode, PretzelParams
from .errors import InconsistentInput, PreconditionViolation
from .kauffman import jones
from .laurent import LaurentPoly
from .seifert import (
    GenusOneSpine,
    SeifertMatrix,
    alexander_from_seifert,
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


def w3(jones_poly: LaurentPoly) -> Fraction:
    """(1/36) V'''(1) + (1/12) V''(1), the degree-3 finite type invariant."""
    v2 = jones_poly.derivative(2).evaluate(1)
    v3 = jones_poly.derivative(3).evaluate(1)
    return Fraction(1, 36) * v3 + Fraction(1, 12) * v2


def mullins_lambda_w(jones_poly: LaurentPoly, sigma: int) -> Fraction:
    """Casson-Walker invariant of the double branched cover
    (Mullins): -V'(-1)/(6 V(-1)) + sigma/4."""
    vm1 = jones_poly.evaluate(-1)
    if vm1 == 0:
        raise PreconditionViolation("V(-1) = 0: not a knot Jones polynomial")
    return -jones_poly.derivative().evaluate(-1) / (6 * vm1) + Fraction(sigma, 4)


def obstruction_value(
    jones_poly: LaurentPoly,
) -> tuple[Fraction, Fraction, Fraction]:
    """(Theta(1), Theta(-1), Ob) from the Jones polynomial alone."""
    theta1 = 2 * w3(jones_poly)
    theta_m1 = (
        -Fraction(1, 12)
        * jones_poly.derivative().evaluate(-1)
        * jones_poly.evaluate(-1)
    )
    return theta1, theta_m1, theta_m1 - theta1


def _mod16_nonzero(ob: Fraction) -> bool:
    """True iff ob is outside 16Z (non-integers included)."""
    return ob.denominator != 1 or int(ob) % 16 != 0


def json_value(value):
    """A report value in JSON form: rationals as "n" or "n/d" strings,
    polynomials as exponent -> coefficient maps."""
    if isinstance(value, LaurentPoly):
        return {str(e): str(c) for e, c in sorted(value.terms.items())}
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, list):
        return list(value)
    return value


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

    def to_json_dict(self) -> dict:
        """Fields in order, each in its json_value form."""
        return {f.name: json_value(getattr(self, f.name)) for f in fields(self)}


def _strict_default() -> bool:
    return os.environ.get("KNOTOBSTRUCT_STRICT", "") == "1"


def cosmetic_verdict(
    pretzel: PretzelParams | None = None,
    pd: PDCode | None = None,
    seifert: SeifertMatrix | None = None,
    spine: GenusOneSpine | None = None,
    jones_poly: LaurentPoly | None = None,
    strict: bool | None = None,
) -> ObstructionReport:
    """Run the cosmetic-crossing decision procedure for a genus-one knot.

    Input is one of: pretzel parameters (both routes, fast), a PD code
    (optionally with a Seifert matrix), or a Seifert matrix or spine
    (optionally with a precomputed Jones polynomial).  Genus-one status
    is the caller's assertion.  The Alexander polynomial is computed
    once from the Seifert matrix; the determinant is its |Delta(-1)|.
    In strict mode a |V(-1)| vs |Delta(-1)| mismatch raises
    InconsistentInput; otherwise it is recorded as a note.
    """
    if strict is None:
        strict = _strict_default()
    notes: list[str] = []

    if pretzel is not None:
        if pd is not None or seifert is not None or spine is not None:
            raise PreconditionViolation("pretzel input excludes other sources")
        seifert = pretzel_seifert(pretzel)
        jp = jones(pretzel)
    elif spine is not None:
        seifert = seifert_from_spine(spine)
        jp = jones_poly
    elif pd is not None:
        if pd.n == 0:
            seifert = seifert or SeifertMatrix([])  # crossingless unknot
        jp = jones(pd)
    elif seifert is not None:
        jp = jones_poly
    else:
        raise PreconditionViolation("no input given")

    alex = det = sigma = None
    if seifert is not None:
        alex = alexander_from_seifert(seifert)
        det = int(abs(alex.evaluate(-1)))
        sigma = signature(seifert)

    w3v = lam = th1 = thm1 = ob = None
    mod16 = None
    if jp is not None:
        w3v = w3(jp)
        if w3v.denominator != 1:
            notes.append(f"w3 = {w3v} is not an integer: input is likely "
                         "not a knot Jones polynomial")
        th1, thm1, ob = obstruction_value(jp)
        mod16 = _mod16_nonzero(ob)
        notes.append(_LAMBDA_NOTE)
        if sigma is not None:
            lam = mullins_lambda_w(jp, sigma)
        if det is not None:
            jdet = abs(jp.evaluate(-1))
            if jdet != det:
                msg = (
                    f"|V(-1)| = {jdet} disagrees with |Delta(-1)| = {det}: "
                    "inconsistent diagram/matrix pair"
                )
                if strict:
                    raise InconsistentInput(msg)
                notes.append(msg)

    trivial_alex = alex == LaurentPoly.one() if alex is not None else None
    if trivial_alex is not None and sigma not in (None, 0) and trivial_alex:
        notes.append(
            f"sigma = {sigma} with trivial Alexander polynomial: "
            "inconsistent with the algebraically slice setting"
        )

    if alex is not None and not trivial_alex:
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
