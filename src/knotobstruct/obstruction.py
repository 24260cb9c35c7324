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
from .laurent import LaurentPoly, Scalar
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


def jones_values(
    jones_poly: LaurentPoly,
) -> tuple[Scalar, Scalar, Scalar, Scalar]:
    """(V''(1), V'''(1), V(-1), V'(-1)) in one pass over the terms c t^e,
    as the sums of c e(e-1), c e(e-1)(e-2), c (-1)^e and c e (-1)^(e-1):
    all that w3, Theta(-1), lambda_w and |V(-1)| read."""
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


def _w3(v2: Scalar, v3: Scalar) -> Fraction:
    return Fraction(1, 36) * v3 + Fraction(1, 12) * v2


def w3(jones_poly: LaurentPoly) -> Fraction:
    """(1/36) V'''(1) + (1/12) V''(1), the degree-3 finite type invariant."""
    v2, v3, _, _ = jones_values(jones_poly)
    return _w3(v2, v3)


def _lambda_w(vm1: Scalar, dvm1: Scalar, sigma: int) -> Fraction:
    if vm1 == 0:
        raise PreconditionViolation("V(-1) = 0: not a knot Jones polynomial")
    return Fraction(-dvm1, 6 * vm1) + Fraction(sigma, 4)


def _thetas(
    w3v: Fraction, vm1: Scalar, dvm1: Scalar
) -> tuple[Fraction, Fraction, Fraction]:
    theta1 = 2 * w3v
    theta_m1 = -Fraction(1, 12) * dvm1 * vm1
    return theta1, theta_m1, theta_m1 - theta1


def mullins_lambda_w(jones_poly: LaurentPoly, sigma: int) -> Fraction:
    """Casson-Walker invariant of the double branched cover
    (Mullins): -V'(-1)/(6 V(-1)) + sigma/4."""
    _, _, vm1, dvm1 = jones_values(jones_poly)
    return _lambda_w(vm1, dvm1, sigma)


def obstruction_value(
    jones_poly: LaurentPoly,
) -> tuple[Fraction, Fraction, Fraction]:
    """(Theta(1), Theta(-1), Ob) from the Jones polynomial alone:
    Theta(1) = 2 w3 and Theta(-1) = -(1/12) V'(-1) V(-1)."""
    v2, v3, vm1, dvm1 = jones_values(jones_poly)
    return _thetas(_w3(v2, v3), vm1, dvm1)


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
    (optionally with a precomputed Jones polynomial).  Genus-one status
    is the caller's assertion.  The Alexander polynomial is computed
    once from the Seifert matrix; the determinant is its |Delta(-1)|.
    With KNOTOBSTRUCT_STRICT=1 in the environment a |V(-1)| vs
    |Delta(-1)| mismatch raises InconsistentInput; otherwise it is
    recorded as a note.
    """
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
        det = abs(alex.evaluate(-1))
        sigma = signature(seifert)

    w3v = lam = th1 = thm1 = ob = None
    mod16 = None
    if jp is not None:
        v2, v3, vm1, dvm1 = jones_values(jp)
        w3v = _w3(v2, v3)
        if w3v.denominator != 1:
            notes.append(f"w3 = {w3v} is not an integer: input is likely "
                         "not a knot Jones polynomial")
        th1, thm1, ob = _thetas(w3v, vm1, dvm1)
        mod16 = _mod16_nonzero(ob)
        notes.append(_LAMBDA_NOTE)
        if sigma is not None:
            lam = _lambda_w(vm1, dvm1, sigma)
        if det is not None:
            jdet = abs(vm1)
            if jdet != det:
                msg = (
                    f"|V(-1)| = {jdet} disagrees with |Delta(-1)| = {det}: "
                    "inconsistent diagram/matrix pair"
                )
                if os.environ.get("KNOTOBSTRUCT_STRICT") == "1":
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
