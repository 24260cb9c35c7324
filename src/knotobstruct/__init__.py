"""Exact knot invariants and cosmetic-crossing obstructions for genus-one knots."""

from .diagram import PDCode, PretzelParams, mirror, parse_pd, pretzel_pd, render_pd, writhe
from .kauffman import bracket_brute, bracket_contract, bracket_twist, jones, twist_tangle
from .laurent import LaurentPoly, parse_laurent
from .obstruction import (
    ObstructionReport,
    cosmetic_verdict,
    mullins_lambda_w,
    obstruction_value,
    pretzel_family,
    w3,
)
from .seifert import (
    GenusOneSpine,
    SeifertMatrix,
    alexander_from_seifert,
    alexander_genus_one,
    crossing_change,
    knot_determinant,
    m_forcing_check,
    pretzel_seifert,
    seifert_from_spine,
    signature,
)
from .twoloop import (
    TangleInvariants,
    constraint_solutions,
    constraint_solutions_rational,
    framing_difference,
    reduced_two_loop,
    theta_difference_identity,
)

__version__ = "0.1.0"

__all__ = [
    "GenusOneSpine",
    "LaurentPoly",
    "ObstructionReport",
    "PDCode",
    "PretzelParams",
    "SeifertMatrix",
    "TangleInvariants",
    "alexander_from_seifert",
    "alexander_genus_one",
    "bracket_brute",
    "bracket_contract",
    "bracket_twist",
    "constraint_solutions",
    "constraint_solutions_rational",
    "cosmetic_verdict",
    "crossing_change",
    "framing_difference",
    "jones",
    "knot_determinant",
    "m_forcing_check",
    "mirror",
    "mullins_lambda_w",
    "obstruction_value",
    "parse_laurent",
    "parse_pd",
    "pretzel_family",
    "pretzel_pd",
    "pretzel_seifert",
    "reduced_two_loop",
    "render_pd",
    "seifert_from_spine",
    "signature",
    "theta_difference_identity",
    "twist_tangle",
    "w3",
    "writhe",
]
