"""Output checks that do not rely on the program's own arithmetic.

Every invariant the program reports is compared with a value the
benchmark works out itself: Jones polynomials are evaluated here (at 1,
at -1 and, exactly in Z[w], at a primitive cube root of unity w),
Alexander polynomials and signatures come from the benchmark's own
expansion of the 2x2 Seifert form, and Ob is recomputed from the reported
Jones polynomial and, for family members, from the closed form.

Each check function returns a list of problems; an empty list means the
output passed.  Nothing here imports the program.
"""

from __future__ import annotations

from fractions import Fraction

Poly = dict[int, Fraction]

NONTRIVIAL = "HoldsNontrivialAlexander"
MOD16 = "HoldsMod16"
INCONCLUSIVE = "Inconclusive"


def poly(doc: dict | None) -> Poly | None:
    """A report's exponent -> "num/den" map as exact coefficients."""
    if doc is None:
        return None
    return {int(e): Fraction(c) for e, c in doc.items() if Fraction(c)}


def frac(text) -> Fraction | None:
    return None if text is None else Fraction(text)


def invert(p: Poly) -> Poly:
    """p(t^-1)."""
    return {-e: c for e, c in p.items()}


def at(p: Poly, x: Fraction | int) -> Fraction:
    return sum((c * Fraction(x) ** e for e, c in p.items()), Fraction(0))


def deriv_at(p: Poly, x: int, order: int = 1) -> Fraction:
    """The `order`-th derivative of p at x (x = 1 or -1)."""
    total = Fraction(0)
    for e, c in p.items():
        fall = 1
        for i in range(order):
            fall *= e - i
        total += c * fall * Fraction(x) ** (e - order)
    return total


def at_cube_root(p: Poly) -> tuple[Fraction, Fraction]:
    """p(w) = a + b w for w^2 + w + 1 = 0, as (a, b)."""
    basis = {0: (1, 0), 1: (0, 1), 2: (-1, -1)}
    a = b = Fraction(0)
    for e, c in p.items():
        x, y = basis[e % 3]
        a += c * x
        b += c * y
    return a, b


def w3_of(jones: Poly) -> Fraction:
    return (Fraction(1, 36) * deriv_at(jones, 1, 3)
            + Fraction(1, 12) * deriv_at(jones, 1, 2))


def ob_of(jones: Poly) -> Fraction:
    """Theta(-1) - Theta(1) = -(1/12) V'(-1) V(-1) - 2 w3."""
    return (-Fraction(1, 12) * deriv_at(jones, -1) * at(jones, -1)
            - 2 * w3_of(jones))


def family_ob(k: int) -> Fraction:
    return Fraction(-16 * k * (k + 1) * (2 * k + 1), 12)


def pretzel_d(p: int, q: int, r: int) -> int:
    num = p * q + q * r + r * p + 1
    assert num % 4 == 0, (p, q, r)
    return num // 4


def pretzel_matrix(p: int, q: int, r: int) -> list[list[int]]:
    """The genus-one Seifert matrix of P(p,q,r) in the README's convention."""
    return [[(p + q) // 2, (q + 1) // 2], [(q - 1) // 2, (q + r) // 2]]


def spine_matrix(n: int, m: int, ell: int, eps: int) -> list[list[int]]:
    return [[n, ell], [ell + eps, m]]


def _mul(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _sub(a: Poly, b: Poly) -> Poly:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) - c
    return {e: c for e, c in out.items() if c}


def alexander_2x2(v: list[list[int]]) -> Poly:
    """det(V - t V^T), expanded here, shifted and signed to be symmetric
    with value 1 at t = 1."""
    (a, b), (c, d) = v
    m = [[{0: a, 1: -a}, {0: b, 1: -c}], [{0: c, 1: -b}, {0: d, 1: -d}]]
    det = _sub(_mul(m[0][0], m[1][1]), _mul(m[0][1], m[1][0]))
    det = {e: Fraction(c) for e, c in det.items() if c}
    lo, hi = min(det), max(det)
    sign = 1 if at(det, 1) > 0 else -1
    return {e - (lo + hi) // 2: sign * c for e, c in det.items()}


def alexander_of_d(d: int) -> Poly:
    """d t + (1 - 2d) + d t^-1 (just 1 when d = 0)."""
    return {e: Fraction(c) for e, c in ((1, d), (0, 1 - 2 * d), (-1, d)) if c}


def signature_2x2(v: list[list[int]]) -> int:
    """Signature of V + V^T by the sign of its determinant and corner."""
    a, b, c = 2 * v[0][0], v[0][1] + v[1][0], 2 * v[1][1]
    det = a * c - b * b
    if det < 0:
        return 0
    if det == 0:
        raise ValueError("singular form")
    return 2 if a > 0 else -2


def check_jones(label: str, jones: Poly | None, det: int) -> list[str]:
    """Knot Jones identities: V(1) = 1, V'(1) = 0, V(w) = 1, |V(-1)| = det."""
    if jones is None:
        return [f"{label}: no Jones polynomial"]
    bad = []
    if at(jones, 1) != 1:
        bad.append(f"{label}: V(1) = {at(jones, 1)}")
    if deriv_at(jones, 1) != 0:
        bad.append(f"{label}: V'(1) = {deriv_at(jones, 1)}")
    if at_cube_root(jones) != (1, 0):
        bad.append(f"{label}: V(w) = {at_cube_root(jones)}")
    if abs(at(jones, -1)) != det:
        bad.append(f"{label}: |V(-1)| = {abs(at(jones, -1))}, want {det}")
    return bad


def batch_results(doc: dict) -> tuple[dict[str, dict], list[str]]:
    """label -> report of a batch document, and the labels of error rows."""
    reports, errors = {}, []
    for row in doc["results"]:
        if "error" in row:
            errors.append(row["label"])
        else:
            reports[row["label"]] = row["report"]
    return reports, errors


def _missing(meta_rows: dict, reports: dict, errors: list[str]) -> list[str]:
    gone = set(meta_rows) - set(reports) - set(errors)
    extra = set(reports) - set(meta_rows)
    return ([f"{x}: missing from output" for x in sorted(gone)]
            + [f"{x}: not in the corpus" for x in sorted(extra)])


def check_pd_batch(meta: dict, doc: dict, twist_jones: dict[str, Poly]
                   ) -> list[str]:
    """`twist_jones` maps each base to jones(PretzelParams) from the
    program's twist recursion, an engine independent of the state sum."""
    reports, errors = batch_results(doc)
    bad = _missing(meta["rows"], reports, errors)
    for label, rep in reports.items():
        info = meta["rows"].get(label)
        if info is None:
            continue
        p, q, r = meta["bases"][info["base"]]
        jones = poly(rep["jones"])
        bad += check_jones(label, jones, abs(p * q + q * r + r * p))
        if jones is None:
            continue
        want = twist_jones[info["base"]]
        if info["mirror"]:
            want = invert(want)
        if jones != want:
            bad.append(f"{label}: Jones differs from the twist route"
                       + (" (mirrored)" if info["mirror"] else ""))
        if rep["verdict"] != INCONCLUSIVE:
            bad.append(f"{label}: verdict {rep['verdict']} without Alexander")
    return bad


def check_family_scan(meta: dict, rows: list[dict]) -> list[str]:
    bad = []
    if [row["k"] for row in rows] != list(range(1, meta["k_max"] + 1)):
        bad.append("family rows are not k = 1..k_max")
    for row in rows:
        k = row["k"]
        p, q, r = 4 * k + 1, 4 * k + 3, -(2 * k + 1)
        if (row["p"], row["q"], row["r"]) != (p, q, r):
            bad.append(f"k={k}: parameters {row['p'], row['q'], row['r']}")
        if row["alexander_trivial"] != (p * q + q * r + r * p + 1 == 0):
            bad.append(f"k={k}: alexander_trivial is wrong")
        ob = family_ob(k)
        for key in ("ob_closed_form", "ob_jones_route"):
            if frac(row.get(key)) != ob:
                bad.append(f"k={k}: {key} = {row.get(key)}, want {ob}")
        if row["verdict_mod16"] != (k % 4 in (1, 2)):
            bad.append(f"k={k}: verdict_mod16 = {row['verdict_mod16']}")
        if row.get("routes_agree") is not True:
            bad.append(f"k={k}: routes_agree = {row.get('routes_agree')}")
    return bad


def _expected_verdict(d: int, ob: Fraction | None) -> str:
    if d != 0:
        return NONTRIVIAL
    if ob is not None and (ob.denominator != 1 or ob.numerator % 16):
        return MOD16
    return INCONCLUSIVE


def _check_seifert_part(label, rep, matrix, d) -> list[str]:
    bad = []
    if poly(rep["alexander"]) != alexander_of_d(d):
        bad.append(f"{label}: Alexander polynomial is not d t + (1-2d) + d/t"
                   f" with d = {d}")
    if alexander_2x2(matrix) != alexander_of_d(d):
        bad.append(f"{label}: benchmark expansion disagrees with d = {d}")
    if rep["determinant"] != abs(1 - 4 * d):
        bad.append(f"{label}: determinant {rep['determinant']}, "
                   f"want |Delta(-1)| = {abs(1 - 4 * d)}")
    if rep["sigma"] != signature_2x2(matrix):
        bad.append(f"{label}: sigma {rep['sigma']}, "
                   f"want {signature_2x2(matrix)}")
    return bad


def check_verdict_batch(meta: dict, doc: dict) -> list[str]:
    reports, errors = batch_results(doc)
    bad = _missing(meta["rows"], reports, errors)
    for label, rep in reports.items():
        info = meta["rows"].get(label)
        if info is None:
            continue
        if info["kind"] == "spine":
            n, m, ell, eps = info["spine"]
            d = n * m - ell * (ell + eps)
            bad += _check_seifert_part(label, rep,
                                       spine_matrix(n, m, ell, eps), d)
            if rep["jones"] is not None or rep["ob"] is not None:
                bad.append(f"{label}: Jones data on a matrix-only row")
            if rep["verdict"] != _expected_verdict(d, None):
                bad.append(f"{label}: verdict {rep['verdict']} with d = {d}")
            continue
        p, q, r = info["pqr"]
        d = pretzel_d(p, q, r)
        bad += _check_seifert_part(label, rep, pretzel_matrix(p, q, r), d)
        jones = poly(rep["jones"])
        bad += check_jones(label, jones, abs(1 - 4 * d))
        if jones is None:
            continue
        w3, ob = frac(rep["w3"]), frac(rep["ob"])
        if w3 is None or w3.denominator != 1 or w3 != w3_of(jones):
            bad.append(f"{label}: w3 = {rep['w3']}, want integer "
                       f"{w3_of(jones)}")
        if ob != ob_of(jones):
            bad.append(f"{label}: ob = {rep['ob']}, Jones gives {ob_of(jones)}")
        if info["family_k"] is not None:
            want = family_ob(info["family_k"])
            if not info["source"]:
                want = -want
            if ob != want:
                bad.append(f"{label}: ob = {rep['ob']}, closed form {want}")
        if rep["verdict"] != _expected_verdict(d, ob):
            bad.append(f"{label}: verdict {rep['verdict']} with d = {d}, "
                       f"ob = {rep['ob']}")
        if info["source"]:
            bad += _check_mirror_pair(label, rep, reports.get(info["partner"]))
    return bad


def _check_mirror_pair(label: str, rep: dict, mir: dict | None) -> list[str]:
    if mir is None:
        return []  # reported as missing above
    bad = []
    if poly(mir["jones"]) != invert(poly(rep["jones"])):
        bad.append(f"{label}: mirror Jones is not V(t^-1)")
    for key in ("sigma", "w3", "ob"):
        a, b = rep[key], mir[key]
        if a is None or b is None or Fraction(b) != -Fraction(a):
            bad.append(f"{label}: mirror {key} = {b}, want -({a})")
    return bad


def check_spine_sweep(meta: dict, result: bool, sample: list[dict]
                      ) -> list[str]:
    """`sample` holds the program's Alexander polynomials of the sample
    spines, as exponent -> coefficient maps."""
    bad = [] if result is True else [f"m_forcing_check returned {result}"]
    if len(sample) != len(meta["sample"]):
        bad.append(f"{len(sample)} sample results for "
                   f"{len(meta['sample'])} spines")
    for spine, got in zip(meta["sample"], sample):
        want = alexander_2x2(spine_matrix(*spine))
        if poly(got) != want:
            bad.append(f"spine {spine}: alexander_from_seifert differs from "
                       "det(V - t V^T)")
    return bad
