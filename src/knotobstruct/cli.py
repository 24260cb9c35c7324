"""Command-line front end.

Subcommands: invariants, obstruct, pretzel-scan, batch, selftest.
Verdicts are data, not errors: only input and I/O failures exit nonzero.
"""

from __future__ import annotations

import csv
import json
import sys
from dataclasses import fields

import click

from .diagram import PretzelParams, parse_pd
from .errors import InputSyntaxError, KnotObstructError
from .kauffman import jones
from .laurent import LaurentPoly, parse_laurent
from .obstruction import (
    ObstructionReport,
    cosmetic_verdict,
    json_value,
    obstruction_value,
    pretzel_family,
)
from .seifert import GenusOneSpine, SeifertMatrix, pretzel_alexander_coeff
from .selftest import SUITES
from .twoloop import TangleInvariants, reduced_two_loop


def _ints(text: str, *counts: int) -> list[int]:
    parts = [int(x) for x in text.split(",")]
    if len(parts) not in counts:
        wanted = " or ".join(map(str, counts))
        raise ValueError(f"wants {wanted} comma-separated integers")
    return parts


#: input kind -> parser of its text, shared by the options and batch rows
_PARSERS = {
    "pretzel": lambda text: PretzelParams(*_ints(text, 3)),
    # by name at call time, so a wrapper later bound to cli.parse_pd (as
    # perfbench's --trace spans are) is the one called
    "pd": lambda text: parse_pd(text),
    "seifert": lambda text: SeifertMatrix(
        [[int(x) for x in row.split(",") if x.strip()]
         for row in text.split(";") if row.strip()]
    ),
    "spine": lambda text: GenusOneSpine(*_ints(text, 3, 4)),
    "tinv": lambda text: TangleInvariants(*_ints(text, 4)),
    "jones": parse_laurent,
}

_BATCH_KINDS = ("pretzel", "pd", "seifert")


def _parse_input(kind: str, text: str):
    """Parse the text of one input kind; bad text raises only
    KnotObstructError subclasses."""
    try:
        return _PARSERS[kind](text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputSyntaxError(f"--{kind} {text!r}: {exc}") from exc


def _input_option(kind: str, help: str, name: str | None = None):
    return click.option(
        f"--{kind}",
        name or kind,
        default=None,
        help=help,
        callback=lambda ctx, param, text: (
            None if text is None else _parse_input(kind, text)
        ),
    )


_SOURCE_OPTIONS = (
    _input_option("pretzel", "p,q,r (odd)"),
    _input_option("pd", 'PD code "X(a,b,c,d); ..."'),
    _input_option("seifert", 'row-major "a,b;c,d"'),
    _input_option("spine", "n,m,ell[,eps]"),
)


def _source_options(fn):
    for option in reversed(_SOURCE_OPTIONS):
        fn = option(fn)
    return fn


def _print_report(
    report: ObstructionReport, as_json: bool, theta: LaurentPoly | None = None
) -> None:
    """The report as JSON or as a table; a given theta leads either."""
    if as_json:
        doc = report.to_json_dict()
        if theta is not None:
            doc = {"theta": json_value(theta), **doc}
        click.echo(json.dumps(doc, indent=2))
        return
    if theta is not None:
        click.echo(f"{'theta':18} {theta.render()}")
    for f in fields(report)[:-1]:  # every field but the notes
        value = getattr(report, f.name)
        if isinstance(value, LaurentPoly):
            value = value.render()
        click.echo(f"{f.name:18} {'-' if value is None else value}")
    for note in report.notes:
        click.echo(f"note: {note}")


def _single_source(pretzel, pd, seifert, spine, allow_pd_seifert=False):
    given = sum(x is not None for x in (pretzel, pd, seifert, spine))
    if allow_pd_seifert and pd is not None and seifert is not None:
        given -= 1
    if given != 1:
        raise click.UsageError(
            "give exactly one input source (--pretzel | --pd | --seifert | --spine)"
        )


class _Main(click.Group):
    """Every KnotObstructError ends the command with exit code 2."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except KnotObstructError as exc:
            click.echo(f"error: {exc}", err=True)
            ctx.exit(2)


@click.group(cls=_Main)
def main():
    """Exact knot invariants and cosmetic-crossing obstructions."""


@main.command()
@_source_options
@_input_option("tinv", "v2xx,v2yy,v2xy,v3 (with --spine)")
@click.option("--json", "as_json", is_flag=True, help="JSON output")
def invariants(pretzel, pd, seifert, spine, tinv, as_json):
    """Compute all invariants available from one input source."""
    _single_source(pretzel, pd, seifert, spine)
    theta = None
    if tinv is not None:
        if spine is None:
            raise click.UsageError("--tinv needs --spine")
        # the spine route has no diagram; tangle invariants give Theta itself
        theta = reduced_two_loop(spine, tinv)
    report = cosmetic_verdict(pretzel=pretzel, pd=pd, seifert=seifert, spine=spine)
    _print_report(report, as_json, theta)


@main.command()
@_source_options
@_input_option("jones", 'Jones polynomial, e.g. "-1*t^4 + 1*t^3 + 1*t^1"',
               "jones_poly")
@click.option("--json", "as_json", is_flag=True, help="JSON output")
def obstruct(pretzel, pd, seifert, spine, jones_poly, as_json):
    """Run the cosmetic-crossing decision procedure and print the verdict."""
    _single_source(pretzel, pd, seifert, spine, allow_pd_seifert=True)
    if jones_poly is not None and (pretzel is not None or pd is not None):
        raise click.UsageError(
            "--jones goes with --seifert or --spine; "
            "--pretzel and --pd compute their own Jones polynomial"
        )
    report = cosmetic_verdict(
        pretzel=pretzel, pd=pd, seifert=seifert, spine=spine, jones_poly=jones_poly
    )
    _print_report(report, as_json)


@main.command("pretzel-scan")
@click.option("--k-min", type=int, default=1, show_default=True)
@click.option("--k-max", type=int, default=8, show_default=True)
@click.option("--jones-upto", type=int, default=0, show_default=True,
              help="also run the independent Jones route for k up to this")
@click.option("--json", "as_json", is_flag=True, help="JSON output")
def pretzel_scan(k_min, k_max, jones_upto, as_json):
    """Sweep the trivial-Alexander family P(4k+1, 4k+3, -(2k+1))."""
    if not 1 <= k_min <= k_max:
        raise click.UsageError("need 1 <= k-min <= k-max")
    rows = []
    for k in range(k_min, k_max + 1):
        params, ob, predicted = pretzel_family(k)
        row = {
            "k": k,
            "p": params.p,
            "q": params.q,
            "r": params.r,
            "alexander_trivial": pretzel_alexander_coeff(params) == 0,
            "ob_closed_form": str(ob),
            "verdict_mod16": predicted,
        }
        if k <= jones_upto:
            _, _, ob_jones = obstruction_value(jones(params))
            row["ob_jones_route"] = str(ob_jones)
            row["routes_agree"] = ob_jones == ob
        rows.append(row)
    if as_json:
        click.echo(json.dumps(rows, indent=2))
        return
    for row in rows:
        line = (
            f"k={row['k']:>3}  P({row['p']},{row['q']},{row['r']})"
            f"  trivial_alexander={row['alexander_trivial']}"
            f"  ob={row['ob_closed_form']}"
            f"  mod16_obstructs={row['verdict_mod16']}"
        )
        if "ob_jones_route" in row:
            line += (
                f"  jones_ob={row['ob_jones_route']}"
                f"  agree={row['routes_agree']}"
            )
        click.echo(line)


def _batch_row_report(kind: str, payload: list[str]) -> ObstructionReport:
    """A row `kind,label,<payload...>` reads like `--kind "<payload>"`."""
    if kind not in _BATCH_KINDS:
        raise KnotObstructError(f"unknown row kind {kind!r}")
    if not payload:
        raise KnotObstructError(f"{kind} rows need a payload column")
    return cosmetic_verdict(**{kind: _parse_input(kind, ",".join(payload))})


@main.command()
@click.option("--input", "input_path", required=True, type=click.Path())
@click.option("--output", "output_path", default=None, type=click.Path())
def batch(input_path, output_path):
    """Process a CSV of knots (header kind,label,payload...) into reports."""
    try:
        with open(input_path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise InputSyntaxError(f"--input {input_path}: {exc}") from exc
    if not rows or [h.strip() for h in rows[0][:2]] != ["kind", "label"]:
        raise InputSyntaxError("CSV header must start with: kind,label")
    results = []
    counts: dict[str, int] = {}
    for lineno, row in enumerate(rows[1:], start=2):
        if not row or all(not c.strip() for c in row):
            continue
        kind = row[0].strip()
        label = row[1].strip() if len(row) > 1 else ""
        payload = [c.strip() for c in row[2:]]
        try:
            report = _batch_row_report(kind, payload)
        except KnotObstructError as exc:
            results.append({"label": label, "error": str(exc), "line": lineno})
            counts["error"] = counts.get("error", 0) + 1
            continue
        results.append({"label": label, "report": report.to_json_dict()})
        counts[report.verdict] = counts.get(report.verdict, 0) + 1
    doc = {"results": results, "summary": counts}
    text = json.dumps(doc, indent=2)
    if output_path:
        with open(output_path, "w") as fh:
            fh.write(text + "\n")
    else:
        click.echo(text)
    summary = ", ".join(f"{k}={v}" for k, v in sorted(counts.items())) or "empty"
    click.echo(f"summary: {summary}", err=True)


@main.command()
@click.option("--suite", default=None, type=click.Choice(sorted(SUITES)))
def selftest(suite):
    """Run the embedded oracle suites; nonzero exit on any failure."""
    ok = True
    for name in [suite] if suite else SUITES:
        failure = SUITES[name]()
        click.echo(f"{name:12} {'pass' if failure is None else 'FAIL  ' + failure}")
        ok = ok and failure is None
    if not ok:
        sys.exit(1)


if __name__ == "__main__":
    main()
