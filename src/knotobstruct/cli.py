"""Command-line front end.

Subcommands: invariants, obstruct, pretzel-scan, batch, selftest.
Verdicts are data, not errors: only input and I/O failures exit nonzero.
"""

from __future__ import annotations

import csv
import os
import stat
import sys
from dataclasses import fields

import click

from .diagram import PretzelParams, parse_pd
from .errors import (DiagramTooLarge, InputSyntaxError, KnotObstructError,
                     PreconditionViolation)
from .kauffman import PRETZEL_TOTAL_CAP
from .laurent import LaurentPoly, parse_laurent
from .obstruction import (
    ObstructionReport,
    cosmetic_verdict,
    json_text,
    obstruction_value,
    pretzel_family,
    require_printable,
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
    # blank text is the 0x0 matrix; otherwise every entry is an integer
    "seifert": lambda text: SeifertMatrix(
        [[int(x) for x in row.split(",")] for row in text.split(";")]
        if text.strip() else []
    ),
    "spine": lambda text: GenusOneSpine(*_ints(text, 3, 4)),
    "tinv": lambda text: TangleInvariants(*_ints(text, 4)),
    "jones": parse_laurent,
}

_BATCH_KINDS = ("pretzel", "pd", "seifert")

#: most rows pretzel-scan builds; 60,000 rows took 0.82 s with --json and
#: 40,000 took 0.55 s on a 2-core x86-64 VM
PRETZEL_SCAN_ROW_CAP = 60_000


def _parse_input(kind: str, text: str):
    """Parse the text of one input kind; bad text raises only
    KnotObstructError subclasses."""
    try:
        return _PARSERS[kind](text)
    except ValueError as exc:
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
        # a dataclass's __dict__ holds its fields in declaration order
        doc = report if theta is None else {"theta": theta, **vars(report)}
        click.echo(json_text(doc))
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
    """Compute all invariants available from the given input."""
    theta = None
    if tinv is not None:
        if spine is None:
            raise PreconditionViolation("--tinv needs --spine")
        # the spine route has no diagram; tangle invariants give Theta itself
        theta = reduced_two_loop(spine, tinv)
        require_printable(theta)
    report = cosmetic_verdict(pretzel=pretzel, pd=pd, seifert=seifert, spine=spine)
    _print_report(report, as_json, theta)


@main.command()
@_source_options
@_input_option("jones", 'Jones polynomial, e.g. "-1*t^4 + 1*t^3 + 1*t^1"',
               "jones_poly")
@click.option("--json", "as_json", is_flag=True, help="JSON output")
def obstruct(pretzel, pd, seifert, spine, jones_poly, as_json):
    """Run the cosmetic-crossing decision procedure and print the verdict."""
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
        raise PreconditionViolation("need 1 <= k-min <= k-max")
    count = k_max - k_min + 1  # len() of a range fails past sys.maxsize
    if count > PRETZEL_SCAN_ROW_CAP:
        raise DiagramTooLarge(
            f"{count} rows exceed the pretzel-scan cap {PRETZEL_SCAN_ROW_CAP}"
        )
    ks = range(k_min, k_max + 1)
    family = {k: pretzel_family(k) for k in ks}
    # each Jones row reads Ob off the twist route's numerator in the same
    # few integer sums at any k; the rows' |p| + |q| + |r| still sum under
    # the twist route's cap, a fixed limit
    total = sum(sum(map(abs, family[k][0].as_tuple())) for k in ks if k <= jones_upto)
    if total > PRETZEL_TOTAL_CAP:
        raise DiagramTooLarge(
            f"the Jones rows' |p| + |q| + |r| sum to {total}, "
            f"over the pretzel cap {PRETZEL_TOTAL_CAP}"
        )
    rows = []
    for k, (params, ob, predicted) in family.items():
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
            _, _, ob_jones = obstruction_value(params)
            row["ob_jones_route"] = str(ob_jones)
            row["routes_agree"] = ob_jones == ob
        rows.append(row)
    if as_json:
        click.echo(json_text(rows))
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


def _write_report(path: str, data: bytes) -> None:
    """Write data to path, overwriting a regular file in place.

    The file is opened without O_TRUNC, written from its start and then
    cut at the end of data, so a rerun rewrites an existing report with
    no truncate-to-zero (which on ext4 flushes the file on close) and
    leaves no tail of a longer one.  A pipe, a FIFO or a device such as
    /dev/stdout or /dev/null gets data with no cut, since ftruncate
    fails on them.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "wb") as fh:
        fh.write(data)
        if stat.S_ISREG(os.fstat(fd).st_mode):
            fh.truncate()


@main.command()
@click.option("--input", "input_path", required=True, type=click.Path())
@click.option("--output", "output_path", default=None, type=click.Path())
def batch(input_path, output_path):
    """Process a CSV of knots (header kind,label,payload...) into reports."""
    try:
        # utf-8-sig drops the byte-order mark that spreadsheet exports write
        with open(input_path, newline="", encoding="utf-8-sig") as fh:
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
        results.append({"label": label, "report": report})
        counts[report.verdict] = counts.get(report.verdict, 0) + 1
    doc = {"results": results, "summary": counts}
    text = json_text(doc)
    if output_path:
        try:
            _write_report(output_path, (text + "\n").encode())
        except OSError as exc:
            raise InputSyntaxError(f"--output {output_path}: {exc}") from exc
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
