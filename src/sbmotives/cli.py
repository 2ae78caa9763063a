"""Command-line front end.

One subcommand per engine operation, batch-style (no interactive mode).
Output is deterministic and byte-stable for fixed arguments: no timestamps,
canonical orderings everywhere.

Each command body computes its answer once and returns a :class:`Result`
holding that answer in all three formats: the JSON payload, the CSV rows
(header first) and the text lines.  Every field is a zero-argument callable,
so only the format that was asked for is built.  The ``decompose`` and
``chow-order`` CSV rows are read from the library's encoders.  The shared
:func:`_renders_result` decorator does everything else: it adds ``--format``
(``text``, ``json`` or ``csv``, or the ``SBMOTIVES_FORMAT`` environment
variable) and ``--out``, reports an :class:`EngineError` as ``error: ...`` on
stderr with exit 1, renders the selected format and writes it to ``--out``,
the one output path: stdout for ``-`` (the default), else a file opened only
then, so a failed command creates none.  An integer past the interpreter's
int-to-str digit limit fails rendering; it is reported the same way, before
anything is written.  The renderer emits every JSON integer as a decimal
string, so values above 2**53 survive any consumer; ``bool`` and ``None`` stay
JSON literals.  CSV fields are joined with commas and never quoted.

Exit codes: 0 success, 1 engine domain error or an ``--out`` that cannot be
opened, 2 usage error, 3 failed ``verify`` identities.
"""

from __future__ import annotations

import functools
import json
import sys
from typing import Callable, Iterable, NamedTuple, TextIO

import click

from .errors import DomainError, EngineError
from .motive import DivisionContext, _is_prime
from .qpoly import gaussian_binomial
from .severi_brauer import (
    CoverageReason,
    SBVariety,
    classify_reduced_dimension,
    function_field_decomposition,
    mu,
    mu_table,
    rational_chow_orders,
)
from .type_calculus import type_bound
from .verify import run_identity_suite

FORMATS = ("text", "json", "csv")


class Result(NamedTuple):
    """A command's answer in every output format, each built on demand.

    ``json`` returns the payload, ``csv`` the rows with the header row first,
    and ``text`` the lines.  The process exits with ``exit_code`` after the
    output is written.
    """

    json: Callable[[], object]
    csv: Callable[[], Iterable[Iterable[object]]]
    text: Callable[[], Iterable[str]]
    exit_code: int = 0


def _json_strings(obj: object) -> object:
    """``obj`` with every integer that is not a ``bool`` as a decimal string."""
    if isinstance(obj, str):  # most leaves already are; testing this first halves the walk
        return obj
    if isinstance(obj, dict):
        return {key: _json_strings(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_strings(value) for value in obj]
    if isinstance(obj, int) and not isinstance(obj, bool):
        return str(obj)
    return obj


def _render(result: Result, fmt: str) -> str:
    try:
        if fmt == "json":
            # compact separators; keys are emitted in canonical insertion order
            return json.dumps(_json_strings(result.json()), separators=(",", ":"))
        if fmt == "csv":
            rows = list(result.csv())
            # every row has the header's width; one %-template formats a row
            # about twice as fast as joining str() of each field
            line = ",".join(["%s"] * len(rows[0]))
            return "\n".join([line % tuple(row) for row in rows])
        return "\n".join(result.text())
    except ValueError as exc:  # rendering only formats: an integer past the int-to-str digit limit
        raise DomainError(str(exc)) from None


def _renders_result(body: Callable[..., Result]):
    """Turn a body returning a :class:`Result` into a command callback."""

    @click.option("--out", "out", type=click.File("w", encoding="utf-8", lazy=True), default="-", metavar="FILE", help="Write output to a file instead of stdout.")
    @click.option(
        "--format",
        "-f",
        "fmt",
        type=click.Choice(FORMATS),
        default="text",
        show_default=True,
        envvar="SBMOTIVES_FORMAT",
        help="Output format (env: SBMOTIVES_FORMAT).",
    )
    @functools.wraps(body)
    def command(fmt: str, out: TextIO, **params) -> None:
        try:
            result = body(**params)
            text = _render(result, fmt)
        except EngineError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(1)
        out.write(text if text.endswith("\n") else text + "\n")
        out.flush()  # click re-wraps a stdout not encoded in UTF-8, and only collecting that wrapper flushes it
        if result.exit_code:
            sys.exit(result.exit_code)

    return command


def _check_prime(ctx: click.Context, param: click.Parameter, p: int) -> int:
    try:
        prime = _is_prime(p)
    except DomainError as exc:  # at or above the bound below which primality is decided
        raise click.BadParameter(str(exc)) from None
    if not prime:
        raise click.BadParameter(f"{p} is not prime")
    return p


def _variety_options(fn):
    """``--p/--n/--k``: the variety SB_{p^k} of a degree-p^n division algebra."""
    fn = click.option("--k", "k", type=int, required=True, help="Level; the variety is SB_{p^k}.")(fn)
    fn = click.option("--n", "n", type=int, required=True, help="Exponent; the algebra has degree p^n.")(fn)
    return click.option("--p", "p", type=int, required=True, callback=_check_prime, help="Prime of the algebra.")(fn)


@click.group()
def cli() -> None:
    """Exact combinatorics of motivic decompositions of Severi-Brauer varieties."""


@cli.command()
@click.argument("d", type=int)
@click.argument("k", type=int)
@_renders_result
def gaussian(d: int, k: int) -> Result:
    """Gaussian binomial [D choose K]_q with exact integer coefficients."""
    poly = gaussian_binomial(d, k)
    return Result(
        json=poly.to_json_dict,
        csv=lambda: [("degree", "coefficient"), *poly.items()],
        text=lambda: [
            f"[{d} choose {k}]_q = {poly}",
            f"rank {poly.rank()}, dimension {poly.dim() if poly else 0}",
        ],
    )


@cli.command(name="mu")
@_variety_options
@click.option("--i", "i", type=int, default=None, help="Single degree to report.")
@click.option("--all", "all_", is_flag=True, help="Tabulate every degree with a possibly nonzero count.")
@_renders_result
def mu_command(p: int, n: int, k: int, i: int | None, all_: bool) -> Result:
    """Box-partition counts behind the rational Chow-group orders."""
    if (i is None) == (not all_):
        raise click.UsageError("exactly one of --i or --all is required")
    context = DivisionContext(p, n)
    table = mu_table(SBVariety(context, k)) if all_ else [(i, mu(context, k, i))]
    return Result(
        json=lambda: {"p": p, "n": n, "k": k, "values": [{"i": d, "mu": c} for d, c in table]},
        csv=lambda: [("i", "mu"), *table],
        text=lambda: [f"mu counts for p={p}, n={n}, k={k}", *(f"  i={d}: {c}" for d, c in table)],
    )


@cli.command(name="chow-order")
@_variety_options
@_renders_result
def chow_order(p: int, n: int, k: int) -> Result:
    """Orders of the rational Chow groups of SB_1 x SB_{p^k}, all degrees."""
    reports = rational_chow_orders(SBVariety(DivisionContext(p, n), k))

    def csv():
        rows = [r.to_json_obj() for r in reports]  # the header is the encoder's keys
        return [rows[0].keys(), *(row.values() for row in rows)]

    return Result(
        json=lambda: {"p": p, "n": n, "k": k, "rows": [r.to_json_obj() for r in reports]},
        csv=csv,
        text=lambda: [
            f"rational Chow-group orders for p={p}, n={n}, k={k}",
            *(
                f"  i={r.i}: mu={r.summand_count}, order {p}^{r.summand_count}"
                f" = {r.group_order()} (literal mu*p = {r.literal_order})"
                for r in reports
            ),
        ],
    )


@cli.command()
@_variety_options
@_renders_result
def decompose(p: int, n: int, k: int) -> Result:
    """Function-field decomposition of SB_{2^k} with its conservation check."""
    variety = SBVariety(DivisionContext(p, n), k)
    expr = function_field_decomposition(variety)
    conserved = expr.split_poincare() == gaussian_binomial(
        variety.context.degree, variety.reduced_dimension
    )
    status = "ok" if conserved else "failed"

    def csv():
        yield ("kind", "p", "n", "payload", "twist", "multiplicity")
        for entry in expr.to_json_obj():
            obj = entry["object"]  # the Tate unit or a product: the split has no upper motive
            dims = ";".join(obj.get("dims", ()))
            yield (obj["kind"], obj.get("p", ""), obj.get("n", ""), dims, entry["twist"], entry["multiplicity"])
        yield ("conservation", "", "", status, "", "")

    def text():
        yield f"function-field decomposition of SB_{variety.reduced_dimension} (p={p}, n={n}, k={k}):"
        if expr.is_zero:
            yield "  (zero motive)"
        for term, mult in expr.term_items():
            suffix = f"  x{mult}" if mult > 1 else ""
            yield f"  {term.obj!r} (twist {term.twist}){suffix}"
        yield f"conservation: {status.upper()}"

    return Result(
        json=lambda: {"p": p, "n": n, "k": k, "terms": expr.to_json_obj(), "conservation": status},
        csv=csv,
        text=text,
    )


@cli.command(name="type-bound")
@_variety_options
@click.option("--trace", "show_trace", is_flag=True, help="Include the full proof trace.")
@_renders_result
def type_bound_command(p: int, n: int, k: int, show_trace: bool) -> Result:
    """Derived type bound with indecomposability and rigidity judgments."""
    variety = SBVariety(DivisionContext(p, n), k)
    bound = type_bound(variety)
    summary = {
        "bound": bound.bound,
        "indecomposability": bound.indecomposability.value,
        "rigidity": bound.rigidity.value,
    }
    steps = bound.trace.steps if show_trace else ()

    def json_payload():
        payload = {"p": p, "n": n, "k": k, **summary}
        if show_trace:
            payload["trace"] = bound.trace.to_json_obj()
            # each citation once, keyed by rule id in order of first use
            payload["rules"] = {step.rule_id: step.citation for step in steps}
        return payload

    def text():
        yield f"type bound for SB_{variety.reduced_dimension} of a degree-{p}^{n} division algebra: {bound.bound}"
        yield f"indecomposability: {summary['indecomposability']}"
        yield f"rigidity: {summary['rigidity']}"
        if show_trace:
            yield bound.trace.render_text()

    return Result(
        json=json_payload,
        csv=lambda: [
            ("key", "value"),
            *summary.items(),
            *((f"step {index}", step.rule_id) for index, step in enumerate(steps, start=1)),
        ],
        text=text,
    )


@cli.command()
@click.option("--k", "k", type=int, required=True, help="Reduced dimension of the ideals.")
@_renders_result
def conjecture(k: int) -> Result:
    """Is the decomposition-lifting question settled for SB_k?"""
    case = classify_reduced_dimension(k)

    def csv():
        yield ("key", "value")
        yield ("covered", "true" if case.covered else "false")
        if case.reason:
            yield ("reason", case.reason.value)
        if case.odd_squarefree_part is not None:
            yield ("odd_squarefree_part", case.odd_squarefree_part)
        if case.blocking_factor is not None:
            yield ("blocking_factor", case.blocking_factor)
        for c in case.reductions:
            yield ("reduction", f"p={c.prime}:SB_{c.reduced_dimension}")

    def text():
        if not case.covered:
            yield f"OPEN (blocking factor {case.blocking_factor})"
            return
        if case.reason is CoverageReason.SQUAREFREE:
            yield "COVERED (squarefree)"
        else:
            yield f"COVERED (4 x odd squarefree, odd part {case.odd_squarefree_part})"
        for c in case.reductions:
            yield f"  reduces to: SB_{c.reduced_dimension} at p={c.prime}"

    return Result(
        json=lambda: {
            "k": k,
            "covered": case.covered,
            "reason": case.reason.value if case.reason else None,
            "odd_squarefree_part": case.odd_squarefree_part,
            "blocking_factor": case.blocking_factor,
            "reductions": [
                {"p": c.prime, "reduced_dimension": c.reduced_dimension}
                for c in case.reductions
            ],
        },
        csv=csv,
        text=text,
    )


@cli.command()
@click.option("--max-n", "max_n", type=click.IntRange(min=1), default=5, show_default=True, help="Largest exponent for range-parameterized identities.")
@_renders_result
def verify(max_n: int) -> Result:
    """Run the full identity suite; exit 3 when any identity fails."""
    report = run_identity_suite(max_n)

    def text():
        for r in report.results:
            yield f"{'ok  ' if r.passed else 'FAIL'} {r.identity}"
            if not r.passed:
                for failure in r.failures[:5]:
                    yield f"       {failure}"
        passed = sum(1 for r in report.results if r.passed)
        yield f"{passed}/{len(report.results)} identities hold (max n = {max_n})"
        if not report.passed:
            yield "failing: " + ", ".join(report.failing())

    return Result(
        json=lambda: {
            "max_n": max_n,
            "passed": report.passed,
            "results": [
                {"identity": r.identity, "passed": r.passed, "failures": r.failures[:5]}
                for r in report.results
            ],
        },
        csv=lambda: [
            ("identity", "status"),
            *((r.identity, "pass" if r.passed else "fail") for r in report.results),
        ],
        text=text,
        exit_code=0 if report.passed else 3,
    )


def main() -> None:
    cli()


if __name__ == "__main__":
    main()
