"""Command-line front end.

One subcommand per engine operation, batch-style.  Output is deterministic and
byte-stable for fixed arguments: no timestamps, canonical orderings everywhere.

Each command body computes its answer once and returns a :class:`Result`
holding it in all three formats, each built only when asked for; the
``decompose`` and ``chow-order`` CSV rows are read from the library's encoders.
:func:`main` parses its list, or ``sys.argv``, with argparse, adding
``-f``/``--format`` (``text``, ``json`` or ``csv``, default from
``SBMOTIVES_FORMAT``) and ``--out`` to every command.  It reports an
:class:`EngineError` as ``error: ...`` on stderr with exit 1, and writes the
rendered format to ``--out``: stdout for ``-`` (the default), else a file
opened only then, so a failed command creates none.  An integer past the
int-to-str digit limit fails rendering and is reported the same way, before
anything is written.  JSON integers other than ``bool`` are decimal strings, so
values above 2**53 survive any consumer.  CSV fields are joined with commas,
never quoted.  Usage text reads the same on every supported Python.
``type-bound``, ``conjecture`` and ``verify`` import the type calculus when
they run (``conjecture`` through the classifier, which reads each case's
verdict from it), and ``verify`` the identity suite too, so no other command
compiles or loads them, and only JSON output loads ``json``.

Exit codes: 0 success, 1 engine domain error or an output that cannot be
opened or written, 2 usage error, 3 failed ``verify`` identities.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable, Iterable, NamedTuple

from .errors import DomainError, EngineError
from .motive import DivisionContext, _is_prime
from .qpoly import _str_digit_limit, gaussian_binomial
from .severi_brauer import (
    CoverageReason,
    SBVariety,
    classify_reduced_dimension,
    function_field_decomposition,
    mu,
    mu_table,
    rational_chow_orders,
)

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
            import json  # here, so that a text or CSV command never loads it

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


class _Formatter(argparse.RawDescriptionHelpFormatter):
    """Docstrings as written; an option's spellings share one metavar (``-f, --format FORMAT``) on every Python."""

    def _format_action_invocation(self, action: argparse.Action) -> str:
        if not action.option_strings or action.nargs == 0:
            return super()._format_action_invocation(action)
        return ", ".join(action.option_strings) + " " + self._format_args(action, action.dest.upper())


def _prime(text: str) -> int:
    try:
        p = int(text)
        if _is_prime(p):
            return p
    except DomainError as exc:  # at or above the bound below which primality is decided
        raise argparse.ArgumentTypeError(str(exc)) from None
    except ValueError:  # not an integer, or past the int-to-str digit limit
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    raise argparse.ArgumentTypeError(f"{p} is not prime")


def _format(text: str) -> str:  # also checks the SBMOTIVES_FORMAT default, which argparse passes through it
    if text not in FORMATS:
        raise argparse.ArgumentTypeError(f"invalid choice: {text!r} (choose from {', '.join(FORMATS)})")
    return text


_VARIETY = {  # the variety SB_{p^k} of a degree-p^n division algebra
    "--p": dict(type=_prime, required=True, help="Prime of the algebra."),
    "--n": dict(type=int, required=True, help="Exponent; the algebra has degree p^n."),
    "--k": dict(type=int, required=True, help="Level; the variety is SB_{p^k}."),
}


def gaussian(d: int, k: int) -> Result:
    """Gaussian binomial [D choose K]_q with exact integer coefficients."""
    poly = gaussian_binomial(d, k)
    return Result(
        json=poly.to_json_dict,
        csv=lambda: [("degree", "coefficient"), *poly.items()],
        text=lambda: [
            f"[{d} choose {k}]_q = {poly}",
            f"rank {poly.rank()}, dimension {poly.dim()}",
        ],
    )


def mu_command(p: int, n: int, k: int, i: int | None, all_: bool) -> Result:
    """Box-partition counts behind the rational Chow-group orders."""
    if (i is None) == (not all_):
        raise argparse.ArgumentError(None, "exactly one of --i or --all is required")
    context = DivisionContext(p, n)
    table = mu_table(SBVariety(context, k)) if all_ else [(i, mu(context, k, i))]
    return Result(
        json=lambda: {"p": p, "n": n, "k": k, "values": [{"i": d, "mu": c} for d, c in table]},
        csv=lambda: [("i", "mu"), *table],
        text=lambda: [f"mu counts for p={p}, n={n}, k={k}", *(f"  i={d}: {c}" for d, c in table)],
    )


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
        for term, mult in expr.term_items():
            suffix = f"  x{mult}" if mult > 1 else ""
            yield f"  {term.obj!r} (twist {term.twist}){suffix}"
        yield f"conservation: {status.upper()}"

    return Result(
        json=lambda: {"p": p, "n": n, "k": k, "terms": expr.to_json_obj(), "conservation": status},
        csv=csv,
        text=text,
    )


def type_bound_command(p: int, n: int, k: int, show_trace: bool) -> Result:
    """Derived type bound with indecomposability and rigidity judgments."""
    from .type_calculus import type_bound  # loaded here: only this command and verify run it

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
        limit = _str_digit_limit()
        if limit and k * (p.bit_length() - 1) > limit * 3322 // 1000:  # so p**k > 10**limit
            raise DomainError(f"the reduced dimension {p}^{k} has more than {limit} digits, past the int-to-str digit limit")
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


def conjecture(k: int) -> Result:
    """Is the decomposition-lifting question settled for SB_k?"""
    case = classify_reduced_dimension(k)
    fields = {
        "covered": case.covered,
        "reason": case.reason.value if case.reason else None,
        "odd_squarefree_part": case.odd_squarefree_part,
        "blocking_factor": case.blocking_factor,
    }

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
            **fields,
            "reductions": [{"p": c.prime, "reduced_dimension": c.reduced_dimension} for c in case.reductions],
        },
        csv=lambda: [
            ("key", "value"),
            # a None field gets no row; lower() spells the boolean true/false, the rest are digits or lowercase
            *((key, str(value).lower()) for key, value in fields.items() if value is not None),
            *(("reduction", f"p={c.prime}:SB_{c.reduced_dimension}") for c in case.reductions),
        ],
        text=text,
    )


def verify(max_n: int) -> Result:
    """Run the full identity suite; exit 3 when any identity fails."""
    if max_n < 1:
        raise argparse.ArgumentError(None, f"--max-n must be at least 1, got {max_n}")
    from .verify import run_identity_suite  # loaded only once the usage check has passed

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


_COMMANDS = {  # name -> (body, its arguments besides --out and --format)
    "gaussian": (gaussian, {"d": dict(metavar="D", type=int), "k": dict(metavar="K", type=int)}),
    "mu": (mu_command, {
        **_VARIETY,
        "--i": dict(type=int, help="Single degree to report."),
        "--all": dict(dest="all_", action="store_true", help="Tabulate every degree with a possibly nonzero count."),
    }),
    "chow-order": (chow_order, _VARIETY),
    "decompose": (decompose, _VARIETY),
    "type-bound": (type_bound_command, {**_VARIETY, "--trace": dict(dest="show_trace", action="store_true", help="Include the full proof trace.")}),
    "conjecture": (conjecture, {"--k": dict(type=int, required=True, help="Reduced dimension of the ideals.")}),
    "verify": (verify, {"--max-n": dict(type=int, default=5, help="Largest exponent for range-parameterized identities (default: 5).")}),
}


def main(argv: list[str] | None = None) -> None:
    """Run ``sbmotives ARGV`` (``sys.argv[1:]`` by default); a failure exits nonzero."""
    name, *args = (sys.argv[1:] if argv is None else argv) or [""]
    if name not in _COMMANDS:
        top = argparse.ArgumentParser(
            prog="sbmotives",
            usage="%(prog)s [-h] COMMAND [ARGS]...",
            description="Exact combinatorics of motivic decompositions of Severi-Brauer varieties.",
            epilog="commands:\n" + "\n".join(f"  {c:<12}{body.__doc__}" for c, (body, _) in sorted(_COMMANDS.items())),
            formatter_class=_Formatter, allow_abbrev=False,
        )
        if name in ("-h", "--help"):
            top.parse_args([name])  # prints the help and exits 0
        top.error(f"no such command {name!r}" if name else "missing command")
    body, arguments = _COMMANDS[name]
    parser = argparse.ArgumentParser(
        prog=f"sbmotives {name}", description=body.__doc__, formatter_class=_Formatter, allow_abbrev=False
    )
    for flag, options in arguments.items():
        parser.add_argument(flag, **options)
    parser.add_argument("--out", default="-", metavar="FILE", help="Write output to a file instead of stdout.")
    parser.add_argument(
        "-f", "--format", type=_format, default=os.environ.get("SBMOTIVES_FORMAT") or "text",
        help="Output format: text, json or csv (default: text, or env SBMOTIVES_FORMAT).",
    )
    params = vars(parser.parse_args(args))
    fmt, out = params.pop("format"), params.pop("out")
    try:
        result = body(**params)
        text = _render(result, fmt)
    except argparse.ArgumentError as exc:  # a usage check the body makes: mu's --i or --all, verify's --max-n
        parser.error(str(exc))
    except EngineError as exc:
        parser.exit(1, f"error: {exc}\n")
    try:
        stream = sys.stdout if out == "-" else open(out, "w", encoding="utf-8")
    except OSError as exc:
        parser.exit(1, f"error: cannot open {out!r}: {exc.strerror}\n")
    try:
        try:
            stream.write(text + "\n")
            stream.flush()
        finally:
            if stream is not sys.stdout:
                stream.close()
    except OSError as exc:
        if stream is sys.stdout:  # what is left in its buffer goes nowhere, so the flush at exit cannot fail
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        quiet = isinstance(exc, BrokenPipeError)  # the reader stopped early, as `head` does
        parser.exit(1, "" if quiet else f"error: cannot write {'stdout' if out == '-' else repr(out)}: {exc.strerror}\n")
    if result.exit_code:
        sys.exit(result.exit_code)


if __name__ == "__main__":
    main()
