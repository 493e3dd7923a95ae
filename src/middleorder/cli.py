"""Command-line surface: tables, Hasse diagrams, one-shot queries and
verification suites.

Exit codes: 0 on success, 1 on verification failure, 2 on usage or
parse errors.
"""
from __future__ import annotations

import importlib
from typing import TYPE_CHECKING

import click

# Commands import the modules they run at the point of use, so that one
# query compiles only what it needs; counting.TABLE_KINDS feeds a Choice.
from . import counting
from .permutations import (
    _shown,
    format_inversion_sequence,
    format_permutation,
    inversion_sequence,
    parse_inversion_sequence,
    parse_permutation,
)

if TYPE_CHECKING:
    from .posets import FinitePoset

# Largest n drawn: parking_poset(6), 16,808 elements, prints in ~2 s at ~130 MB.
DIAGRAM_LIMIT = 6


@click.group()
def main() -> None:
    """Explore the middle order on permutations."""


# ---------------------------------------------------------------------------
# table


@main.command("table")
@click.argument("kind", type=click.Choice(counting.TABLE_KINDS))
@click.option("--n", "n", type=int, required=True, help="Largest row to emit.")
@click.option(
    "--format",
    "fmt",
    type=click.Choice(("csv", "json", "oeis")),
    default="csv",
    show_default=True,
)
def cmd_table(kind: str, n: int, fmt: str) -> None:
    """Emit rows 1..N of a counting table."""
    try:
        rows = counting.table_rows(kind, n)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    if fmt == "csv":
        click.echo(counting.rows_to_csv(rows), nl=False)
    elif fmt == "json":
        click.echo(counting.rows_to_json(kind, rows), nl=False)
    else:
        click.echo(counting.rows_to_bfile(rows), nl=False)


# ---------------------------------------------------------------------------
# hasse

# The module and function that build each order's poset, imported on use.
ORDERS = {
    "middle": ("orders", "middle_poset"),
    "bruhat": ("orders", "bruhat_poset"),
    "weak": ("orders", "weak_poset"),
    "involutions": ("involutions", "involution_poset"),
    "regular": ("heyting", "regular_subposet"),
    "parking": ("parking", "parking_poset"),
}


def _imported(module: str, name: str):
    """middleorder.<module>.<name>, the module imported on first use."""
    return getattr(importlib.import_module(f".{module}", __package__), name)


def _build_poset(order: str, n: int) -> FinitePoset:
    return _imported(*ORDERS[order])(n)


def _node_text(label, order: str, style: str) -> str:
    if order == "parking":
        from .parking import format_parking

        return format_parking(label)
    if style == "invseq":
        return format_inversion_sequence(inversion_sequence(label))
    return format_permutation(label)


@main.command("hasse")
@click.option("--order", type=click.Choice(tuple(ORDERS)), default="middle", show_default=True)
@click.option("--n", "n", type=int, required=True)
@click.option(
    "--labels",
    "style",
    type=click.Choice(("word", "invseq")),
    default="word",
    show_default=True,
    help="Node labels: one-line notation or inversion sequence.",
)
def cmd_hasse(order: str, n: int, style: str) -> None:
    """Print the Hasse diagram of an order as a DOT digraph, for n up to 6."""
    if n > DIAGRAM_LIMIT:
        raise click.UsageError(f"n = {n} exceeds the diagram limit {DIAGRAM_LIMIT}")
    try:
        poset = _build_poset(order, n)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    relabeled = poset.relabeled([_node_text(lab, order, style) for lab in poset.labels])
    click.echo(relabeled.to_dot(name=order), nl=False)


# ---------------------------------------------------------------------------
# query

# Each operation: its argument names, the parser of each argument, the
# module and function it calls (imported on use), the formatter of the
# result and its help line.
QUERIES = {
    "invseq": ("W", parse_permutation, "permutations", "inversion_sequence",
               format_inversion_sequence, "inversion sequence of W"),
    "perm": ("X", parse_inversion_sequence, "permutations", "from_inversion_sequence",
             format_permutation, "permutation with inversion sequence X"),
    "meet": ("V W", parse_permutation, "orders", "meet", format_permutation, "middle-order meet"),
    "join": ("V W", parse_permutation, "orders", "join", format_permutation, "middle-order join"),
    "mobius": ("V W", parse_permutation, "orders", "mobius_middle", str,
               "middle-order Moebius value"),
    "mobius-inv": ("W", parse_permutation, "involutions", "mobius_involution_ideal", str,
                   "Moebius value of [identity, W] among involutions"),
    "heyting": ("V W", parse_permutation, "heyting", "relative_pseudocomplement",
                format_permutation, "relative pseudocomplement V ~> W"),
    "pseudo": ("V", parse_permutation, "heyting", "pseudocomplement", format_permutation,
               "pseudocomplement of V"),
    "euler": ("W", parse_permutation, "counting", "euler_characteristic", str,
              "Euler characteristic of W"),
    "covers": ("W", parse_permutation, "orders", "upper_covers",
               lambda words: "\n".join(map(format_permutation, words)),
               "elements covering W, one per line"),
}


@main.command("query", help="Evaluate a one-shot expression.\n\n\b\n" + "\n".join(
    f"{op + ' ' + entry[0]:13} {entry[-1]}" for op, entry in QUERIES.items()))
@click.argument("expr", nargs=-1, required=True)
def cmd_query(expr: tuple[str, ...]) -> None:
    try:
        click.echo(_evaluate(list(expr)))
    except ValueError as exc:
        raise click.UsageError(str(exc))


def _evaluate(tokens: list[str]) -> str:
    op, args = tokens[0], tokens[1:]
    if op not in QUERIES:
        raise ValueError(f"unknown operation {_shown(op)}")
    names, parse, module, function, show, _ = QUERIES[op]
    arity = len(names.split())
    if len(args) != arity:
        raise ValueError(f"{op} takes {arity} argument(s), got {len(args)}")
    return show(_imported(module, function)(*map(parse, args)))


# ---------------------------------------------------------------------------
# verify


@main.command("verify")
@click.option("--suite", metavar="NAME", default="all", show_default=True,
              help="A suite name, or all; an unknown name lists the suites.")
@click.option("--n-max", "n_max", type=click.IntRange(min=1), default=None,
              help="Run each check only up to this size.")
@click.pass_context
def cmd_verify(ctx: click.Context, suite: str, n_max: int | None) -> None:
    """Run a verification suite; exit 1 if any check fails."""
    from . import verify

    names = (*verify.SUITES, "all")
    if suite not in names:
        raise click.BadParameter(
            f"{suite!r} is not one of {', '.join(map(repr, names))}.", param_hint="'--suite'"
        )
    results = verify.run_suite(suite, n_max)
    failures = 0
    for result in results:
        status = "pass" if result.ok else "FAIL"
        line = f"[{status}] {result.name}"
        if not result.ok:
            failures += 1
            if result.detail:
                line += f"  ({result.detail})"
        click.echo(line)
    click.echo(f"{len(results) - failures}/{len(results)} checks passed")
    if failures:
        ctx.exit(1)


if __name__ == "__main__":
    main()
