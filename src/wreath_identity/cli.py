"""Command-line front end: verify, table, figure, decompose.

Every command is deterministic: byte-identical output for identical
configuration (report timings are zeroed on emission for this reason).
Exit codes: 0 all checks pass, 1 a verified claim failed, 2 usage or
precondition error, 3 enumeration budget exceeded or coefficient overflow.
Every command is a fresh process, so a command imports
:mod:`~wreath_identity.geometry` and :mod:`~wreath_identity.identity` only
when it runs, after its up-front refusals: ``table`` and a refused
``verify`` compile neither, nor the polynomial kernel; ``figure`` and
``decompose`` compile ``geometry`` but not the kernel; and ``verify``
without ``--all-steps`` never compiles ``geometry``.  A name is read from
its module at call time, so a wrapper or test double set on that module
takes effect.

Every command writes its rows between the text of :func:`_layout`, and
every JSON row, or its ``%`` template, comes from the one writer
:func:`_indented`: ``verify`` writes each report's record, and ``table``,
``figure`` and ``decompose`` fill one template per record shape.
"""

from __future__ import annotations

import argparse
import itertools
import json
import operator
import sys
from collections.abc import Iterable, Sequence
from json.encoder import encode_basestring_ascii

from .errors import CoefficientOverflowError
from .wreath import (
    BudgetExceededError,
    DEFAULT_BUDGET,
    ColoredPermutation,
    EpsilonVector,
    check_count,
    check_group_order,
    color_classes,
    descent_set,
    few_colors_range,
)
from .wreath import col, des, maj  # noqa: F401  unused; benchmark/traced_child.py wraps them here

EXIT_PASS = 0
EXIT_CLAIM_FAILED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


class UsageError(ValueError):
    """Invalid flag combination or precondition violation (exit 2)."""


class ClaimFailedError(RuntimeError):
    """A checked claim that has no report to carry its failure (exit 1)."""


# -- command implementations ---------------------------------------------------


def _compact(value) -> str:
    return json.dumps(value, separators=(",", ":"))


class _Raw(str):
    """Text that :func:`_indented` writes as it stands: a template's own text."""


_INT = _Raw("%d")  # one int field of a template


def _indented(value, pad: str) -> str:
    r"""``value`` as ``json.dumps(value, indent=2)`` prints it, nested at ``pad``.

    ``pad`` is a newline followed by the indentation of the line that holds
    ``value``: a row of :func:`_layout` is at ``sep[1:]``.  Dict keys must
    be strings.  Each dict and list is one join over its items, and
    strings and ints are formatted here; any other scalar (bool, None,
    float) goes to ``json.dumps``.  ``type(value) is int`` keeps a bool from
    printing as 1.  A :class:`_Raw` text is written as it is, so
    ``_indented`` of a record that holds :data:`_INT` for each int is the
    ``%`` template of every record of that shape.  A ``%s`` field takes any
    text, even ``"%s"``: ``table`` fills its template in two steps.

    >>> _indented({"Des": [0, 2], "ok": True, "x": None}, "\n")
    '{\n  "Des": [\n    0,\n    2\n  ],\n  "ok": true,\n  "x": null\n}'
    """
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return str(value)
    if kind is _Raw:
        return value
    inner = pad + "  "
    if isinstance(value, (list, tuple)):
        brackets, items = "[]", [_indented(item, inner) for item in value]
    elif isinstance(value, dict):
        brackets = "{}"
        items = [
            encode_basestring_ascii(key) + ": " + _indented(item, inner)
            for key, item in value.items()
        ]
    else:
        return json.dumps(value)
    if not items:
        return brackets
    return brackets[0] + inner + ("," + inner).join(items) + pad + brackets[1]


def _tsv_line(fields: Sequence) -> str:
    return "\t".join(map(str, fields)) + "\n"


def _layout(fmt: str, header: Sequence[str]) -> tuple[str, str, str]:
    """The text before the first row, between two rows and after the last.

    Every command writes ``head + sep.join(rows) + tail``: in JSON the
    brackets of the top-level list, whose items are rows at pad ``sep[1:]``
    (there is at least one row), so the text is ``json.dumps(rows,
    indent=2)``; in TSV the header line, and rows that are whole lines.
    """
    if fmt == "json":
        head, sep, tail = _indented([_INT] * 2, "\n").split(_INT)
        return head, sep, tail + "\n"
    return _tsv_line(header), "", ""


def all_step_reports(r, n, cap, budget) -> list[VerificationReport]:
    from .identity import (
        descent_shift_check,
        verify_corollary,
        verify_lemma_same_support,
        verify_lemma_triple_preserving,
        verify_prop_few_colors,
        verify_theorem,
    )

    reports = [verify_lemma_same_support(r, n, cap=cap, budget=budget)]
    reports += [descent_shift_check(l, n) for l in few_colors_range(r, n)]
    reports += [verify_prop_few_colors(l, n, cap, budget) for l in few_colors_range(r, n)]
    # One rearrangement pair per color multiset: lexicographic extremes.
    for group in color_classes(r, n, lambda colors: tuple(sorted(colors))):
        reports.append(
            verify_lemma_triple_preserving(EpsilonVector(group[0]), EpsilonVector(group[-1]))
        )
    for colors in itertools.product(range(r), repeat=n):
        reports.append(verify_corollary(EpsilonVector(colors), cap, budget))
    reports.append(verify_theorem(r, n, cap, budget))
    return reports


def cmd_verify(args: argparse.Namespace) -> tuple[int, str]:
    # Every run ends with the theorem, which refuses a group of more than
    # budget elements, and every all-steps run sums the cone of a cube up
    # to height t_cap (the l = 0 few-colors cube, at least); refuse before
    # any step does its work.
    check_group_order(args.r, args.n, args.budget)
    if args.all_steps:
        from .geometry import check_cone_budget

        check_cone_budget(args.n, args.t_cap, args.budget)
        reports = all_step_reports(args.r, args.n, args.t_cap, args.budget)
    else:
        from .identity import verify_theorem

        reports = [verify_theorem(args.r, args.n, args.t_cap, args.budget)]
    code = EXIT_PASS if all(rep.ok for rep in reports) else EXIT_CLAIM_FAILED
    # Zero the timings: command output must be byte-identical across runs.
    records = [dict(rep.to_dict(), elapsed_ms=0.0) for rep in reports]
    header = ("claim", "status", "params", "counterexample", "elapsed_ms")
    head, sep, tail = _layout(args.format, header)
    if args.format == "json":
        rows = map(_indented, records, itertools.repeat(sep[1:]))
    else:  # params and counterexample as compact JSON
        text = {"params": _compact, "counterexample": _compact}
        rows = (_tsv_line([text.get(key, str)(d[key]) for key in header]) for d in records)
    return code, head + sep.join(rows) + tail


# The pad, then the slots: ASCII characters that no table text holds, controls
# first.  str.translate keeps to its fast path from ASCII to ASCII.
_TABLE_CHARS = '\t\n "[]{}:,^0123456789Dacdeijlmnosw'
_PAD, *_SLOTS = (c for c in map(chr, [*range(32), 127, *range(33, 127)]) if c not in _TABLE_CHARS)


def _table_text(fmt: str, r: int, n: int, perms: Iterable[tuple[int, ...]], eps=None) -> str:
    """The rows of each pi of ``perms``: every color vector, or ``eps``'s colors.

    Under :func:`bz_sort_key` position 0 descends exactly when the first
    support bit is 1, and a position i >= 1 depends only on the support bits
    at i and i+1 and on whether pi(i) > pi(i+1): on 0,0 it descends iff
    pi(i) > pi(i+1), on 1,1 iff pi(i) < pi(i+1), on 0,1 always and on 1,0
    never.  So the windows pi^support of every pi with one descent pattern
    share a descent set.  A block, the rows of one pattern (and support,
    under ``eps``), is filled in two steps: once per distinct support, one
    ``descent_set`` call fills the Des, maj and des fields of the row
    template, which leaves the window and col fields; once per row, ``%``
    fills those.  A window's letters (and colors) are slots, so pi's rows
    are one ``str.translate`` of its block.  A field has one slot per digit
    of its widest value, padded on the left, and one ``str.replace`` strips
    the pad.  A window's text holds only digits, "^", spaces and brackets,
    which JSON leaves as is.
    """
    head, sep, tail = _layout(fmt, ("window", "Des", "maj", "des", "col"))
    if fmt == "json":
        fields = dict.fromkeys(("Des", "maj", "des", "col"), _Raw("%s"))
        row = _indented({"window": _Raw('"[%s]"'), **fields}, sep[1:])
    else:
        row = _tsv_line(["[%s]", "[%s]", _INT, _INT, "%s"])

    def row_of(pi: tuple[int, ...], support: tuple[int, ...]) -> str:
        """The row template of pi^support, with only its window and col fields left."""
        descents = sorted(descent_set(ColoredPermutation._trusted(pi, support)))
        if fmt == "json":
            text = _indented(descents, sep[1:] + "  ")
        else:
            # Not _compact: a json.dumps per support makes table about 30% slower.
            text = ",".join(map(str, descents))
        return row % ("%s", text, sum(descents), len(descents), "%s")

    wl, wc = len(str(n)), 0 if eps is None else len(str(max(eps)))
    slots = "".join(_SLOTS[: n * (wl + wc)])
    chunks = [slots[i : i + wl + wc] for i in range(0, len(slots), wl + wc)]
    digits = [str(v).rjust(wl, _PAD) for v in range(n + 1)]
    if eps is None:
        colors = [list(map(str, range(r)))] * n
        supports = list(itertools.product([min(c, 1) for c in range(r)], repeat=n))
        cols = list(map(str, map(sum, itertools.product(range(r), repeat=n))))
    else:
        colors = [[chunk[wl:]] for chunk in chunks]
        digits = [d + str(c).rjust(wc, _PAD) for d, c in zip(digits, (0, *eps))]
        positive, cols = [0, *(min(c, 1) for c in eps)], [str(sum(eps))]
    tokens = ([f"{chunk[:wl]}^{c}" for c in choices] for chunk, choices in zip(chunks, colors))
    windows = list(map(" ".join, itertools.product(*tokens)))
    blocks: dict[tuple, str] = {}
    parts = [head]
    for pi in perms:
        key = tuple(map(operator.gt, pi, pi[1:]))
        if eps is not None:
            supports = [tuple(map(positive.__getitem__, pi))]
            key += supports[0]
        block = blocks.get(key)
        if block is None:
            rows = {support: row_of(pi, support) for support in dict.fromkeys(supports)}
            filled = zip(map(rows.__getitem__, supports), zip(windows, cols))
            block = blocks[key] = sep.join(itertools.starmap(str.__mod__, filled))
        parts += block.translate(str.maketrans(slots, "".join(map(digits.__getitem__, pi)))), sep
    parts[-1] = tail
    blocks.clear()
    text = "".join(parts)
    parts.clear()  # no third copy of the output
    return text.replace(_PAD, "") if max(wl, wc) > 1 else text


def cmd_table(args: argparse.Namespace) -> tuple[int, str]:
    """One row per window pi^colors: pi in lexicographic order, then the colors."""
    eps = None if args.filter_eps is None else _parse_eps(args.filter_eps, args.r, args.n)
    check_group_order(args.r if eps is None else 1, args.n, args.budget)  # G_eps: n! windows
    perms = itertools.permutations(range(1, args.n + 1))
    return EXIT_PASS, _table_text(args.format, args.r, args.n, perms, eps)


def cmd_figure(args: argparse.Namespace) -> tuple[int, str]:
    """The n = 2 grid of point weights: one template of kr + 1 cells per grid row."""
    if args.n != 2:
        raise UsageError(f"figure grids are only defined for n = 2, got n={args.n}")
    from .geometry import check_grid_budget, figure_rows

    check_grid_budget(args.r, args.n, args.k, args.budget)
    head, sep, tail = _layout(args.format, ("v1", "v2", "q", "u"))
    if args.format == "json":
        cell = _indented({"v": [_INT] * 2, "monomial": {"q": _INT, "u": _INT}}, sep[1:])
    else:
        cell = _tsv_line([_INT] * 4)
    row = sep.join([cell] * (args.k * args.r + 1))
    return EXIT_PASS, head + sep.join(map(row.__mod__, figure_rows(args.r, args.k))) + tail


def cmd_decompose(args: argparse.Namespace) -> tuple[int, str]:
    """One cell per color vector: its JSON record, or one TSV line per point, is one template."""
    from .geometry import CubeSliceSpec, check_grid_budget, enumerate_slice

    expected = check_grid_budget(args.r, args.n, args.k, args.budget)
    # One cell per color vector; for k >= 1 the grid count already exceeds r^n.
    cubes = itertools.repeat(args.r, args.n)
    check_count("cube count {}", cubes, f"{args.r}^{args.n}", args.budget)
    cells = []
    seen: dict[tuple[int, ...], tuple[int, ...]] = {}
    for colors in itertools.product(range(args.r), repeat=args.n):
        spec = CubeSliceSpec(EpsilonVector(colors), args.k)
        points = list(map(operator.attrgetter("v"), enumerate_slice(spec, args.budget)))
        for v in points:
            if v in seen:
                raise ClaimFailedError(
                    f"cube decomposition violated: {v} in both {seen[v]} and {colors}"
                )
            seen[v] = colors
        cells.append((colors, points))
    if len(seen) != expected:
        raise ClaimFailedError(
            f"cube decomposition violated: {len(seen)} of {expected} points covered"
        )
    head, sep, tail = _layout(args.format, ("eps", "v"))
    if args.format == "json":
        # A point is an item of a cell's "points" list, two levels below the cell.
        point = _Raw(_indented([_INT] * args.n, sep[1:] + "    "))
        records = (
            {"eps": list(colors), "points": [point] * len(points)} for colors, points in cells
        )
        templates = map(_indented, records, itertools.repeat(sep[1:]))
    else:
        point = ",".join([_INT] * args.n)
        templates = (_tsv_line([",".join(map(str, c)), point]) * len(p) for c, p in cells)
    values = (tuple(itertools.chain.from_iterable(points)) for _, points in cells)
    return EXIT_PASS, head + sep.join(map(str.__mod__, templates, values)) + tail


# -- argument handling ----------------------------------------------------------


def _parse_eps(text: str, r: int, n: int) -> tuple[int, ...]:
    try:
        colors = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise UsageError(f"--filter-eps must be comma-separated integers, got {text!r}")
    if len(colors) != n:
        raise UsageError(f"--filter-eps needs {n} entries, got {len(colors)}")
    if any(not 0 <= c <= r - 1 for c in colors):
        raise UsageError(f"--filter-eps colors must lie in [0, {r - 1}], got {text!r}")
    return colors


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wreath-id",
        description="Exact verification of a colored-permutation descent identity.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_k=False):
        p.add_argument("--r", type=int, required=True, help="number of colors (>= 1)")
        p.add_argument("--n", type=int, required=True, help="number of letters (>= 1)")
        p.add_argument("--t-cap", type=int, default=None, help="t-degree cap (default n+3)")
        budget = "max enumerated objects (default 10^7)"
        p.add_argument("--budget", type=int, default=DEFAULT_BUDGET, help=budget)
        p.add_argument("--format", choices=("json", "tsv"), default="json")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        if with_k:
            p.add_argument("--k", type=int, required=True, help="slice height (>= 0)")

    p_verify = sub.add_parser("verify", help="run the identity verifier(s)")
    add_common(p_verify)
    p_verify.add_argument(
        "--all-steps",
        action="store_true",
        help="also verify every intermediate lemma/proposition/corollary step",
    )
    p_verify.set_defaults(run=cmd_verify)

    p_table = sub.add_parser("table", help="tabulate Des/maj/des/col per element")
    add_common(p_table)
    p_table.add_argument(
        "--filter-eps",
        default=None,
        help="comma-separated letter colors: restrict to the windows fixing them",
    )
    p_table.set_defaults(run=cmd_table)

    p_figure = sub.add_parser("figure", help="dump the n=2 grid of t-free point weights")
    add_common(p_figure, with_k=True)
    p_figure.set_defaults(run=cmd_figure)

    p_decompose = sub.add_parser(
        "decompose", help="split a height-k slice into its half-open cube cells"
    )
    add_common(p_decompose, with_k=True)
    p_decompose.set_defaults(run=cmd_decompose)

    return parser


def _validated(args: argparse.Namespace) -> argparse.Namespace:
    """Range-check the parsed flags in order; ``t_cap`` defaults to n + 3.

    ``k`` is checked only for the commands that define it.
    """
    if args.r < 1:
        raise UsageError(f"--r must be >= 1, got {args.r}")
    if args.n < 1:
        raise UsageError(f"--n must be >= 1, got {args.n}")
    if args.t_cap is None:
        args.t_cap = args.n + 3
    if args.t_cap < 0:
        raise UsageError(f"--t-cap must be >= 0, got {args.t_cap}")
    if args.budget < 1:
        raise UsageError(f"--budget must be >= 1, got {args.budget}")
    if "k" in args and args.k < 0:
        raise UsageError(f"--k must be >= 0, got {args.k}")
    return args


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_:  # argparse already printed the message
        return int(exit_.code or 0)
    try:
        code, text = args.run(_validated(args))
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except ClaimFailedError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CLAIM_FAILED
    except (BudgetExceededError, CoefficientOverflowError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_BUDGET
    if args.out is None:
        sys.stdout.write(text)
        return code
    try:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as err:
        print(f"error: cannot write --out: {err}", file=sys.stderr)
        return EXIT_USAGE
    return code


if __name__ == "__main__":
    raise SystemExit(main())
