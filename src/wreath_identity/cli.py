"""Command-line front end: verify, table, figure, decompose.

Every command is deterministic: byte-identical output for identical
configuration (report timings are zeroed on emission for this reason).
Exit codes: 0 all checks pass, 1 a verified claim failed, 2 usage or
precondition error, 3 enumeration budget exceeded or coefficient overflow.
The environment variable WREATH_ID_THREADS caps worker threads for
independent verifier steps (0 = one per CPU).
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import os
import sys
from collections.abc import Callable, Sequence
from concurrent.futures import ThreadPoolExecutor

from .poly import CoefficientOverflowError
from .wreath import (
    BudgetExceededError,
    DEFAULT_BUDGET,
    EpsilonVector,
    check_group_order,
    col,
    des,
    descent_set,
    enumerate_group,
    g_epsilon,
    maj,
)
from .geometry import CubeSliceSpec, enumerate_slice, figure_grid
from .identity import (
    VerificationReport,
    descent_shift_check,
    verify_corollary,
    verify_lemma_same_support,
    verify_lemma_triple_preserving,
    verify_prop_few_colors,
    verify_theorem,
)

EXIT_PASS = 0
EXIT_CLAIM_FAILED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


class UsageError(ValueError):
    """Invalid flag combination or precondition violation (exit 2)."""


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """One command's validated parameters."""

    r: int
    n: int
    t_cap: int
    budget: int = DEFAULT_BUDGET
    format: str = "json"
    out: str | None = None
    k: int | None = None
    all_steps: bool = False
    filter_eps: str | None = None

    def __post_init__(self):
        if self.r < 1:
            raise UsageError(f"--r must be >= 1, got {self.r}")
        if self.n < 1:
            raise UsageError(f"--n must be >= 1, got {self.n}")
        if self.t_cap < 0:
            raise UsageError(f"--t-cap must be >= 0, got {self.t_cap}")
        if self.budget < 1:
            raise UsageError(f"--budget must be >= 1, got {self.budget}")
        if self.format not in ("json", "tsv"):
            raise UsageError(f"--format must be json or tsv, got {self.format!r}")
        if self.k is not None and self.k < 0:
            raise UsageError(f"--k must be >= 0, got {self.k}")

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> RunConfig:
        return cls(
            r=args.r,
            n=args.n,
            t_cap=args.t_cap if args.t_cap is not None else args.n + 3,
            budget=args.budget,
            format=args.format,
            out=args.out,
            k=getattr(args, "k", None),
            all_steps=getattr(args, "all_steps", False),
            filter_eps=getattr(args, "filter_eps", None),
        )


def worker_count() -> int:
    raw = os.environ.get("WREATH_ID_THREADS", "1")
    try:
        configured = int(raw)
    except ValueError:
        raise UsageError(f"WREATH_ID_THREADS must be an integer, got {raw!r}")
    if configured < 0:
        raise UsageError(f"WREATH_ID_THREADS must be >= 0, got {configured}")
    if configured == 0:
        return os.cpu_count() or 1
    return configured


def _run_tasks(
    tasks: list[Callable[[], VerificationReport]], workers: int
) -> list[VerificationReport]:
    if workers == 1 or len(tasks) <= 1:
        return [task() for task in tasks]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda task: task(), tasks))


# -- command implementations ---------------------------------------------------


def all_step_tasks(r, n, cap, budget) -> list[Callable[[], VerificationReport]]:
    tasks: list[Callable[[], VerificationReport]] = [
        lambda: verify_lemma_same_support(r, n, cap=cap, budget=budget)
    ]
    max_l = n if r >= 2 else 0
    for l in range(max_l + 1):
        tasks.append(lambda l=l: descent_shift_check(l, n))
    for l in range(max_l + 1):
        tasks.append(lambda l=l: verify_prop_few_colors(l, n, cap, budget))
    # One rearrangement pair per color multiset: lexicographic extremes.
    classes: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for colors in itertools.product(range(r), repeat=n):
        classes.setdefault(tuple(sorted(colors)), []).append(colors)
    for key in sorted(classes):
        group = classes[key]
        first, last = group[0], group[-1]
        tasks.append(
            lambda first=first, last=last: verify_lemma_triple_preserving(
                EpsilonVector(first), EpsilonVector(last)
            )
        )
    for colors in itertools.product(range(r), repeat=n):
        tasks.append(
            lambda colors=colors: verify_corollary(EpsilonVector(colors), cap, budget)
        )
    tasks.append(lambda: verify_theorem(r, n, cap, budget))
    return tasks


def cmd_verify(config: RunConfig) -> tuple[int, str]:
    workers = worker_count()
    # Every run ends with the theorem, which refuses a group of more than
    # budget elements; refuse before any other step does its work.
    check_group_order(config.r, config.n, config.budget)
    if config.all_steps:
        tasks = all_step_tasks(config.r, config.n, config.t_cap, config.budget)
    else:
        tasks = [lambda: verify_theorem(config.r, config.n, config.t_cap, config.budget)]
    reports = _run_tasks(tasks, workers)
    # Zero the timings: command output must be byte-identical across runs.
    reports = [dataclasses.replace(rep, elapsed_ms=0.0) for rep in reports]
    code = EXIT_PASS if all(rep.ok for rep in reports) else EXIT_CLAIM_FAILED
    if config.format == "json":
        text = json.dumps([rep.to_dict() for rep in reports], indent=2) + "\n"
    else:
        lines = ["claim\tstatus\tparams\tcounterexample\telapsed_ms"]
        for rep in reports:
            lines.append(
                "\t".join(
                    [
                        rep.claim,
                        rep.status,
                        json.dumps(rep.params, separators=(",", ":")),
                        json.dumps(rep.counterexample, separators=(",", ":")),
                        str(rep.elapsed_ms),
                    ]
                )
            )
        text = "\n".join(lines) + "\n"
    return code, text


def cmd_table(config: RunConfig) -> tuple[int, str]:
    if config.filter_eps is not None:
        colors = _parse_eps(config.filter_eps, config.r, config.n)
        check_group_order(1, config.n, config.budget)  # G_eps has n! windows
        elements = g_epsilon(EpsilonVector(colors))
    else:
        elements = enumerate_group(config.r, config.n, config.budget)
    rows = [
        {
            "window": w.window_str(),
            "Des": sorted(descent_set(w)),
            "maj": maj(w),
            "des": des(w),
            "col": col(w),
        }
        for w in elements
    ]
    if config.format == "json":
        text = json.dumps(rows, indent=2) + "\n"
    else:
        lines = ["window\tDes\tmaj\tdes\tcol"]
        for row in rows:
            lines.append(
                "\t".join(
                    [
                        row["window"],
                        json.dumps(row["Des"], separators=(",", ":")),
                        str(row["maj"]),
                        str(row["des"]),
                        str(row["col"]),
                    ]
                )
            )
        text = "\n".join(lines) + "\n"
    return EXIT_PASS, text


def cmd_figure(config: RunConfig) -> tuple[int, str]:
    if config.n != 2:
        raise UsageError(f"figure grids are only defined for n = 2, got n={config.n}")
    if (config.k * config.r + 1) ** 2 > config.budget:
        raise BudgetExceededError(
            f"grid of {(config.k * config.r + 1) ** 2} points exceeds budget {config.budget}"
        )
    grid = figure_grid(config.r, config.k)
    if config.format == "json":
        text = json.dumps(grid, indent=2) + "\n"
    else:
        lines = ["v1\tv2\tq\tu"]
        for cell in grid:
            lines.append(
                f"{cell['v'][0]}\t{cell['v'][1]}\t{cell['monomial']['q']}\t{cell['monomial']['u']}"
            )
        text = "\n".join(lines) + "\n"
    return EXIT_PASS, text


def cmd_decompose(config: RunConfig) -> tuple[int, str]:
    cells = []
    seen: dict[tuple[int, ...], tuple[int, ...]] = {}
    for colors in itertools.product(range(config.r), repeat=config.n):
        spec = CubeSliceSpec(EpsilonVector(colors), config.k)
        points = [p.v for p in enumerate_slice(spec, config.budget)]
        for v in points:
            if v in seen:
                raise RuntimeError(
                    f"cube decomposition violated: {v} in both {seen[v]} and {colors}"
                )
            seen[v] = colors
        cells.append({"eps": list(colors), "points": [list(v) for v in points]})
    expected = (config.k * config.r + 1) ** config.n
    if len(seen) != expected:
        raise RuntimeError(
            f"cube decomposition violated: {len(seen)} of {expected} points covered"
        )
    if config.format == "json":
        text = json.dumps(cells, indent=2) + "\n"
    else:
        lines = ["eps\tv"]
        for cell in cells:
            eps_text = ",".join(str(c) for c in cell["eps"])
            for v in cell["points"]:
                lines.append(eps_text + "\t" + ",".join(str(x) for x in v))
        text = "\n".join(lines) + "\n"
    return EXIT_PASS, text


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
        p.add_argument(
            "--budget",
            type=int,
            default=DEFAULT_BUDGET,
            help="max enumerated objects (default 10^7)",
        )
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


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_:  # argparse already printed the message
        return int(exit_.code or 0)
    try:
        config = RunConfig.from_args(args)
        code, text = args.run(config)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (BudgetExceededError, CoefficientOverflowError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_BUDGET
    if config.out is None:
        sys.stdout.write(text)
        return code
    try:
        with open(config.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as err:
        print(f"error: cannot write --out: {err}", file=sys.stderr)
        return EXIT_USAGE
    return code


if __name__ == "__main__":
    raise SystemExit(main())
