"""Run one wreath-id invocation in this process under per-layer timing wrappers.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 benchmark/traced_child.py verify --r 2 --n 4

The wrappers are installed from outside the package: every public function
that :func:`install` names is replaced in each ``wreath_identity`` module
namespace that bound it (``identity`` and ``cli`` rebind names with
``from ... import``), and ``TruncatedPoly.__mul__``/``__rmul__`` are replaced
on the class.  Spans
are kept in memory as ``[name, start, end, parent]`` and summarised when the
invocation returns.  The command's stdout is captured, not printed; this
process prints one JSON object instead, with the command's exit code, the
sha256 and size of its stdout, per-span-name ``calls``/``busy_s``/``self_s``,
and the layer counters.
"""

from __future__ import annotations

import collections
import functools
import hashlib
import json
import math
import sys
import traceback
import types
from time import perf_counter

from wreath_identity import cli, geometry, identity, poly, wreath

EXIT_BUDGET = 3
VERIFIERS = (
    "verify_theorem",
    "verify_corollary",
    "verify_prop_few_colors",
    "verify_lemma_same_support",
    "verify_lemma_triple_preserving",
    "descent_shift_check",
)
WINDOW_STATS = ("descent_set", "maj", "des", "col")
CMDS = ("cmd_verify", "cmd_table", "cmd_figure", "cmd_decompose")


class Tracer:
    """In-memory span recorder plus the layer counters."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._stack: list[int] = []
        self.counters: collections.Counter = collections.Counter()
        self.cone_keys: set = set()

    def wrap(self, name, fn, after=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index][1:3] = start, end
            # Counters are taken outside the span so they add no busy time.
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def patch(self, owner, attr, name, after=None, namespaces=None):
        """Replace owner.attr by a traced wrapper wherever that object is bound."""
        original = getattr(owner, attr)
        wrapper = self.wrap(name, original, after)
        if namespaces is None:
            namespaces = [
                module
                for key, module in sys.modules.items()
                if key == "wreath_identity" or key.startswith("wreath_identity.")
            ]
        bound = 0
        for namespace in namespaces:
            for key, value in list(vars(namespace).items()):
                if value is original:
                    setattr(namespace, key, wrapper)
                    bound += 1
        if not bound:
            raise RuntimeError(f"{attr} is bound nowhere; the layer map is stale")

    def summary(self) -> dict:
        """Per span name: calls, busy_s (outermost spans of that name) and self_s."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, dict] = {}
        for index, (name, start, end, parent) in enumerate(spans):
            entry = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += end - start - covered[index]
            while parent >= 0 and spans[parent][0] != name:
                parent = spans[parent][3]
            if parent < 0:
                entry["busy_s"] += end - start
        return out


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def install(tracer: Tracer) -> None:
    counters = tracer.counters

    def count_group(args, kwargs, result):
        r, n = _arg(args, kwargs, 0, "r"), _arg(args, kwargs, 1, "n")
        counters["group_elements"] += r**n * math.factorial(n)

    def count_mul(args, kwargs, result):
        if result is NotImplemented:
            return
        left, right = args
        sizes = (len(left.terms), len(right.terms) if isinstance(right, poly.TruncatedPoly) else 1)
        product = result.terms
        counters["term_pairs"] += sizes[0] * sizes[1]
        counters["max_terms"] = max(counters["max_terms"], *sizes, len(product))
        if product:
            largest = max(abs(c) for c in product.values())
            counters["max_abs_coeff"] = max(counters["max_abs_coeff"], largest)

    def count_cone(args, kwargs, result):
        eps, cap = _arg(args, kwargs, 0, "eps"), _arg(args, kwargs, 1, "cap")
        tracer.cone_keys.add((eps.colors, cap))

    def count_slice(args, kwargs, result):
        spec = _arg(args, kwargs, 0, "spec")
        s = sum(1 for c in spec.eps.colors if c > 0)
        counters["lattice_points"] += spec.k**s * (spec.k + 1) ** (spec.eps.n - s)

    def count_refusal(args, kwargs, result):
        counters["budget_refusals"] += result == EXIT_BUDGET

    tracer.patch(wreath, "numerator", "wreath.numerator", count_group)
    for attr in WINDOW_STATS:  # only the calls cli makes for table rows
        tracer.patch(cli, attr, "wreath.window_stats", namespaces=[cli])
    mul = poly.TruncatedPoly.__mul__
    traced_mul = tracer.wrap("poly.mul", mul, count_mul)
    for attr in ("__mul__", "__rmul__"):
        if vars(poly.TruncatedPoly)[attr] is not mul:
            raise RuntimeError(f"TruncatedPoly.{attr} is no longer __mul__")
        setattr(poly.TruncatedPoly, attr, traced_mul)
    for attr in ("lhs_term", "expand_denominator", "first_difference"):
        tracer.patch(poly, attr, f"poly.{attr}")
    tracer.patch(geometry, "cone_sum", "geometry.cone_sum", count_cone)
    tracer.patch(geometry, "enumerate_slice", "geometry.enumerate_slice", count_slice)
    tracer.patch(geometry, "figure_grid", "geometry.figure_grid")
    for attr in VERIFIERS + ("g_epsilon_gf",):
        tracer.patch(identity, attr, f"identity.{attr}")
    for attr in CMDS:
        tracer.patch(cli, attr, "cli.cmd", namespaces=[cli])
    tracer.patch(cli, "main", "cli.main", count_refusal, namespaces=[cli])
    cli.json = types.SimpleNamespace(dumps=tracer.wrap("cli.emit", json.dumps))


class CapturedStdout:
    """Collects what the command writes to stdout."""

    def __init__(self):
        self.parts: list[str] = []

    def write(self, text: str) -> int:
        self.parts.append(text)
        return len(text)

    def flush(self) -> None:
        pass


def main(argv: list[str]) -> int:
    tracer = Tracer()
    install(tracer)
    captured = CapturedStdout()
    captured.write = tracer.wrap("cli.emit", captured.write)
    real_stdout, sys.stdout = sys.stdout, captured
    try:
        code = cli.main(argv)
    except Exception:  # an uncaught error exits 1 in the untraced command too
        traceback.print_exc()
        code = 1
    finally:
        sys.stdout = real_stdout
    data = "".join(captured.parts).encode("utf-8")
    counters = dict(tracer.counters)
    counters["cone_sum_distinct"] = len(tracer.cone_keys)
    record = {
        "exit": code,
        "sha256": hashlib.sha256(data).hexdigest(),
        "bytes": len(data),
        "spans": tracer.summary(),
        "counters": counters,
    }
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
