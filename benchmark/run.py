#!/usr/bin/env python3
"""Benchmark of the wreath-id command line.

Run from the repository root; it needs nothing but ``src/`` and this
directory::

    python3 benchmark/run.py --workload verify --seed 1 --seconds 30 --trace 0
    python3 benchmark/run.py --workload all --seed 1 --seconds 30 --trace 1

Load shape: a closed loop with one client.  This process runs one CLI
child at a time, each a fresh ``python3 -m wreath_identity`` process whose
stdout is drained through a pipe.  A pass runs every case of the workload
once, in an order drawn from ``--seed``; a new pass starts only while at
least half of it can be expected to fit in ``--seconds``.  Every case's exit code and
stdout sha256 are checked against ``expected.json``, recorded from the
commit that introduced the benchmark.

``--trace 0`` reports the end-to-end metrics over the untraced passes.  After
each untraced case a kernel of ``reference.py`` runs on the same CPU, and the
mean pass time is reported as a multiple of the kernel's mean time: on a
shared host whose CPU speed drifts, that ratio holds where seconds do not.
``--trace 1`` alternates traced and untraced passes (at least two traced)
and reports the per-layer metrics; a traced case runs ``traced_child.py``,
which wraps the package's public functions from outside.  Every metric is
printed by name and unit, and the last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  See README.md for why
each workload exists and which metric each layer should move.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import operator
import os
import platform
import random
import selectors
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED = HERE / "expected.json"
TRACED_CHILD = HERE / "traced_child.py"
REFERENCE = HERE / "reference.py"
REFERENCE_CHECKSUMS = {
    "poly": b"9314065173107226\n",
    "group": b"6857460\n",
    "steps": b"51081918\n",
    "emit": b"951504\n",
}

# The whole run must end within three minutes; children share what is left.
RUN_DEADLINE_S = 170.0
SETUP_REPEATS = 11
SETUP_CODE = "from wreath_identity.cli import build_parser; build_parser()"


@dataclasses.dataclass(frozen=True)
class Workload:
    cases: tuple[str, ...]
    # The kernel of reference.py, run after each untraced case, that does
    # the kind of work that dominates this workload.
    reference: str
    # Per-layer counters that must be nonzero in every traced pass; a zero
    # means a wrapper no longer reaches its layer (a rename or re-import).
    must_trace: tuple[str, ...]


WORKLOADS = {
    # Brute-force group enumeration: the numerator is ~93% of each case.
    # The refusal case builds the LHS before the group-order check exits 3.
    "verify": Workload(
        cases=("verify --r 3 --n 6", "verify --r 4 --n 5", "verify --r 3 --n 7"),
        reference="group",
        must_trace=(
            "wreath.numerator.calls",
            "wreath.group_elements",
            "poly.mul.calls",
            "identity.verify_theorem.calls",
            "cli.budget_refusals",
        ),
    ),
    # Cone sums are ~82% of r=3 n=4; the tight budget exposes the unbudgeted
    # same-support descent loop, which runs ~3 s before exiting 3.
    "all-steps": Workload(
        cases=(
            "verify --all-steps --r 3 --n 4",
            "verify --all-steps --r 3 --n 5 --budget 1000",
        ),
        reference="steps",
        must_trace=(
            "geometry.cone_sum.calls",
            "geometry.lattice_points",
            "identity.verify_corollary.calls",
            "identity.verify_prop_few_colors.calls",
            "identity.verify_lemma_same_support.calls",
            "identity.verify_lemma_triple_preserving.calls",
            "identity.descent_shift_check.calls",
            "identity.verify_theorem.calls",
            "cli.budget_refusals",
        ),
    ),
    # A deep t-cap makes polynomial multiply ~83% of the time and the
    # numerator ~2%: it bypasses any numerator change.
    "deep-cap": Workload(
        cases=("verify --r 2 --n 5 --t-cap 30", "verify --r 3 --n 4 --t-cap 24"),
        reference="poly",
        must_trace=(
            "poly.mul.calls",
            "poly.mul.term_pairs",
            "poly.expand_denominator.calls",
            "wreath.numerator.calls",
        ),
    ),
    # The only large-output workload: both formats, per-element statistics,
    # the n=2 figure grid and a cube decomposition.
    "emit": Workload(
        cases=(
            "table --r 3 --n 5",
            "table --r 2 --n 6 --format tsv",
            "figure --r 4 --n 2 --k 25",
            "decompose --r 2 --n 4 --k 3",
        ),
        reference="emit",
        must_trace=(
            "wreath.window_stats.calls",
            "geometry.enumerate_slice.calls",
            "cli.bytes_out",
        ),
    ),
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_ref": "ref",
    "cpu_ref": "ref",
    "peak_rss_mib": "MiB",
    "ok_ratio": "ratio",
}

VERIFIERS = (
    "verify_theorem",
    "verify_corollary",
    "verify_prop_few_colors",
    "verify_lemma_same_support",
    "verify_lemma_triple_preserving",
    "descent_shift_check",
)

# Per-layer metric -> (unit, how it is read from the summed trace of a pass).
# Units "s" are times; every other unit is an exact count.
PER_LAYER = {
    "wreath.numerator.calls": ("count", ("calls", "wreath.numerator")),
    "wreath.numerator.busy_s": ("s", ("busy_s", "wreath.numerator")),
    "wreath.group_elements": ("count", ("counter", "group_elements")),
    "wreath.window_stats.calls": ("count", ("calls", "wreath.window_stats")),
    "wreath.window_stats.busy_s": ("s", ("busy_s", "wreath.window_stats")),
    "poly.mul.calls": ("count", ("calls", "poly.mul")),
    "poly.mul.busy_s": ("s", ("busy_s", "poly.mul")),
    "poly.mul.term_pairs": ("count", ("counter", "term_pairs")),
    "poly.max_terms": ("count", ("counter", "max_terms")),
    "poly.max_abs_coeff": ("count", ("counter", "max_abs_coeff")),
    "poly.lhs_term.busy_s": ("s", ("busy_s", "poly.lhs_term")),
    "poly.expand_denominator.calls": ("count", ("calls", "poly.expand_denominator")),
    "poly.expand_denominator.busy_s": ("s", ("busy_s", "poly.expand_denominator")),
    "poly.first_difference.busy_s": ("s", ("busy_s", "poly.first_difference")),
    "geometry.cone_sum.calls": ("count", ("calls", "geometry.cone_sum")),
    "geometry.cone_sum.busy_s": ("s", ("busy_s", "geometry.cone_sum")),
    "geometry.cone_sum.unique_ratio": ("ratio", ("unique_ratio", "geometry.cone_sum")),
    "geometry.lattice_points": ("count", ("counter", "lattice_points")),
    "geometry.enumerate_slice.calls": ("count", ("calls", "geometry.enumerate_slice")),
    "geometry.figure_grid.busy_s": ("s", ("busy_s", "geometry.figure_grid")),
    **{
        f"identity.{name}.{field}": (unit, (field, f"identity.{name}"))
        for name in VERIFIERS
        for field, unit in (("calls", "count"), ("self_s", "s"))
    },
    "identity.g_epsilon_gf.busy_s": ("s", ("busy_s", "identity.g_epsilon_gf")),
    "cli.cmd.busy_s": ("s", ("busy_s", "cli.cmd")),
    "cli.emit.busy_s": ("s", ("busy_s", "cli.emit")),
    "cli.bytes_out": ("bytes", ("counter", "bytes_out")),
    "cli.self_s": ("s", ("cli_self_s", None)),
    "cli.budget_refusals": ("count", ("counter", "budget_refusals")),
}
MAX_COUNTERS = ("max_terms", "max_abs_coeff")


class BenchmarkError(RuntimeError):
    """The benchmark cannot run or its own checks failed."""


@dataclasses.dataclass
class Child:
    code: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    cpu_s: float
    maxrss_mib: float


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "WREATH_ID_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    return env


class Runner:
    """Spawns one child at a time under a run-wide deadline."""

    def __init__(self):
        self.started = perf_counter()
        self.env = child_env()

    def remaining(self) -> float:
        return RUN_DEADLINE_S - (perf_counter() - self.started)

    def spawn(self, argv: list[str]) -> Child:
        start = perf_counter()
        with subprocess.Popen(
            argv, cwd=ROOT, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE
        ) as proc:
            try:
                out, err = _drain(proc, self.remaining())
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                raise
            proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(
            code=proc.returncode,
            stdout=out,
            stderr=err,
            wall_s=perf_counter() - start,
            cpu_s=usage.ru_utime + usage.ru_stime,
            maxrss_mib=usage.ru_maxrss / 1024.0,  # ru_maxrss is KiB on Linux
        )


def _drain(proc: subprocess.Popen, timeout: float) -> tuple[bytes, bytes]:
    """Read stdout and stderr to EOF without letting either pipe fill."""
    chunks: dict = {proc.stdout: [], proc.stderr: []}
    deadline = perf_counter() + timeout
    with selectors.DefaultSelector() as selector:
        for stream in chunks:
            selector.register(stream, selectors.EVENT_READ)
        while selector.get_map():
            left = deadline - perf_counter()
            if left <= 0:
                raise BenchmarkError(f"child {proc.args} passed the run deadline")
            for key, _ in selector.select(left):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    selector.unregister(key.fileobj)
    return b"".join(chunks[proc.stdout]), b"".join(chunks[proc.stderr])


def cli_argv(case: str) -> list[str]:
    return [sys.executable, "-m", "wreath_identity", *case.split()]


def check_case(case: str, code: int, stdout_sha: str, stdout: bytes | None, expected) -> str | None:
    """Why the case's result is wrong, or None when it matches the recording."""
    want = expected[case]
    if code != want["exit"]:
        return f"exit {code}, expected {want['exit']}"
    if stdout_sha != want["sha256"]:
        return f"stdout sha256 {stdout_sha[:16]}, expected {want['sha256'][:16]}"
    if stdout is not None and case.startswith("verify") and want["exit"] == 0:
        statuses = {report["status"] for report in json.loads(stdout)}
        if statuses != {"pass"}:
            return f"report statuses {sorted(statuses)}"
    return None


@dataclasses.dataclass
class Pass:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    ref_wall_s: float = 0.0
    ref_cpu_s: float = 0.0
    peak_rss_mib: float = 0.0
    attempted: int = 0
    failed: int = 0
    layers: dict | None = None


def untraced_pass(runner: Runner, cases: list[str], reference: str, expected) -> Pass:
    result = Pass()
    for case in cases:
        child = runner.spawn(cli_argv(case))
        result.wall_s += child.wall_s
        result.cpu_s += child.cpu_s
        result.peak_rss_mib = max(result.peak_rss_mib, child.maxrss_mib)
        result.attempted += 1
        sha = hashlib.sha256(child.stdout).hexdigest()
        problem = check_case(case, child.code, sha, child.stdout, expected)
        if problem:
            result.failed += 1
            print(f"FAIL {case}: {problem}\n{child.stderr.decode(errors='replace')}", file=sys.stderr)
        ref = runner.spawn([sys.executable, str(REFERENCE), reference])
        if ref.code != 0 or ref.stdout != REFERENCE_CHECKSUMS[reference]:
            raise BenchmarkError(f"reference kernel {reference} printed {ref.stdout!r}, exit {ref.code}")
        result.ref_wall_s += ref.wall_s
        result.ref_cpu_s += ref.cpu_s
    return result


def traced_pass(runner: Runner, cases: list[str], expected) -> Pass:
    result = Pass(layers={"spans": {}, "counters": {}})
    spans, counters = result.layers["spans"], result.layers["counters"]
    for case in cases:
        child = runner.spawn([sys.executable, str(TRACED_CHILD), *case.split()])
        result.wall_s += child.wall_s
        result.attempted += 1
        if child.code != 0:
            raise BenchmarkError(f"traced child failed on {case!r}:\n{child.stderr.decode()}")
        record = json.loads(child.stdout)
        problem = check_case(case, record["exit"], record["sha256"], None, expected)
        if problem:
            result.failed += 1
            print(f"FAIL traced {case}: {problem}\n{child.stderr.decode(errors='replace')}", file=sys.stderr)
        for name, entry in record["spans"].items():
            total = spans.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            for field, value in entry.items():
                total[field] += value
        record["counters"]["bytes_out"] = record["bytes"]
        for name, value in record["counters"].items():
            merge = max if name in MAX_COUNTERS else operator.add
            counters[name] = merge(counters.get(name, 0), value)
    return result


def layer_metrics(layers: dict) -> dict[str, float]:
    spans, counters = layers["spans"], layers["counters"]
    empty = {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
    values = {}
    for metric, (_, (kind, key)) in PER_LAYER.items():
        if kind == "counter":
            value = counters.get(key, 0)
        elif kind == "unique_ratio":
            calls = spans.get(key, empty)["calls"]
            value = counters.get("cone_sum_distinct", 0) / calls if calls else 0.0
        elif kind == "cli_self_s":
            value = sum(spans.get(name, empty)["self_s"] for name in ("cli.main", "cli.cmd"))
        else:
            value = spans.get(key, empty)[kind]
        values[metric] = value
    return values


def measure_setup(runner: Runner) -> list[float]:
    """Wall time of fresh processes that import the CLI and build its parser."""
    argv = [sys.executable, "-c", SETUP_CODE]
    times = []
    for attempt in range(SETUP_REPEATS + 1):
        child = runner.spawn(argv)
        if child.code != 0:
            raise BenchmarkError(f"set-up process failed:\n{child.stderr.decode()}")
        if attempt:  # the first one only warms the bytecode and file caches
            times.append(child.wall_s)
    return times


def run_workload(name: str, seed: int, seconds: float, trace: bool, expected) -> dict:
    workload = WORKLOADS[name]
    rng = random.Random(seed)
    runner = Runner()

    def order() -> list[str]:
        return rng.sample(workload.cases, len(workload.cases))

    setup = [] if trace else measure_setup(runner)
    untraced: list[Pass] = []
    traced: list[Pass] = []
    last_pass_s = 0.0
    start = perf_counter()
    # Start a pass only while at least half of it, judged by the last pass,
    # should fit in `seconds`: a run then lasts `seconds` give or take half
    # a pass, whatever the pass length.
    while perf_counter() - start + last_pass_s / 2 < seconds or (trace and len(traced) < 2) or not untraced:
        pass_start = perf_counter()
        if trace and len(traced) <= len(untraced):
            traced.append(traced_pass(runner, order(), expected))
        else:
            untraced.append(untraced_pass(runner, order(), workload.reference, expected))
        last_pass_s = perf_counter() - pass_start
    passes = untraced + traced
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    correct = failed == 0
    lines = [f"workload {name}: {len(untraced)} untraced and {len(traced)} traced passes "
             f"of {len(workload.cases)} cases; {failed} of {attempted} cases failed "
             f"(fail_ratio {failed / attempted})"]

    if not trace:
        # One reference kernel ran after each untraced case.
        kernel_runs = sum(p.attempted for p in untraced)
        wall_s = statistics.fmean(p.wall_s for p in untraced)
        cpu_s = statistics.fmean(p.cpu_s for p in untraced)
        kernel_wall_s = sum(p.ref_wall_s for p in untraced) / kernel_runs
        kernel_cpu_s = sum(p.ref_cpu_s for p in untraced) / kernel_runs
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_ref": wall_s / kernel_wall_s,
            "cpu_ref": cpu_s / kernel_cpu_s,
            "peak_rss_mib": statistics.median(p.peak_rss_mib for p in untraced),
            "ok_ratio": (attempted - failed) / attempted,
        }
        units = END_TO_END_UNITS
        lines.append(f"means over {len(untraced)} passes: wall_s {wall_s!r} s, cpu_s {cpu_s!r} s; "
                     f"reference kernel {workload.reference!r} over {kernel_runs} runs: "
                     f"wall {kernel_wall_s!r} s, cpu {kernel_cpu_s!r} s")
        lines.append(f"peak_rss_mib is a median over passes; setup_s a median over {len(setup)} processes")
        lines.append("  wall_s of each pass: " + " ".join(f"{p.wall_s:.3f}" for p in untraced))
    else:
        per_pass = [layer_metrics(p.layers) for p in traced]
        metrics = {}
        for metric, (unit, _) in PER_LAYER.items():
            values = [m[metric] for m in per_pass]
            metrics[metric] = statistics.median(values) if unit == "s" else values[0]
            if unit != "s" and len(set(values)) != 1:
                correct = False
                lines.append(f"EXACTNESS: {metric} differs across traced passes: {values}")
        metrics["trace.overhead_s"] = statistics.fmean(p.wall_s for p in traced) - statistics.fmean(
            p.wall_s for p in untraced
        )
        units = {metric: unit for metric, (unit, _) in PER_LAYER.items()}
        units["trace.overhead_s"] = "s"
        for metric in workload.must_trace:
            if not all(m[metric] for m in per_pass):
                raise BenchmarkError(
                    f"coverage guard: {metric} reads zero on workload {name}; "
                    "a wrapper in traced_child.py no longer reaches its layer"
                )
        lines.append(f"times are medians over {len(traced)} traced passes; counts must repeat exactly")
    for metric, value in metrics.items():
        lines.append(f"  {metric:<48} {value!r:>24} {units[metric]}")
    return {
        "lines": lines,
        "result": {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
        },
    }


def environment_line() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "wreath_identity").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        commit = (ROOT / ".git" / head[5:]).read_text().strip() if head.startswith("ref: ") else head
    except OSError:
        commit = "unknown (not a git checkout)"
    return (
        f"python {platform.python_version()}  nproc {os.cpu_count()}  "
        f"commit {commit}  src sha256 {digest.hexdigest()[:16]}"
    )


def record_expected() -> None:
    """Write expected.json from the program as it is now."""
    runner = Runner()
    recorded = {}
    for workload in WORKLOADS.values():
        for case in workload.cases:
            child = runner.spawn(cli_argv(case))
            recorded[case] = {
                "exit": child.code,
                "sha256": hashlib.sha256(child.stdout).hexdigest(),
                "bytes": len(child.stdout),
            }
    EXPECTED.write_text(json.dumps(recorded, indent=2) + "\n")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0, help="sets the case order in each pass")
    parser.add_argument("--seconds", type=float, default=30.0, help="how long to keep running passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="rewrite expected.json and exit")
    args = parser.parse_args(argv)
    if args.workload is None and not args.record:
        parser.error("--workload is required")
    return args


def main(argv=None) -> int:
    # Turn SIGTERM into SystemExit, so that Runner.spawn kills and reaps the
    # running child on that path out too.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    args = parse_args(argv)
    if not (SRC / "wreath_identity" / "cli.py").is_file():
        print(f"error: no wreath_identity sources under {SRC}", file=sys.stderr)
        return 2
    if args.record:
        record_expected()
        return 0
    expected = json.loads(EXPECTED.read_text())
    # Cases and reference kernels share one CPU (children inherit this):
    # on a shared host each vCPU changes speed on its own.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    print(environment_line())
    results = []
    try:
        for name in names:
            outcome = run_workload(name, args.seed, args.seconds, bool(args.trace), expected)
            print("\n".join(outcome["lines"]))
            results.append((name, outcome["result"]))
    except BenchmarkError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[0][1]
    else:
        for name, result in results:
            print(json.dumps({"workload": name, **result}))
        final = {
            "correct": all(r["correct"] for _, r in results),
            "attempted": sum(r["attempted"] for _, r in results),
            "failed": sum(r["failed"] for _, r in results),
            "metrics": {f"{n}.{m}": v for n, r in results for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
