"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.  All comparisons are exact; there are no tolerances.
"""

import itertools
import json
import time

from wreath_identity.poly import (
    Monomial,
    TruncatedPoly,
    expand_denominator,
    lhs_term,
)
from wreath_identity.wreath import (
    ColoredPermutation,
    EpsilonVector,
    descent_set,
    g_epsilon,
    group_order,
    numerator,
)
from wreath_identity.geometry import find_simplex, CubeSliceSpec, slice_membership, LatticePoint
from wreath_identity.identity import (
    composition_to_partition,
    descent_shift_check,
    omega_map,
    verify_lemma_same_support,
    verify_lemma_triple_preserving,
    verify_prop_few_colors,
    verify_theorem,
)
from wreath_identity.cli import main

from golden import DES_101, DES_110, FIGURE_R2_K1, FIGURE_R2_K2, OMEGA_IMAGES, OMEGA_LETTERS

THEOREM_GRID = [(r, n) for r in (1, 2, 3) for n in (1, 2, 3, 4)]


def conclude(label, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"acceptance {label}: {status}")
    assert not failures, failures[:5]


def test_criterion_1_theorem_end_to_end():
    failures = []
    started = time.perf_counter()
    for r, n in THEOREM_GRID:
        report = verify_theorem(r, n, cap=n + 3)
        if not report.ok:
            failures.append(report.to_dict())
    elapsed = time.perf_counter() - started
    if elapsed >= 60.0:
        failures.append(f"theorem grid took {elapsed:.1f}s, budget is 60s")
    conclude("1 (theorem, all r<=3 n<=4)", failures)


def test_criterion_2_figure_goldens(capsys):
    failures = []
    for k, golden in ((1, FIGURE_R2_K1), (2, FIGURE_R2_K2)):
        code = main(["figure", "--r", "2", "--n", "2", "--k", str(k)])
        out = capsys.readouterr().out
        if code != 0:
            failures.append(f"figure k={k} exited {code}")
            continue
        got = {
            tuple(cell["v"]): (cell["monomial"]["q"], cell["monomial"]["u"])
            for cell in json.loads(out)
        }
        if got != golden:
            diff = {v: (got.get(v), golden.get(v)) for v in set(got) | set(golden)
                    if got.get(v) != golden.get(v)}
            failures.append(f"figure k={k} mismatches: {diff}")
    conclude("2 (figure grids 3x3 and 5x5)", failures)


def test_criterion_3_worked_example_goldens():
    failures = []
    for table, eps in ((DES_101, (1, 0, 1)), (DES_110, (1, 1, 0))):
        windows = {w.window_str(): w for w in g_epsilon(EpsilonVector(eps))}
        if set(windows) != set(table):
            failures.append(f"G_{eps} listing mismatch")
        for text, expected in table.items():
            got = descent_set(ColoredPermutation.parse(text))
            if got != expected:
                failures.append(f"Des {text}: got {sorted(got)}, want {sorted(expected)}")
    eps, zeta = EpsilonVector((1, 0, 1)), EpsilonVector((1, 1, 0))
    for source, target in OMEGA_IMAGES.items():
        w = ColoredPermutation.parse(source)
        image = omega_map(eps, zeta, w)
        if image.window_str() != target:
            failures.append(f"omega image of {source}: got {image.window_str()}")
        if descent_set(image) != descent_set(w):
            failures.append(f"omega broke descents of {source}")
        for (v, c), (v2, c2) in OMEGA_LETTERS.items():
            positions = [i for i, (pv, pc) in enumerate(zip(w.pi, w.colors)) if (pv, pc) == (v, c)]
            for i in positions:
                if (image.pi[i], image.colors[i]) != (v2, c2):
                    failures.append(f"omega({v}^{c}) != {v2}^{c2} inside {source}")
    conclude("3 (worked-example descent/omega tables)", failures)


def test_criterion_4_same_support():
    failures = []
    for r in (1, 2, 3):
        for n in (1, 2, 3, 4):
            report = verify_lemma_same_support(r, n, cap=5)
            if not report.ok:
                failures.append(report.to_dict())
    conclude("4 (same-support descents and shifted cone sums)", failures)


def test_criterion_5_few_colors_cone_sums():
    failures = []
    for n in (1, 2, 3, 4):
        for l in range(n + 1):
            report = verify_prop_few_colors(l, n, cap=n + 3)
            if not report.ok:
                failures.append(report.to_dict())
    conclude("5 (leading-ones cone sums, three ways)", failures)


def bounded_partitions(bound, n):
    return {
        parts
        for parts in itertools.product(range(bound + 1), repeat=n)
        if all(a >= b for a, b in zip(parts, parts[1:]))
    }


def test_criterion_6_composition_bijection():
    failures = []
    for n in (1, 2, 3, 4):
        for l in range(n + 1):
            for k in range(5):
                if l >= 1 and k == 0:
                    continue  # no compositions fit a negative first bound
                ranges = [range(k)] * l + [range(k + 1)] * (n - l)
                seen_pairs = set()
                by_window = {}
                for alpha in itertools.product(*ranges):
                    try:
                        lam, w = composition_to_partition(alpha, k, l, n)
                    except (RuntimeError, ValueError) as err:
                        failures.append(f"alpha={alpha} k={k} l={l} n={n}: {err}")
                        continue
                    d = descent_set(w)
                    if sum(lam.parts) != sum(alpha) - sum(d):
                        failures.append(f"sum rule broken at alpha={alpha} k={k} l={l}")
                    if lam.parts and lam.parts[0] > k - len(d):
                        failures.append(f"part bound broken at alpha={alpha} k={k} l={l}")
                    key = (w.pi, lam.parts)
                    if key in seen_pairs:
                        failures.append(f"collision at alpha={alpha} k={k} l={l}")
                    seen_pairs.add(key)
                    by_window.setdefault(w, set()).add(lam.parts)
                for w in g_epsilon(EpsilonVector((1,) * l + (0,) * (n - l))):
                    bound = k - len(descent_set(w))
                    expected = bounded_partitions(bound, n) if bound >= 0 else set()
                    if by_window.get(w, set()) != expected:
                        failures.append(
                            f"image of {w.window_str()} at k={k} l={l} n={n} "
                            f"is not every partition bounded by {bound}"
                        )
    for n in (1, 2, 3, 4):
        for l in range(n + 1):
            report = descent_shift_check(l, n)
            if not report.ok:
                failures.append(report.to_dict())
    conclude("6 (composition-to-partition bijection)", failures)


def test_criterion_7_relabeling_bijection():
    failures = []
    for r in (1, 2, 3):
        for n in (1, 2, 3, 4):
            classes = {}
            for colors in itertools.product(range(r), repeat=n):
                classes.setdefault(tuple(sorted(colors)), []).append(colors)
            for group in classes.values():
                for e1 in group:
                    for e2 in group:
                        report = verify_lemma_triple_preserving(
                            EpsilonVector(e1), EpsilonVector(e2)
                        )
                        if not report.ok:
                            failures.append(report.to_dict())
    conclude("7 (order-preserving relabeling, every rearrangement pair)", failures)


def test_criterion_8_decompositions_partition():
    failures = []
    for r in (1, 2, 3):
        for n in (1, 2, 3):
            for k in range(5):
                specs = [
                    CubeSliceSpec(EpsilonVector(eps), k)
                    for eps in itertools.product(range(r), repeat=n)
                ]
                for v in itertools.product(range(k * r + 1), repeat=n):
                    owners = sum(
                        1 for spec in specs if slice_membership(LatticePoint(v, k), spec)
                    )
                    if owners != 1:
                        failures.append(f"cube cover of {v} at r={r} n={n} k={k}: {owners}")
    for n in (1, 2, 3, 4, 5):
        for k in range(6):
            for alpha in itertools.product(range(k + 1), repeat=n):
                try:
                    find_simplex(alpha, k)
                except RuntimeError as err:
                    failures.append(str(err))
    conclude("8 (cube and simplex partitions)", failures)


def test_criterion_9_sanity_specializations():
    failures = []
    for r, n in THEOREM_GRID:
        if numerator(r, n).evaluate(q=1, t=1, u=1) != group_order(r, n):
            failures.append(f"numerator({r},{n}) at q=t=u=1 != {group_order(r, n)}")
    for n in (1, 2, 3, 4, 5):
        expected = {}
        for pi in itertools.permutations(range(1, n + 1)):
            d = {i for i in range(1, n) if pi[i - 1] > pi[i]}
            mon = Monomial(sum(d), len(d), 0)
            expected[mon] = expected.get(mon, 0) + 1
        if numerator(1, n) != TruncatedPoly(n, expected):
            failures.append(f"numerator(1,{n}) is not the plain-descent polynomial")
    for r, n in THEOREM_GRID:
        cap = n + 3
        lhs = TruncatedPoly.zero(cap)
        for k in range(cap + 1):
            lhs = lhs + lhs_term(r, n, k, cap)
        rhs = numerator(r, n, cap) * expand_denominator(n, cap)
        for k in range(5):
            want = (k * r + 1) ** n
            for name, side in (("lhs", lhs), ("rhs", rhs)):
                got = side.t_slice(k).evaluate(q=1, t=1, u=1)
                if got != want:
                    failures.append(
                        f"{name} t^{k} count at r={r} n={n}: got {got}, want {want}"
                    )
    conclude("9 (specialization sanity checks)", failures)
