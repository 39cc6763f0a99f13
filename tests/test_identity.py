import collections
import itertools
import json
import math
import operator
import sys
import time

import pytest

from wreath_identity import geometry, identity, poly, wreath
from wreath_identity.poly import (
    CoefficientOverflowError,
    Monomial,
    TruncatedPoly,
    compare_product,
    expand_denominator,
    first_difference,
    lhs_term,
    q_integer,
)
from wreath_identity.wreath import (
    BudgetExceededError,
    ColoredPermutation,
    EpsilonVector,
    descent_set,
    g_epsilon,
    maj,
    numerator,
)
from wreath_identity.cli import all_step_reports
from wreath_identity.geometry import find_simplex
from wreath_identity.identity import (
    Partition,
    VerificationReport,
    check_composition,
    compose,
    composition_to_partition,
    descent_shift_check,
    find_pi_for_composition,
    g_epsilon_gf,
    omega_map,
    report_from_comparison,
    rho,
    verify_corollary,
    verify_lemma_same_support,
    verify_lemma_triple_preserving,
    verify_prop_few_colors,
    verify_theorem,
)

from golden import DES_101, DESCENT_SHIFT_110, OMEGA_IMAGES, OMEGA_LETTERS, clear_caches


def window(text):
    return ColoredPermutation.parse(text)


# -- rho and the descent shift ---------------------------------------------------


def test_rho_examples():
    assert rho(2, 3) == (2, 1, 3)
    assert rho(0, 4) == (1, 2, 3, 4)
    assert rho(3, 3) == (3, 2, 1)


def test_rho_is_an_involution():
    for n in range(1, 6):
        for l in range(n + 1):
            p = rho(l, n)
            assert compose(p, p) == tuple(range(1, n + 1))


def test_rho_bounds():
    with pytest.raises(ValueError):
        rho(4, 3)
    with pytest.raises(ValueError):
        rho(-1, 3)


def test_descent_shift_golden_correspondence():
    # For letter colors (1,1,0): Des(window) = Des(rho o pi), plus {0}
    # exactly when the leading letter is colored.
    eps = EpsilonVector((1, 1, 0))
    rho_perm = rho(2, 3)
    seen = set()
    for pi in itertools.permutations((1, 2, 3)):
        w = ColoredPermutation(pi, tuple(eps.color_of(v) for v in pi))
        sigma, expected_des = DESCENT_SHIFT_110[w.window_str()]
        assert compose(rho_perm, pi) == sigma
        assert descent_set(w) == expected_des
        seen.add(w.window_str())
    assert seen == set(DESCENT_SHIFT_110)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_descent_shift_check_passes(n):
    for l in range(n + 1):
        report = descent_shift_check(l, n)
        assert report.ok, report.to_dict()


def test_descent_shift_l0_is_plain_descents():
    report = descent_shift_check(0, 4)
    assert report.ok
    assert report.params == {"l": 0, "n": 4}


@pytest.mark.parametrize(
    "l,counterexample",
    [
        (2, {"window": "[1^1 2^1 3^0]", "descents": [0, 1], "shifted_perm": [1, 2, 3], "ordinary_descents": []}),
        (3, {"window": "[1^1 2^1 3^1]", "descents": [0, 1, 2], "shifted_perm": [1, 2, 3], "ordinary_descents": []}),
    ],
)
def test_a_wrong_rho_fails_descent_shift(monkeypatch, l, counterexample):
    # rho as the identity permutation reverses nothing, so the colored
    # prefix's descents have no ordinary counterpart.
    assert descent_shift_check(l, 3).ok
    monkeypatch.setattr(identity, "rho", lambda l, n: tuple(range(1, n + 1)))
    report = descent_shift_check(l, 3)
    assert not report.ok
    assert report.counterexample == counterexample
    assert list(report.counterexample) == list(counterexample)


# -- the composition chain --------------------------------------------------------


def test_check_composition_bounds():
    assert check_composition((1, 0, 2), 2, 2, 3) == (1, 0, 2)
    with pytest.raises(ValueError):
        check_composition((2, 0, 2), 2, 2, 3)  # first part must be <= k-1
    with pytest.raises(ValueError):
        check_composition((0, 0, 3), 2, 2, 3)  # last part must be <= k
    with pytest.raises(ValueError):
        check_composition((0, 0), 2, 1, 3)
    with pytest.raises(ValueError):
        check_composition((0, -1), 2, 0, 2)


def test_find_pi_example_from_worked_case():
    w = find_pi_for_composition((1, 0, 2), 2, 2, 3)
    assert w.pi == (3, 2, 1)
    assert w.colors == (0, 1, 1)
    assert w.window_str() == "[3^0 2^1 1^1]"


def test_find_pi_zero_composition_no_colors():
    for n in (1, 2, 3, 4):
        w = find_pi_for_composition((0,) * n, 2, 0, n)
        assert w.pi == tuple(range(1, n + 1))


def test_find_pi_two_letters_oracle():
    # Brute-force check over S_2: with k=1, l=1 and alpha=(0,0) only the
    # identity window satisfies the chain (the reversal fails strictness).
    w = find_pi_for_composition((0, 0), 1, 1, 2)
    assert w.pi == (1, 2)
    assert w.window_str() == "[1^1 2^0]"


def test_find_pi_is_the_simplex_of_alpha_read_through_rho():
    # The composition chain is the dilated simplex test read along
    # sigma = rho o pi; rho is an involution, so pi = rho o sigma.  The
    # colored parts are bounded by k - 1, so topping the chain by k minus
    # the leading color and topping it by k are the same rule.
    cases = 0
    for n in (1, 2, 3, 4):
        for k in range(4):
            for l in range(n + 1):
                bounds = [range(k)] * l + [range(k + 1)] * (n - l)
                for alpha in itertools.product(*bounds):
                    w = find_pi_for_composition(alpha, k, l, n)
                    assert w.pi == compose(rho(l, n), find_simplex(alpha, k)), (alpha, k, l)
                    cases += 1
    assert cases == 1360
    with pytest.raises(ValueError):
        find_pi_for_composition((2, 0, 0), 2, 1, 3)  # a colored part equal to k


def test_composition_to_partition_worked_case():
    lam, w = composition_to_partition((1, 0, 2), 2, 2, 3)
    assert lam == Partition((1, 1, 0))
    assert maj(w) == 1
    assert lam.total() == sum((1, 0, 2)) - maj(w)


def test_composition_to_partition_zero():
    lam, w = composition_to_partition((0, 0, 0), 3, 0, 3)
    assert lam == Partition((0, 0, 0))


def compositions(k, l, n):
    ranges = [range(k)] * l + [range(k + 1)] * (n - l)
    return itertools.product(*ranges)


def test_composition_map_is_a_bijection_small():
    # n=3, l=2, k=2: twelve compositions map injectively onto (pi, lambda)
    # pairs, and for each window the image is every bounded partition.
    n, l, k = 3, 2, 2
    images = {}
    by_window = {}
    for alpha in compositions(k, l, n):
        lam, w = composition_to_partition(alpha, k, l, n)
        key = (w.pi, lam.parts)
        assert key not in images, key
        images[key] = alpha
        by_window.setdefault(w, set()).add(lam.parts)
    assert len(images) == 2 * 2 * 3
    for w, parts in by_window.items():
        bound = k - len(descent_set(w))
        expected = {
            lam
            for lam in itertools.product(range(bound + 1), repeat=n)
            if all(a >= b for a, b in zip(lam, lam[1:]))
        }
        assert parts == expected, w.window_str()


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition([0, 1])  # any sequence, as the parts tuple is built from it
    with pytest.raises(ValueError):
        Partition((2, -1))


# -- the order-preserving relabeling ----------------------------------------------


def test_omega_letter_table():
    eps = EpsilonVector((1, 0, 1))
    zeta = EpsilonVector((1, 1, 0))
    for (v, c), (v2, c2) in OMEGA_LETTERS.items():
        image = omega_map(eps, zeta, window(f"[{v}^{c} " + _others(v) + "]"))
        assert (image.pi[0], image.colors[0]) == (v2, c2)


def _others(first):
    rest = [v for v in (1, 2, 3) if v != first]
    eps = {1: 1, 2: 0, 3: 1}
    return " ".join(f"{v}^{eps[v]}" for v in rest)


def test_omega_window_images_golden():
    eps = EpsilonVector((1, 0, 1))
    zeta = EpsilonVector((1, 1, 0))
    for source, target in OMEGA_IMAGES.items():
        image = omega_map(eps, zeta, window(source))
        assert image.window_str() == target
        assert descent_set(image) == descent_set(window(source))


def test_omega_identity_when_vectors_match():
    eps = EpsilonVector((2, 0, 1))
    for w in g_epsilon(eps):
        assert omega_map(eps, eps, w) == w


def test_omega_rejects_non_rearrangements():
    with pytest.raises(ValueError):
        omega_map(EpsilonVector((1, 0)), EpsilonVector((1, 1)), window("[1^1 2^0]"))


def test_omega_rejects_foreign_windows():
    with pytest.raises(ValueError):
        omega_map(EpsilonVector((1, 0)), EpsilonVector((0, 1)), window("[1^0 2^0]"))


# -- generating function over G_eps -------------------------------------------------


def test_g_epsilon_gf_against_golden_descents():
    eps = EpsilonVector((1, 0, 1))
    expected: dict[Monomial, int] = {}
    for d in DES_101.values():
        mon = Monomial(sum(d), len(d), 2)
        expected[mon] = expected.get(mon, 0) + 1
    assert g_epsilon_gf(eps, 3) == TruncatedPoly(3, expected)


# -- step verifiers -------------------------------------------------------------------


@pytest.mark.parametrize("r,n", [(1, 3), (2, 2), (2, 3), (3, 2)])
def test_lemma_same_support_passes(r, n):
    report = verify_lemma_same_support(r, n, cap=4)
    assert report.ok, report.to_dict()


def test_same_support_pairs_lead_with_first_of_support():
    pairs = list(identity._same_support_pairs(3, 4))
    assert len(pairs) == 3**4 - 2**4 == 65
    support = lambda colors: tuple(c > 0 for c in colors)
    vectors = sorted(itertools.product(range(3), repeat=4))
    first = {}
    for colors in vectors:
        first.setdefault(support(colors), colors)
    assert sorted(other for _, other in pairs) == [
        v for v in vectors if first[support(v)] != v
    ]
    assert all(lead == first[support(other)] for lead, other in pairs)


def patch_letter_key(monkeypatch, key):
    """Bind key in place of bz_sort_key in every package module that binds it."""
    original = wreath.bz_sort_key
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "wreath_identity" and vars(module).get("bz_sort_key") is original:
            monkeypatch.setattr(module, "bz_sort_key", key)


@pytest.mark.parametrize(
    "r,n,counterexample",
    [
        (3, 3, {"pi": [1, 2, 3], "eps": [0, 1, 1], "eps_prime": [0, 2, 1], "lhs": [1, 2], "rhs": [1]}),
        (3, 4, {"pi": [1, 2, 3, 4], "eps": [0, 0, 1, 1], "eps_prime": [0, 0, 2, 1], "lhs": [2, 3], "rhs": [2]}),
    ],
)
def test_a_wrong_letter_key_fails_same_support_descents(monkeypatch, r, n, counterexample):
    # Under this key v^2 no longer ties v^1 but ties (v+1)^1, so supports
    # stop determining descents.  The expected counterexample is the first
    # one a descent_set call per (pair, pi) meets, in pair-then-pi order.
    patch_letter_key(monkeypatch, lambda value, color: -value - (color > 1) if color > 0 else value)
    report = verify_lemma_same_support(r, n, cap=4)
    assert not report.ok
    assert report.counterexample == {"part": "descents", **counterexample}
    assert list(report.counterexample) == ["part", "pi", "eps", "eps_prime", "lhs", "rhs"]


def test_a_wrong_letter_key_fails_same_support_with_colors_by_position(monkeypatch):
    # Same-support windows carry their colors by position; reading them as
    # letter colors, as G_eps does, would stop at another pair.  Under this
    # key v^2 sits above v^1.
    patch_letter_key(monkeypatch, lambda value, color: -value + 2 * (color > 1) if color > 0 else value)
    report = verify_lemma_same_support(3, 3, cap=2)
    assert not report.ok
    assert report.counterexample == {
        "part": "descents",
        "pi": [1, 2, 3],
        "eps": [0, 1, 1],
        "eps_prime": [0, 1, 2],
        "lhs": [1, 2],
        "rhs": [1],
    }


def test_a_wrong_cone_sum_fails_same_support_with_its_first_pair(monkeypatch):
    # Like the factorised cone sum, the wrong one depends only on the
    # sorted colors; (0, 1, 2) is the first vector of that multiset met.
    factorised = geometry.cone_sum

    def cone_sum(eps, cap, budget):
        total = factorised(eps, cap, budget)
        if sorted(eps.colors) == [0, 1, 2]:
            total = total + TruncatedPoly.term(cap, 1, q=1, t=2)
        return total

    monkeypatch.setattr(geometry, "cone_sum", cone_sum)
    report = verify_lemma_same_support(3, 3, cap=5)
    assert not report.ok
    assert report.counterexample == {
        "part": "cone_sums",
        "eps": [0, 1, 1],
        "eps_prime": [0, 1, 2],
        "monomial": {"q": 1, "t": 2, "u": 2},
        "lhs": 0,
        "rhs": 1,
    }
    assert list(report.counterexample) == [
        "part", "eps", "eps_prime", "monomial", "lhs", "rhs"
    ]


@pytest.mark.parametrize("l,n", [(0, 2), (1, 2), (2, 3), (3, 3)])
def test_prop_few_colors_passes(l, n):
    report = verify_prop_few_colors(l, n, cap=n + 2)
    assert report.ok, report.to_dict()


def test_triple_preserving_passes():
    report = verify_lemma_triple_preserving(
        EpsilonVector((1, 0, 1)), EpsilonVector((1, 1, 0))
    )
    assert report.ok
    report = verify_lemma_triple_preserving(
        EpsilonVector((2, 0, 1)), EpsilonVector((0, 1, 2))
    )
    assert report.ok


LETTER_SET = identity._letter_set


def by_value(eps):
    """The letters of eps in value order: a wrong stand-in for _letter_set."""
    return [(v, eps.color_of(v)) for v in range(1, eps.n + 1)]


def reversed_letter_set(eps):
    """The letter set of eps reversed: omega then relabels onto the wrong G_eps_prime."""
    return LETTER_SET(EpsilonVector(eps.colors[::-1]))


def doubling_on(target):
    """A stand-in for _letter_set that doubles target's colors: omega then changes col."""

    def letter_set(eps):
        return LETTER_SET(EpsilonVector([2 * c for c in eps.colors]) if eps == target else eps)

    return letter_set


@pytest.mark.parametrize(
    "letter_set,eps,eps_prime,counterexample",
    [
        (
            by_value,
            (2, 0, 1),
            (0, 1, 2),
            {"window": "[1^2 2^0 3^1]", "image": "[1^0 2^1 3^2]", "descents": [0, 2], "image_descents": [1, 2]},
        ),
        (
            by_value,
            (1, 0, 2, 0),
            (0, 2, 0, 1),
            {"window": "[1^1 2^0 3^2 4^0]", "image": "[1^0 2^2 3^0 4^1]", "descents": [0, 2], "image_descents": [1, 3]},
        ),
        (
            doubling_on(EpsilonVector((1, 0, 1))),
            (1, 1, 0),
            (1, 0, 1),
            {"window": "[1^1 2^1 3^0]", "image": "[1^2 3^2 2^0]", "descents": [0, 1], "image_descents": [0, 1]},
        ),
        (
            reversed_letter_set,
            (1, 0, 1),
            (1, 1, 0),
            {"part": "bijection", "image_count": 6, "expected_count": 6},
        ),
    ],
)
def test_a_wrong_omega_fails_triple_preserving(monkeypatch, letter_set, eps, eps_prime, counterexample):
    # Matching letters by value ignores the colored-letter order; doubling
    # the colors keeps every descent but not col; reversing relabels onto
    # G of the reversed eps_prime, which preserves descents but misses
    # G_eps_prime.
    eps, eps_prime = EpsilonVector(eps), EpsilonVector(eps_prime)
    assert verify_lemma_triple_preserving(eps, eps_prime).ok
    monkeypatch.setattr(identity, "_letter_set", letter_set)
    report = verify_lemma_triple_preserving(eps, eps_prime)
    assert not report.ok
    assert report.counterexample == counterexample
    assert list(report.counterexample) == list(counterexample)


@pytest.mark.parametrize("eps", [(0, 2, 1), (2, 1)])
def test_a_wrong_letter_key_fails_the_corollary(monkeypatch, eps):
    # The passing run fills the comparison cache first; the wrong
    # key ties v^2 with (v+1)^1, which changes the key tuple and G_eps's
    # descents but not the cone sum.
    eps = EpsilonVector(eps)
    assert verify_corollary(eps, cap=4).ok
    patch_letter_key(monkeypatch, lambda value, color: -value - (color > 1) if color > 0 else value)
    report = verify_corollary(eps, cap=4)
    assert not report.ok
    assert report.counterexample == {"monomial": {"q": 0, "t": 1, "u": 3}, "lhs": 1, "rhs": 2}


@pytest.mark.parametrize(
    "l,at,lhs,rhs",
    [(0, (0, 0, 0), 1, 0), (1, (1, 1, 1), 2, 1), (2, (1, 1, 2), 1, 2), (3, (0, 0, 3), 0, 1)],
)
def test_a_wrong_letter_key_fails_the_few_colors_group_side(monkeypatch, l, at, lhs, rhs):
    # The key reverses the order of the uncolored letters, so G_eps's
    # descents change but no cone sum does: the closed form passes and the
    # group side is the first part to fail.
    patch_letter_key(monkeypatch, lambda value, color: value if color > 0 else -value)
    clear_caches()
    try:
        report = verify_prop_few_colors(l, 3, cap=5)
    finally:
        clear_caches()
    assert not report.ok
    q, t, u = at
    assert report.counterexample == {
        "part": "group_side",
        "monomial": {"q": q, "t": t, "u": u},
        "lhs": lhs,
        "rhs": rhs,
    }


def test_a_wrong_factorised_cone_sum_fails_few_colors_and_corollary(monkeypatch):
    # The wrong map multiplies the cone sum's top height by 1 + q.  Both
    # cone_sum and the corollary read the cube's map.
    cube_heights = geometry._cube_heights

    def wrong(colors, cap):
        heights = dict(cube_heights(colors, cap))
        heights[cap] = heights[cap] + [(q_integer(2, cap), 1)]
        return heights

    clear_caches()
    monkeypatch.setattr(geometry, "_cube_heights", wrong)
    try:
        report = verify_prop_few_colors(2, 3, cap=5)
        corollary = verify_corollary(EpsilonVector((1, 0, 1)), cap=5)
    finally:
        monkeypatch.undo()
        clear_caches()
    difference = {"monomial": {"q": 1, "t": 5, "u": 2}, "lhs": 4, "rhs": 3}
    assert report.counterexample == {"part": "factorised", **difference}
    assert corollary.counterexample == difference


first_letter_split = wreath._first_letter_split


def flipped_first_letter_split(gs, dq, cap):
    """At level steps (dq = 1) B_i + q t (T - B_i): q t weighs the b >= j instead of the b < j."""
    if dq == 0:
        return first_letter_split(gs, dq, cap)
    total = sum(gs, collections.Counter())
    return [
        b + collections.Counter({(q + 1, d + 1): c for (q, d), c in (total - b).items() if d < cap})
        for b in itertools.accumulate(gs, operator.add, initial=collections.Counter())
    ]


def test_a_flipped_first_letter_recursion_fails_the_numerator_piece(monkeypatch):
    # The flip counts ascents: G_n(j) becomes G_n(n+1-j), so the totals, and
    # with them the pieces l = 0 and l = n and the theorem at r = 1, stay.
    monkeypatch.setattr(wreath, "_first_letter_split", flipped_first_letter_split)
    clear_caches()
    try:
        assert verify_prop_few_colors(0, 3, cap=5).ok
        assert verify_prop_few_colors(3, 3, cap=5).ok
        assert verify_theorem(1, 4).ok
        for l in (1, 2):
            report = verify_prop_few_colors(l, 3, cap=5)
            assert not report.ok
            assert report.counterexample == {
                "part": "numerator_piece",
                "monomial": {"q": 0, "t": 0, "u": l},
                "lhs": 0,
                "rhs": 1,
            }
        report = verify_theorem(2, 3)
        assert report.counterexample == {"monomial": {"q": 0, "t": 0, "u": 1}, "lhs": 0, "rhs": 3}
    finally:
        clear_caches()


@pytest.mark.parametrize("n", [2, 3, 4])
def test_corollary_compares_once_per_tally_and_color_multiset(monkeypatch, n):
    # Every eps with one color multiset has the tally of its sorted colors,
    # so the 3^n corollaries make one comparison per multiset.
    compared = []

    def counted(*args):
        compared.append(args)
        return compare_product(*args)

    clear_caches()
    monkeypatch.setattr(identity, "compare_product", counted)
    for colors in itertools.product(range(3), repeat=n):
        assert verify_corollary(EpsilonVector(colors), cap=n + 1).ok
    assert len(compared) == math.comb(n + 2, 2)


def test_no_step_multiplies_by_the_expanded_denominator(monkeypatch):
    # compare_product reads expand_denominator's term map only to size its
    # slots; every product of every step goes through _packed.
    denominator = expand_denominator(3, 6).terms
    factors = []
    packed = poly._packed

    def recorded(pairs, *args):
        factors.extend(a for a, _ in pairs)
        return packed(pairs, *args)

    clear_caches()
    monkeypatch.setattr(poly, "_packed", recorded)
    try:
        assert all(report.ok for report in all_step_reports(3, 3, 6, 10**7))
    finally:
        clear_caches()
    assert factors and denominator not in factors


@pytest.mark.parametrize("r,n,passes", [(1, 15, True), (1, 16, False), (3, 12, True), (3, 13, False)])
def test_theorem_reaches_the_int64_frontier(r, n, passes):
    # At a raised budget the theorem is limited only by its coefficients.
    if passes:
        assert verify_theorem(r, n, budget=10**16).ok
    else:
        with pytest.raises(CoefficientOverflowError):
            verify_theorem(r, n, budget=10**16)


@pytest.mark.parametrize("eps", [(0, 0), (1, 0), (2, 1), (0, 2, 1)])
def test_corollary_passes(eps):
    report = verify_corollary(EpsilonVector(eps), cap=4)
    assert report.ok, report.to_dict()


@pytest.mark.parametrize("r,n", [(1, 2), (2, 1), (2, 2), (3, 2)])
def test_theorem_passes(r, n):
    report = verify_theorem(r, n)
    assert report.ok, report.to_dict()
    assert report.params["t_cap"] == n + 3


def test_theorem_r1_slicewise_oracle():
    # Carlitz case: the t^k slice of both sides must be [k+1]_q^n t^k.
    cap = 4
    n = 2
    rhs = numerator(1, n, cap) * expand_denominator(n, cap)
    for k in range(cap + 1):
        expected = q_integer(k + 1, cap) ** n * TruncatedPoly.term(cap, 1, t=k)
        assert rhs.t_slice(k) == expected


def test_theorem_r2_n1_slicewise_oracle():
    # (1 + tu)/((1-t)(1-qt)): the t^k slice is [k+1]_q + u [k]_q.
    cap = 4
    rhs = numerator(2, 1, cap) * expand_denominator(1, cap)
    for k in range(cap + 1):
        expected = (
            q_integer(k + 1, cap) + TruncatedPoly.term(cap, 1, u=1) * q_integer(k, cap)
        ) * TruncatedPoly.term(cap, 1, t=k)
        assert rhs.t_slice(k) == expected


def test_theorem_rejects_bad_parameters():
    with pytest.raises(ValueError):
        verify_theorem(0, 2)
    with pytest.raises(ValueError):
        verify_theorem(2, 0)


def test_theorem_refuses_before_building_the_lhs(monkeypatch):
    def lhs_base(*args):
        raise AssertionError("the left side was built before the budget check")

    monkeypatch.setattr(identity, "lhs_base", lhs_base)
    with pytest.raises(BudgetExceededError):
        verify_theorem(3, 7)  # 3^7 * 7! = 11022480 elements > 10^7


def changed_numerator(at, delta):
    """numerator with delta added to the coefficient of the monomial at = (q, t, u)."""
    q, t, u = at

    def changed(r, n, cap=None, budget=wreath.DEFAULT_BUDGET):
        true = numerator(r, n, cap, budget)
        return true + TruncatedPoly.term(true.t_cap, delta, q=q, t=t, u=u)

    return changed


def theorem_by_decoded_sides(r, n, cap):
    """The theorem's outcome by decoded polynomials: the oracle of verify_theorem.

    The right side is identity.numerator times the denominator, and then
    each height of the left side is built by lhs_term: a coefficient
    outside int64 gives ("overflow", message), and otherwise the outcome is
    ("report", first difference or None).
    """
    try:
        rhs = identity.numerator(r, n, cap) * expand_denominator(n, cap)
        lhs = TruncatedPoly.zero(cap)
        for k in range(cap + 1):
            lhs = lhs + lhs_term(r, n, k, cap)
    except CoefficientOverflowError as error:
        return "overflow", str(error)
    return "report", first_difference(lhs, rhs)


def theorem_outcome(r, n, cap):
    try:
        report = verify_theorem(r, n, cap)
    except CoefficientOverflowError as error:
        return "overflow", str(error)
    example = report.counterexample
    if example is None:
        return "report", None
    return "report", (Monomial(**example["monomial"]), example["lhs"], example["rhs"])


@pytest.mark.parametrize("r,n", [(1, 3), (2, 3), (3, 2), (2, 1)])
@pytest.mark.parametrize("height", ["zero", "middle", "cap"])
@pytest.mark.parametrize("delta", [1, -1])
def test_theorem_fails_on_a_changed_numerator(monkeypatch, r, n, height, delta):
    # At t = 0 the change hits the numerator's constant term 1 (with -1 it
    # removes it); at the middle and at the cap it adds a term the true
    # numerator lacks.  The denominator's t^0 slice is 1, so the first
    # difference is the changed monomial itself.
    cap = n + 3
    t = {"zero": 0, "middle": cap // 2, "cap": cap}[height]
    at = (t, t, min(t, r - 1))
    monkeypatch.setattr(identity, "numerator", changed_numerator(at, delta))
    report = verify_theorem(r, n)
    assert report.status == "fail"
    outcome, diff = theorem_by_decoded_sides(r, n, cap)
    assert outcome == "report"
    mon, c_lhs, c_rhs = diff
    assert mon == Monomial(*at) and c_rhs - c_lhs == delta
    assert report.counterexample == {
        "monomial": {"q": mon.q, "t": mon.t, "u": mon.u},
        "lhs": c_lhs,
        "rhs": c_rhs,
    }


@pytest.mark.parametrize("r,n,cap", [(1, 3, 5), (2, 3, 6), (3, 2, 7), (2, 4, 3), (2, 1, 4)])
@pytest.mark.parametrize("delta", [0, 1, -1])
def test_theorem_overflows_where_the_decoded_sides_do(monkeypatch, r, n, cap, delta):
    # delta changes the numerator at its largest coefficient, so the two
    # sides' largest coefficients can differ; INT64_MAX is lowered to just
    # below each side's largest coefficient (and those of the numerator and
    # the denominator) and between the two sides'.
    true = numerator(r, n, cap)
    top, _ = max(true.terms.items(), key=lambda item: item[1])
    monkeypatch.setattr(identity, "numerator", changed_numerator(top, delta))
    _, diff = theorem_by_decoded_sides(r, n, cap)
    lhs = TruncatedPoly.zero(cap)
    for k in range(cap + 1):
        lhs = lhs + lhs_term(r, n, k, cap)
    rhs = identity.numerator(r, n, cap) * expand_denominator(n, cap)
    assert (diff is None) == (delta == 0)
    largest = [
        max(side.terms.values())
        for side in (lhs, rhs, identity.numerator(r, n, cap), expand_denominator(n, cap))
    ]
    limits = {c - 1 for c in largest} | {(largest[0] + largest[1]) // 2}
    outcomes = set()
    for limit in sorted(limits):
        monkeypatch.setattr(poly, "INT64_MAX", limit)
        clear_caches()
        expected = theorem_by_decoded_sides(r, n, cap)
        clear_caches()
        assert theorem_outcome(r, n, cap) == expected, limit
        outcomes.add(expected[0])
    clear_caches()
    assert "overflow" in outcomes


@pytest.mark.parametrize("r,n,cap", [(1, 6, 3), (1, 8, 5), (1, 8, 11)])
def test_theorem_overflow_names_the_coefficient_the_product_names(monkeypatch, r, n, cap):
    # The numerator's first term lies past t = 1 here, so numerator *
    # expand_denominator reads its slices back out of t order; each limit is
    # crossed by several slices, and the refusal must name the same one.
    rhs = numerator(r, n, cap) * expand_denominator(n, cap)
    largest = sorted(set(rhs.terms.values()))
    for limit in largest[:: max(1, len(largest) // 20)]:
        monkeypatch.setattr(poly, "INT64_MAX", limit - 1)
        clear_caches()
        expected = theorem_by_decoded_sides(r, n, cap)
        clear_caches()
        assert expected[0] == "overflow"
        assert theorem_outcome(r, n, cap) == expected, limit
    clear_caches()


def test_numerator_regroups_by_color_vector():
    # Summing the G_eps generating functions over all letter colorings
    # recovers the whole-group numerator.
    for r, n in [(2, 2), (3, 2), (2, 3)]:
        total = TruncatedPoly.zero(n)
        for colors in itertools.product(range(r), repeat=n):
            total = total + g_epsilon_gf(EpsilonVector(colors), n)
        assert total == numerator(r, n)


def test_identity_coefficients_are_nonnegative():
    for r, n in [(2, 2), (3, 3)]:
        cap = n + 3
        lhs = TruncatedPoly.zero(cap)
        for k in range(cap + 1):
            lhs = lhs + lhs_term(r, n, k, cap)
        rhs = numerator(r, n, cap) * expand_denominator(n, cap)
        for poly in (lhs, rhs):
            assert all(c > 0 for c in poly.terms.values())


# -- reports ---------------------------------------------------------------------------


def test_report_comparison_failure_carries_counterexample():
    cap = 2
    report = report_from_comparison(
        "demo",
        {"x": 1},
        TruncatedPoly.one(cap),
        TruncatedPoly.zero(cap),
        time.perf_counter(),
    )
    assert report.status == "fail"
    assert not report.ok
    assert report.counterexample == {
        "monomial": {"q": 0, "t": 0, "u": 0},
        "lhs": 1,
        "rhs": 0,
    }


def test_report_json_schema():
    report = verify_theorem(2, 1)
    data = json.loads(json.dumps(report.to_dict()))
    assert list(data) == ["claim", "params", "status", "counterexample", "elapsed_ms"]
    assert data["status"] == "pass"
    assert data["counterexample"] is None
    assert isinstance(data["elapsed_ms"], float)


def test_failing_report_requires_counterexample():
    with pytest.raises(ValueError):
        VerificationReport("demo", {}, "fail", None, 0.0)
    with pytest.raises(ValueError):
        VerificationReport("demo", {}, "maybe", None, 0.0)
