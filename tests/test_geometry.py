import collections
import itertools
import re

import pytest

from wreath_identity.poly import Monomial, TruncatedPoly, lhs_term, q_integer
from wreath_identity.wreath import BudgetExceededError, EpsilonVector
from wreath_identity.geometry import (
    CubeSliceSpec,
    LatticePoint,
    check_cone_budget,
    cone_sum,
    cone_sum_by_enumeration,
    delta_membership,
    enumerate_slice,
    figure_grid,
    find_simplex,
    full_slice_sum,
    m,
    m_prime,
    slice_membership,
    slice_sum,
)

from golden import FIGURE_R2_K1, FIGURE_R2_K2


# -- the coordinate weight m' ------------------------------------------------------


def test_m_prime_initial_run_is_q_powers():
    for k in (1, 2, 5):
        for j in range(k + 1):
            assert m_prime(j, k) == Monomial(j, 0, 0)


def test_m_prime_wrapped_values():
    assert m_prime(2, 1) == Monomial(0, 0, 1)  # u
    assert m_prime(3, 2) == Monomial(0, 0, 1)  # u
    assert m_prime(4, 2) == Monomial(1, 0, 1)  # qu


def test_m_prime_apex_and_errors():
    assert m_prime(0, 0) == Monomial(0, 0, 0)
    with pytest.raises(ValueError):
        m_prime(1, 0)
    with pytest.raises(ValueError):
        m_prime(-1, 2)
    for j, k in ((3, -2), (1, -1)):
        with pytest.raises(ValueError, match=f"height must be nonnegative, got {k}"):
            m_prime(j, k)


def test_m_prime_row_sums_match_the_summand_base():
    # sum_j m'(j, k) over j in [0, kr] is [k+1]_q + u [r-1]_u [k]_q.
    for r in (1, 2, 3):
        for k in (1, 2, 3):
            total = TruncatedPoly.zero(0)
            for j in range(k * r + 1):
                total = total + TruncatedPoly(0, {m_prime(j, k): 1})
            base = lhs_term(r, 1, k, k).t_slice(k)
            # divide the t^k factor out of the n=1 summand
            stripped = TruncatedPoly(
                0, {Monomial(mo.q, 0, mo.u): c for mo, c in base.terms.items()}
            )
            assert total == stripped


# -- the point weight m -------------------------------------------------------------


def test_m_examples():
    assert m(LatticePoint((4, 2), 2)) == Monomial(3, 2, 1)
    assert m(LatticePoint((2, 2), 1)) == Monomial(0, 1, 2)
    assert m(LatticePoint((0, 0, 0), 0)) == Monomial(0, 0, 0)


@pytest.mark.parametrize(
    "k,golden", [(1, FIGURE_R2_K1), (2, FIGURE_R2_K2)], ids=["k1", "k2"]
)
def test_figure_grid_matches_golden(k, golden):
    grid = figure_grid(2, k)
    assert len(grid) == (2 * k + 1) ** 2
    for cell in grid:
        q_exp, u_exp = golden[tuple(cell["v"])]
        assert cell["monomial"] == {"q": q_exp, "u": u_exp}, cell


@pytest.mark.parametrize("r", range(1, 5))
def test_figure_grid_matches_point_weights(r):
    # The per-coordinate table against m on each lattice point, apex included.
    for k in range(7):
        expected = [
            {"v": list(v), "monomial": {"q": mon.q, "u": mon.u}}
            for v in itertools.product(range(k * r + 1), repeat=2)
            for mon in [m(LatticePoint(v, k))]
        ]
        assert figure_grid(r, k) == expected, k


def test_figure_grid_r1_is_pure_q_powers():
    for cell in figure_grid(1, 2):
        assert cell["monomial"]["u"] == 0
        assert cell["monomial"]["q"] == sum(cell["v"])


# -- cube slices -----------------------------------------------------------------------


def test_slice_membership_examples():
    assert slice_membership(LatticePoint((1, 1), 1), CubeSliceSpec(EpsilonVector((0, 0)), 1))
    assert not slice_membership(
        LatticePoint((1, 1), 1), CubeSliceSpec(EpsilonVector((1, 0)), 1)
    )
    assert slice_membership(LatticePoint((2, 1), 1), CubeSliceSpec(EpsilonVector((1, 0)), 1))
    assert slice_membership(LatticePoint((1, 2), 1), CubeSliceSpec(EpsilonVector((0, 1)), 1))
    assert not slice_membership(
        LatticePoint((1, 2), 1), CubeSliceSpec(EpsilonVector((1, 1)), 1)
    )


def test_slice_membership_apex_convention():
    apex = LatticePoint((0, 0), 0)
    assert slice_membership(apex, CubeSliceSpec(EpsilonVector((0, 0)), 0))
    assert not slice_membership(apex, CubeSliceSpec(EpsilonVector((1, 0)), 0))


def test_slice_membership_height_mismatch():
    with pytest.raises(ValueError):
        slice_membership(LatticePoint((1, 1), 1), CubeSliceSpec(EpsilonVector((0, 0)), 2))


def test_enumerate_slice_examples():
    points = list(enumerate_slice(CubeSliceSpec(EpsilonVector((1, 1)), 1)))
    assert points == [LatticePoint((2, 2), 1)]
    assert len(list(enumerate_slice(CubeSliceSpec(EpsilonVector((0, 0)), 2)))) == 9
    # Direct-filter oracle for eps=(1,0), k=2 inside [0,4]^2.
    expected = [
        (v1, v2)
        for v1 in range(5)
        for v2 in range(5)
        if 2 < v1 <= 4 and 0 <= v2 <= 2
    ]
    got = [p.v for p in enumerate_slice(CubeSliceSpec(EpsilonVector((1, 0)), 2))]
    assert got == expected


def test_enumerate_slice_is_lex_sorted_and_counted():
    for k in (1, 2, 3):
        for eps in itertools.product(range(3), repeat=2):
            spec = CubeSliceSpec(EpsilonVector(eps), k)
            points = [p.v for p in enumerate_slice(spec)]
            assert points == sorted(points)
            s = sum(1 for c in eps if c > 0)
            assert len(points) == k**s * (k + 1) ** (2 - s)
            assert all(slice_membership(LatticePoint(v, k), spec) for v in points)


def test_enumerate_slice_budget():
    with pytest.raises(BudgetExceededError):
        list(enumerate_slice(CubeSliceSpec(EpsilonVector((0,) * 4), 9), budget=100))


def test_slices_partition_every_height():
    # Every point of [0, kr]^n lies in exactly one cube slice.
    for r, n in [(2, 2), (3, 2), (2, 3)]:
        specs = [
            CubeSliceSpec(EpsilonVector(eps), 0)
            for eps in itertools.product(range(r), repeat=n)
        ]
        for k in range(4):
            specs = [CubeSliceSpec(spec.eps, k) for spec in specs]
            for v in itertools.product(range(k * r + 1), repeat=n):
                owners = [
                    spec for spec in specs if slice_membership(LatticePoint(v, k), spec)
                ]
                assert len(owners) == 1, (v, k)


def test_slice_sum_unit_cube_height_one():
    total = slice_sum(CubeSliceSpec(EpsilonVector((0, 0)), 1))
    expected = q_integer(2, 1) * q_integer(2, 1) * TruncatedPoly.term(1, 1, t=1)
    assert total == expected


@pytest.mark.parametrize("r,n", [(r, n) for r in (1, 2, 3) for n in (1, 2, 3, 4)])
def test_slice_sum_weighs_every_point_by_m(r, n):
    # The packed table walk against m applied to each enumerated point.
    for colors in itertools.product(range(r), repeat=n):
        for k in range(6):
            spec = CubeSliceSpec(EpsilonVector(colors), k)
            for cap in (k, 5):
                expected = TruncatedPoly(cap, collections.Counter(map(m, enumerate_slice(spec))))
                assert slice_sum(spec, cap) == expected, (colors, k, cap)


def test_full_slice_sum_is_sum_of_cube_slices():
    for r, n in [(2, 2), (3, 2), (2, 3)]:
        for k in range(4):
            total = TruncatedPoly.zero(k)
            for eps in itertools.product(range(r), repeat=n):
                total = total + slice_sum(CubeSliceSpec(EpsilonVector(eps), k), cap=k)
            assert total == full_slice_sum(r, n, k)


@pytest.mark.parametrize("r,n", [(1, 2), (2, 2), (3, 2), (2, 3), (3, 3)])
def test_full_slice_sum_matches_lhs_term(r, n):
    for k in range(4):
        assert full_slice_sum(r, n, k, cap=4) == lhs_term(r, n, k, 4)


def test_full_slice_sum_refuses_exactly_past_the_budget():
    r, n, k = 2, 3, 2
    points = (k * r + 1) ** n
    assert full_slice_sum(r, n, k, budget=points) == lhs_term(r, n, k, k)
    with pytest.raises(
        BudgetExceededError, match=f"^grid of {points} points exceeds budget {points - 1}$"
    ):
        full_slice_sum(r, n, k, budget=points - 1)


def test_u_exponent_equals_owning_color_weight():
    # The u-exponent of a point weight is the color weight of its cube.
    for r, n, k in [(3, 2, 3), (2, 3, 2)]:
        for eps in itertools.product(range(r), repeat=n):
            spec = CubeSliceSpec(EpsilonVector(eps), k)
            for p in enumerate_slice(spec):
                assert m(p).u == sum(eps), (p, eps)


def test_cone_sum_closed_form_for_leading_ones():
    # cone over (1^l, 0^(n-l)) sums to u^l sum_k [k]_q^l [k+1]_q^(n-l) t^k.
    cap = 4
    for n in (1, 2, 3):
        for l in range(n + 1):
            eps = EpsilonVector((1,) * l + (0,) * (n - l))
            expected = TruncatedPoly.zero(cap)
            for k in range(cap + 1):
                expected = expected + (
                    q_integer(k, cap) ** l
                    * q_integer(k + 1, cap) ** (n - l)
                    * TruncatedPoly.term(cap, 1, t=k)
                )
            expected = expected * TruncatedPoly.term(cap, 1, u=l)
            assert cone_sum(eps, cap) == expected


@pytest.mark.parametrize(
    "r,n", [(r, n) for r in (1, 2, 3) for n in (1, 2, 3, 4)] + [(4, 3), (2, 5)]
)
def test_cone_sum_matches_enumeration_oracle(r, n):
    for cap in (0, 1, n + 3):
        for colors in itertools.product(range(r), repeat=n):
            eps = EpsilonVector(colors)
            assert cone_sum(eps, cap) == cone_sum_by_enumeration(eps, cap), (colors, cap)


@pytest.mark.parametrize(
    "cone", [cone_sum, cone_sum_by_enumeration], ids=["factorised", "oracle"]
)
def test_cone_sum_refuses_exactly_past_the_budget(cone):
    eps = EpsilonVector((1, 0, 2))
    assert cone(eps, 4, budget=5**3) == cone_sum_by_enumeration(eps, 4)
    with pytest.raises(
        BudgetExceededError, match="slice of size up to 125 exceeds budget 124$"
    ):
        cone(eps, 4, budget=5**3 - 1)
    # The message names the lowest height whose slice does not fit.
    with pytest.raises(
        BudgetExceededError, match="slice of size up to 64 exceeds budget 30$"
    ):
        cone(eps, 4, budget=30)


def test_cone_budget_names_the_lowest_height_that_does_not_fit():
    def scan(n, cap, budget):  # the first height, walked up from 0
        k = next(k for k in range(cap + 1) if (k + 1) ** n > budget)
        return f"slice of size up to {(k + 1) ** n} exceeds budget {budget}"

    for n in range(1, 6):
        for cap in range(12):
            for budget in [*range(1, 90), 4095, 4096, 10**7]:
                if (cap + 1) ** n <= budget:
                    check_cone_budget(n, cap, budget)
                    continue
                with pytest.raises(BudgetExceededError) as refusal:
                    check_cone_budget(n, cap, budget)
                assert str(refusal.value) == scan(n, cap, budget), (n, cap, budget)
    # A height found by bisection, not by walking 10^30 heights.
    with pytest.raises(BudgetExceededError, match=f"up to {10**30 + 1} exceeds budget"):
        check_cone_budget(1, 10**40, 10**30)


def test_cone_budget_refuses_caps_that_are_not_nonnegative_ints():
    with pytest.raises(ValueError, match="t_cap must be nonnegative, got -1$"):
        check_cone_budget(2, -1, 10**6)
    for cap in (True, 2.0, "2"):
        with pytest.raises(ValueError, match=re.escape(f"t_cap must be an integer, got {cap!r}")):
            check_cone_budget(2, cap, 10**6)


def test_cone_sum_apex_only():
    assert cone_sum(EpsilonVector((0, 0)), 0) == TruncatedPoly.one(0)
    assert cone_sum(EpsilonVector((1, 0)), 0) == TruncatedPoly.zero(0)


def test_cone_sum_shift_between_same_support_vectors():
    cap = 4
    pairs = [((1, 0), (2, 0)), ((1, 2), (2, 1)), ((2, 2), (1, 1))]
    for e1, e2 in pairs:
        lhs = cone_sum(EpsilonVector(e1), cap) * TruncatedPoly.term(cap, 1, u=sum(e2))
        rhs = cone_sum(EpsilonVector(e2), cap) * TruncatedPoly.term(cap, 1, u=sum(e1))
        assert lhs == rhs, (e1, e2)


# -- the dilated simplices ----------------------------------------------------------


def test_delta_membership_identity_accepts_constant():
    for n in (1, 2, 3):
        for k in (0, 1, 3):
            assert delta_membership((0,) * n, k, tuple(range(1, n + 1)))


def test_delta_membership_descents_force_strictness():
    for pi in itertools.permutations((1, 2, 3)):
        if pi == (1, 2, 3):
            continue
        assert not delta_membership((0, 0, 0), 2, pi)


def test_delta_membership_example():
    assert delta_membership((1, 2), 2, (2, 1))
    assert not delta_membership((1, 2), 2, (1, 2))


def test_delta_membership_bounds():
    with pytest.raises(ValueError):
        delta_membership((3, 0), 2, (1, 2))


def test_find_simplex_examples():
    assert find_simplex((2, 1), 2) == (1, 2)
    assert find_simplex((1, 1), 1) == (1, 2)
    assert find_simplex((1, 2, 0), 2) == (2, 1, 3)


def test_simplices_partition_the_box():
    for n, k in [(2, 3), (3, 2), (4, 2)]:
        for alpha in itertools.product(range(k + 1), repeat=n):
            hits = [
                pi
                for pi in itertools.permutations(range(1, n + 1))
                if delta_membership(alpha, k, pi)
            ]
            assert len(hits) == 1, (alpha, k)
            assert hits[0] == find_simplex(alpha, k)
