import collections
import copy
import itertools
import pickle
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wreath_identity import wreath
from wreath_identity.poly import Monomial, TruncatedPoly
from wreath_identity.wreath import (
    BudgetExceededError,
    ColoredPermutation,
    EpsilonVector,
    bz_sort_key,
    col,
    colored_window,
    des,
    descent_set,
    enumerate_group,
    few_colors_eps,
    few_colors_pieces,
    g_epsilon,
    g_epsilon_gf,
    group_order,
    maj,
    numerator,
    numerator_by_enumeration,
    ordinary_descent_set,
    _window_tally,
)

from wreath_identity.geometry import CubeSliceSpec
from wreath_identity.identity import Partition, VerificationReport

from golden import DES_101, DES_110, tuple_order_descents


def window(text):
    return ColoredPermutation.parse(text)


# -- the colored-letter order ----------------------------------------------------


def test_compare_positive_colors_reverse_values():
    assert bz_sort_key(3, 1) < bz_sort_key(2, 1)
    assert bz_sort_key(2, 2) > bz_sort_key(3, 2)


def test_compare_positive_color_below_sentinel():
    assert bz_sort_key(1, 2) < bz_sort_key(0, 0)


def test_compare_zero_colors_increase_with_value():
    assert bz_sort_key(0, 0) < bz_sort_key(2, 0)
    assert bz_sort_key(1, 0) < bz_sort_key(2, 0)


def test_compare_same_value_distinct_positive_colors_tie():
    assert bz_sort_key(3, 2) == bz_sort_key(3, 1)


def test_chain_for_three_colors_three_letters():
    # 3^2, 3^1 < 2^2, 2^1 < 1^2, 1^1 < 0^0 < 1^0 < 2^0 < 3^0
    chain = [
        [(3, 2), (3, 1)],
        [(2, 2), (2, 1)],
        [(1, 2), (1, 1)],
        [(0, 0)],
        [(1, 0)],
        [(2, 0)],
        [(3, 0)],
    ]
    for i, level in enumerate(chain):
        for a in level:
            for b in level:
                assert bz_sort_key(*a) == bz_sort_key(*b)
            for later in chain[i + 1 :]:
                for b in later:
                    assert bz_sort_key(*a) < bz_sort_key(*b)


def all_letters(max_value, max_color):
    """The sentinel 0^0 and every letter v^c with 1 <= v <= max_value."""
    letters = [(0, 0)]
    for v in range(1, max_value + 1):
        for c in range(max_color + 1):
            letters.append((v, c))
    return letters


def test_compare_is_a_total_preorder():
    letters = all_letters(5, 3)
    key = {letter: bz_sort_key(*letter) for letter in letters}
    for a in letters:
        for b in letters:
            # totality: every pair is comparable one way or the other
            assert key[a] <= key[b] or key[b] <= key[a]
            if a[0] != b[0]:
                assert key[a] != key[b]
            for c in letters:
                # transitivity of <=
                if key[a] <= key[b] and key[b] <= key[c]:
                    assert key[a] <= key[c]


def test_equal_only_on_equal_values():
    letters = all_letters(5, 3)
    for a in letters:
        for b in letters:
            if bz_sort_key(*a) == bz_sort_key(*b):
                assert a[0] == b[0]
                assert a == b or (a[1] > 0 and b[1] > 0)


# -- windows and statistics --------------------------------------------------------


def test_descent_set_examples():
    assert descent_set(window("[2^0 3^1 1^1]")) == {1}
    assert descent_set(window("[2^1 1^1 3^0]")) == {0}
    assert descent_set(window("[1^0 2^0 3^0 4^0]")) == set()


def test_descent_sets_golden_tables():
    for text, expected in DES_101.items():
        assert descent_set(window(text)) == expected, text
    for text, expected in DES_110.items():
        assert descent_set(window(text)) == expected, text


def test_statistics_examples():
    w = window("[2^0 1^1 3^1]")
    assert descent_set(w) == {1, 2}
    assert maj(w) == 3
    assert des(w) == 2
    assert col(window("[1^1 2^0 3^1]")) == 2
    identity = window("[1^0 2^0 3^0]")
    assert maj(identity) == 0 and des(identity) == 0 and col(identity) == 0


def test_descent_at_zero_iff_first_color_positive():
    for r, n in [(3, 3), (2, 4)]:
        for w in enumerate_group(r, n):
            assert (0 in descent_set(w)) == (w.colors[0] > 0)


def test_statistic_bounds_exhaustive():
    for r, n in [(3, 3), (2, 4)]:
        bound = n * (n + 1) // 2 - 1
        for w in enumerate_group(r, n):
            assert des(w) <= n
            assert maj(w) <= bound


def test_ordinary_descent_set_matches_zero_coloring():
    for n in range(1, 5):
        for pi in itertools.permutations(range(1, n + 1)):
            w = ColoredPermutation(pi, (0,) * n)
            assert descent_set(w) == ordinary_descent_set(pi)


def test_window_validation():
    with pytest.raises(ValueError):
        ColoredPermutation((1, 1), (0, 0))
    with pytest.raises(ValueError):
        ColoredPermutation((1, 2), (0,))
    with pytest.raises(ValueError):
        ColoredPermutation((1, 2), (0, -1))
    # value 0 is the sentinel and never a window letter
    with pytest.raises(ValueError):
        ColoredPermutation((0, 1), (1, 0))
    with pytest.raises(ValueError):
        ColoredPermutation((-1, 1), (0, 0))


@pytest.mark.parametrize("r", [1, 2, 3])
def test_trusted_windows_equal_validated_ones(r):
    # enumerate_group and g_epsilon build their windows unvalidated.
    for n in range(1, 5):
        perms = list(itertools.permutations(range(1, n + 1)))
        vectors = list(itertools.product(range(r), repeat=n))
        checked = [ColoredPermutation(pi, colors) for pi in perms for colors in vectors]
        trusted = [ColoredPermutation._trusted(pi, colors) for pi in perms for colors in vectors]
        walked = list(enumerate_group(r, n))
        assert trusted == checked == walked
        assert list(map(hash, trusted)) == list(map(hash, checked)) == list(map(hash, walked))
        for colors in vectors:
            eps = EpsilonVector(colors)
            checked = [colored_window(eps, pi) for pi in perms]
            walked = list(g_epsilon(eps))
            assert walked == checked
            assert list(map(hash, walked)) == list(map(hash, checked))
    # The public constructors keep every check.
    with pytest.raises(ValueError):
        ColoredPermutation((1, 1), (0, 0))
    with pytest.raises(ValueError):
        colored_window(EpsilonVector((1, 0)), (2, 2))


# -- window text form ---------------------------------------------------------------


def test_window_str_and_parse():
    w = ColoredPermutation((2, 3, 1), (0, 1, 1))
    assert w.window_str() == "[2^0 3^1 1^1]"
    assert ColoredPermutation.parse("[2^0 3^1 1^1]") == w


@pytest.mark.parametrize("bad", ["2^0 1^1", "[2^0 1]", "[a^0 1^1]", "[2^0, 1^1]"])
def test_parse_rejects_malformed_text(bad):
    with pytest.raises(ValueError):
        ColoredPermutation.parse(bad)


@given(st.data())
def test_window_text_round_trips(data):
    n = data.draw(st.integers(1, 6))
    r = data.draw(st.integers(1, 4))
    pi = tuple(data.draw(st.permutations(range(1, n + 1))))
    colors = tuple(data.draw(st.integers(0, r - 1)) for _ in range(n))
    w = ColoredPermutation(pi, colors)
    assert ColoredPermutation.parse(w.window_str()) == w


# -- enumeration ----------------------------------------------------------------------


def test_group_sizes():
    assert len(list(enumerate_group(1, 3))) == 6
    assert len(list(enumerate_group(2, 2))) == 8
    assert len(list(enumerate_group(3, 3))) == 162


def test_enumeration_is_unique_and_deterministic():
    first = list(enumerate_group(2, 3))
    second = list(enumerate_group(2, 3))
    assert first == second
    assert len(set(first)) == group_order(2, 3)


def test_enumeration_order_is_lex_by_pi_then_colors():
    elements = list(enumerate_group(2, 2))
    keys = [(w.pi, w.colors) for w in elements]
    assert keys == sorted(keys)
    assert elements[0] == ColoredPermutation((1, 2), (0, 0))


def test_budget_exceeded():
    with pytest.raises(BudgetExceededError):
        enumerate_group(3, 3, budget=100)
    with pytest.raises(BudgetExceededError):
        numerator(3, 3, budget=100)


def test_colors_all_zero_when_r_is_one():
    for w in enumerate_group(1, 3):
        assert w.colors == (0, 0, 0)


# -- G_eps ------------------------------------------------------------------------------


def test_g_epsilon_101_matches_listing():
    got = {w.window_str() for w in g_epsilon(EpsilonVector((1, 0, 1)))}
    assert got == set(DES_101)


def test_g_epsilon_zero_colors_is_plain_permutations():
    elements = list(g_epsilon(EpsilonVector((0, 0, 0))))
    assert len(elements) == 6
    assert all(w.colors == (0, 0, 0) for w in elements)


def test_g_epsilon_110_member_descents():
    windows = {w.window_str(): w for w in g_epsilon(EpsilonVector((1, 1, 0)))}
    assert "[3^0 1^1 2^1]" in windows
    assert descent_set(windows["[3^0 1^1 2^1]"]) == {1, 2}


def test_colored_window_reindexes_by_letter():
    eps = EpsilonVector((1, 0, 1))
    w = colored_window(eps, (2, 3, 1))
    assert w.window_str() == "[2^0 3^1 1^1]"


def test_epsilon_vector_support_and_col():
    eps = EpsilonVector((2, 0, 1, 0))
    assert eps.support() == {1, 3}
    assert eps.col() == 3
    assert eps.color_of(3) == 1


def test_same_support_same_descents():
    # Windows built over same-support letter colorings share descent sets.
    for r, n in [(3, 3), (2, 4)]:
        vectors = list(itertools.product(range(r), repeat=n))
        for e1 in vectors:
            for e2 in vectors:
                if [c > 0 for c in e1] != [c > 0 for c in e2]:
                    continue
                v1, v2 = EpsilonVector(e1), EpsilonVector(e2)
                for pi in itertools.permutations(range(1, n + 1)):
                    assert descent_set(colored_window(v1, pi)) == descent_set(
                        colored_window(v2, pi)
                    )


@pytest.mark.parametrize("r,n", [(3, n) for n in range(1, 6)] + [(2, 6), (4, 4)])
def test_g_epsilon_gf_matches_window_oracle(r, n):
    # Every color vector over r colors; with r = 3 that covers r <= 3.
    for colors in itertools.product(range(r), repeat=n):
        eps = EpsilonVector(colors)
        windows = list(g_epsilon(eps))
        # The oracle's descents follow the order that bz_sort_key encodes.
        assert all(descent_set(w) == tuple_order_descents(w) for w in windows), colors
        for cap in (0, n):
            assert g_epsilon_gf(eps, cap) == _window_tally(windows, cap), (colors, cap)


# -- the numerator ------------------------------------------------------------------------


def test_numerator_s2():
    assert numerator(1, 2) == TruncatedPoly(
        2, {Monomial(0, 0, 0): 1, Monomial(1, 1, 0): 1}
    )


def test_numerator_two_colors_one_letter():
    assert numerator(2, 1) == TruncatedPoly(
        1, {Monomial(0, 0, 0): 1, Monomial(0, 1, 1): 1}
    )


@pytest.mark.parametrize("r,n", [(1, 3), (2, 2), (3, 2), (2, 4)])
def test_numerator_counts_group_elements(r, n):
    assert numerator(r, n).evaluate(q=1, t=1, u=1) == group_order(r, n)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_numerator_r1_is_euler_mahonian(n):
    # Independent oracle: classical descents of plain permutations.
    expected: dict[Monomial, int] = {}
    for pi in itertools.permutations(range(1, n + 1)):
        d = {i for i in range(1, n) if pi[i - 1] > pi[i]}
        mon = Monomial(sum(d), len(d), 0)
        expected[mon] = expected.get(mon, 0) + 1
    assert numerator(1, n) == TruncatedPoly(n, expected)


@pytest.mark.parametrize(
    "r,n", [(r, n) for r in (1, 2, 3) for n in range(1, 6)] + [(4, 5), (2, 6), (1, 6), (3, 6)]
)
def test_numerator_matches_enumeration_oracle(r, n):
    # The walk at cap n + 3 truncates to the walk at every lower cap.
    walked = numerator_by_enumeration(r, n, n + 3)
    for cap in [*range(n), n, n + 3]:
        assert numerator(r, n, cap) == walked.truncate(cap), cap


@pytest.mark.parametrize("n", range(1, 8))
def test_few_colors_pieces_are_the_walked_pieces(n):
    # Piece l is u^l F_l; with u lowered by l it is the walked G_eps tally.
    for cap in (0, 1, n, n + 3):
        pieces = few_colors_pieces(n, cap)
        assert len(pieces) == n + 1
        for l, piece in enumerate(pieces):
            walked = g_epsilon_gf(few_colors_eps(l, n), cap).terms
            assert all(mon.u == l for mon in piece.terms), (l, cap)
            lowered = {(m.q, m.t, m.u - l): c for m, c in piece.terms.items()}
            assert lowered == {(m.q, m.t, m.u - l): c for m, c in walked.items()}, (l, cap)


@pytest.mark.parametrize("dq", [0, 1])
@pytest.mark.parametrize("cap", [0, 1, 3])
def test_first_letter_split_is_its_definition(dq, cap):
    # q^dq t sum(gs[:i]) + sum(gs[i:]), truncated at t^cap, for every prefix of gs.
    terms = [{(0, 0): 1, (2, 1): 3}, {(1, 1): 2, (4, 2): 1}, {}, {(0, 0): 4, (3, 3): 5, (5, 2): 1}]
    gs = [collections.Counter({(q, d): c for (q, d), c in g.items() if d <= cap}) for g in terms]

    def total(parts):
        return sum(parts, collections.Counter())

    for m in range(len(gs) + 1):
        split = wreath._first_letter_split(gs[:m], dq, cap)
        expected = [
            collections.Counter({(q + dq, d + 1): c for (q, d), c in total(gs[:i]).items() if d < cap})
            + total(gs[i:m])
            for i in range(m + 1)
        ]
        assert list(map(dict, split)) == list(map(dict, expected)), (m, dq, cap)


def test_numerator_walks_no_window(monkeypatch):
    def walk(*args):
        raise AssertionError("the numerator walked the windows of a G_eps")

    monkeypatch.setattr(wreath, "_key_tally", walk)
    monkeypatch.setattr(wreath, "_window_tally", walk)
    few_colors_pieces.cache_clear()
    assert numerator(3, 5).evaluate() == group_order(3, 5)


# -- value types -------------------------------------------------------------------

# Per value type: its field names in constructor order, a factory of equal
# but distinct instances, the repr, and invalid arguments with their error.
VALUE_TYPES = [
    (
        ("pi", "colors"),
        lambda: ColoredPermutation([2, 1], [1, 0]),
        "ColoredPermutation(pi=(2, 1), colors=(1, 0))",
        lambda: ColoredPermutation((1, 1), (0, 0)),
        ValueError,
        "window values (1, 1) are not a permutation of 1..2",
    ),
    (
        ("colors",),
        lambda: EpsilonVector([1, 0, 2]),
        "EpsilonVector(colors=(1, 0, 2))",
        lambda: EpsilonVector((0, -1)),
        ValueError,
        "negative color in (0, -1)",
    ),
    (
        ("eps", "k"),
        lambda: CubeSliceSpec(EpsilonVector((1, 0)), 3),
        "CubeSliceSpec(eps=EpsilonVector(colors=(1, 0)), k=3)",
        lambda: CubeSliceSpec(EpsilonVector((1, 0)), -1),
        ValueError,
        "height must be nonnegative, got -1",
    ),
    (
        ("parts",),
        lambda: Partition([3, 1, 0]),
        "Partition(parts=(3, 1, 0))",
        lambda: Partition((1, 2)),
        ValueError,
        "parts (1, 2) are not weakly decreasing",
    ),
    (
        ("claim", "params", "status", "counterexample", "elapsed_ms"),
        lambda: VerificationReport("theorem", {"r": 2}, "fail", {"lhs": [1, (2, 3)]}, 1.5),
        "VerificationReport(claim='theorem', params={'r': 2}, status='fail', "
        "counterexample={'lhs': [1, (2, 3)]}, elapsed_ms=1.5)",
        lambda: VerificationReport("theorem", {}, "maybe", None, 0.0),
        ValueError,
        "status must be pass or fail, got 'maybe'",
    ),
]
VALUE_IDS = [text.partition("(")[0] for _, _, text, *_ in VALUE_TYPES]


@pytest.mark.parametrize("fields,make,text,bad,error,message", VALUE_TYPES, ids=VALUE_IDS)
def test_value_type_contract(fields, make, text, bad, error, message):
    a, b = make(), make()
    values = tuple(getattr(a, name) for name in fields)
    assert a == b and not a != b and a is not b
    assert repr(a) == text
    # The keyword constructor takes the same fields.
    assert type(a)(**dict(zip(fields, values))) == a
    # The hash is that of the field tuple; a report's dicts make both unhashable.
    try:
        expected = hash(values)
    except TypeError:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b) == expected
    # Equal only to an instance of the same class, never to its field tuple.
    assert a != values
    for _, other_make, *_ in VALUE_TYPES:
        other = other_make()
        assert (a == other) == (type(other) is type(a))
    for name in fields + ("extra",):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
    with pytest.raises(AttributeError):
        delattr(a, fields[0])
    assert a == b
    assert copy.copy(a) == copy.deepcopy(a) == pickle.loads(pickle.dumps(a)) == a
    with pytest.raises(error, match=re.escape(message)):
        bad()


def test_equal_fields_of_another_class_are_not_equal():
    assert EpsilonVector((1, 0)) != Partition((1, 0))
    assert Partition((1, 0)) != EpsilonVector((1, 0))
    assert len({EpsilonVector((1, 0)), Partition((1, 0))}) == 2


def test_report_to_dict_is_ordered_and_detached():
    report = VALUE_TYPES[4][1]()
    data = report.to_dict()
    assert list(data) == ["claim", "params", "status", "counterexample", "elapsed_ms"]
    assert data == {
        "claim": "theorem",
        "params": {"r": 2},
        "status": "fail",
        "counterexample": {"lhs": [1, (2, 3)]},
        "elapsed_ms": 1.5,
    }
    data["params"]["r"] = 3
    data["counterexample"]["lhs"].append(4)
    assert report.params == {"r": 2}
    assert report.counterexample == {"lhs": [1, (2, 3)]}
    assert report.to_dict()["counterexample"] is not report.counterexample
