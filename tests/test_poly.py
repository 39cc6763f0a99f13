import math
import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wreath_identity import poly
from wreath_identity.poly import (
    CoefficientOverflowError,
    INT64_MAX,
    INT64_MIN,
    Monomial,
    TruncatedPoly,
    _decode,
    _pack,
    _slot_width,
    compare_product,
    expand_denominator,
    first_difference,
    lhs_base,
    lhs_term,
    mul_by_terms,
    q_integer,
    slice_product,
    u_integer,
)


def poly_of(cap, entries):
    """Shorthand: entries maps (q, t, u) -> coeff."""
    return TruncatedPoly(cap, {Monomial(*key): c for key, c in entries.items()})


# -- q/u-integers --------------------------------------------------------------


def test_q_integer_zero_is_zero_polynomial():
    assert q_integer(0, 5) == TruncatedPoly.zero(5)


def test_q_integer_one_is_constant_one():
    assert q_integer(1, 5) == TruncatedPoly.one(5)


def test_q_integer_three():
    assert q_integer(3, 5) == poly_of(5, {(0, 0, 0): 1, (1, 0, 0): 1, (2, 0, 0): 1})


def test_u_integer_examples():
    assert u_integer(0, 5) == TruncatedPoly.zero(5)
    assert u_integer(1, 5) == TruncatedPoly.one(5)
    assert u_integer(2, 5) == poly_of(5, {(0, 0, 0): 1, (0, 0, 1): 1})


def test_integer_index_must_be_nonnegative():
    with pytest.raises(ValueError):
        q_integer(-1, 3)
    with pytest.raises(ValueError):
        u_integer(-2, 3)
    negative_caps = [(q_integer, (2, -1)), (expand_denominator, (2, -1)), (lhs_base, (2, 1, -1))]
    for build, args in negative_caps:
        with pytest.raises(ValueError, match="t_cap must be nonnegative, got -1"):
            build(*args)


def test_caps_and_counts_must_be_ints():
    expand_denominator(2, 1)
    for cap in (True, 2.0, "2"):
        builds = [(TruncatedPoly, (cap,)), (lhs_base, (2, 1, cap)), (expand_denominator, (2, cap))]
        for build, args in builds:
            with pytest.raises(ValueError, match=re.escape(f"t_cap must be an integer, got {cap!r}")):
                build(*args)
    for n in (True, 2.0, "2"):
        with pytest.raises(ValueError, match=re.escape(f"number of variables, got n={n!r}")):
            expand_denominator(n, 1)
    # A refused True must not have found, or left, the entry of 1.
    assert type(expand_denominator(2, 1).t_cap) is int
    assert repr(expand_denominator(2, 1)).startswith("<TruncatedPoly cap=1:")


# -- ring operations -----------------------------------------------------------


def test_binomial_square():
    p = TruncatedPoly.one(4) + TruncatedPoly.term(4, 1, q=1, t=1)
    assert p * p == poly_of(4, {(0, 0, 0): 1, (1, 1, 0): 2, (2, 2, 0): 1})


def test_pow_zero_is_one():
    p = poly_of(3, {(1, 1, 2): 7, (0, 2, 0): -3})
    assert p**0 == TruncatedPoly.one(3)
    # Empty cube intervals (color > 0 at height 0) are raised to powers.
    zero = TruncatedPoly.zero(3)
    assert zero**0 == TruncatedPoly.one(3)
    for e in range(1, 5):
        assert zero**e == zero


def test_mul_discards_past_the_cap():
    top = TruncatedPoly.term(2, 1, t=2)
    t = TruncatedPoly.term(2, 1, t=1)
    assert top * t == TruncatedPoly.zero(2)


def test_cap_mismatch_raises():
    with pytest.raises(ValueError, match="t_cap mismatch"):
        q_integer(2, 3) + q_integer(2, 4)
    with pytest.raises(ValueError, match="t_cap mismatch"):
        q_integer(2, 3) * q_integer(2, 4)


def test_int_operands_coerce_to_constants():
    p = q_integer(2, 3)
    assert 1 + p == p + 1
    assert 2 * p == p + p
    assert (p - 1) == TruncatedPoly.term(3, 1, q=1)


def test_negative_exponent_rejected():
    with pytest.raises(ValueError):
        TruncatedPoly(3, {Monomial(-1, 0, 0): 1})
    for e in (-1, 2.0, "2", True):
        with pytest.raises(ValueError, match=f"exponent must be a nonnegative integer, got {e}"):
            q_integer(2, 3) ** e


@pytest.mark.parametrize(
    "terms",
    [
        {Monomial(0, 0, 0): 1.5},
        {Monomial(0.5, 0, 0): 1},
        {Monomial(0, 0, 0): True},
    ],
    ids=["float coefficient", "float exponent", "bool coefficient"],
)
def test_non_int_terms_rejected(terms):
    with pytest.raises(TypeError, match="must be ints"):
        TruncatedPoly(1, terms)


def test_zero_coefficients_are_purged():
    p = TruncatedPoly(3, {Monomial(1, 0, 0): 5, Monomial(0, 0, 0): 0})
    assert p.terms == {Monomial(1, 0, 0): 5}
    assert (p - p).is_zero()


def test_equality_is_structural_and_cap_sensitive():
    assert q_integer(3, 5) == q_integer(3, 5)
    assert q_integer(3, 5) != q_integer(3, 4)


def test_coefficient_overflow_raises():
    big = TruncatedPoly.term(1, INT64_MAX)
    with pytest.raises(CoefficientOverflowError):
        big + 1
    with pytest.raises(CoefficientOverflowError):
        big * 2
    with pytest.raises(CoefficientOverflowError):
        TruncatedPoly.term(1, INT64_MAX + 1)
    # Duplicate monomials are summed exactly; only the merged value is checked.
    one = Monomial(0, 0, 0)
    merged = TruncatedPoly(0, [(one, 2**62), (one, 2**62), (one, -(2**62))])
    assert merged.coefficient() == 2**62
    with pytest.raises(CoefficientOverflowError):
        TruncatedPoly(0, [(one, INT64_MAX), (one, 1)])


def test_immutability():
    p = q_integer(2, 3)
    with pytest.raises(AttributeError):
        p.t_cap = 7
    p.terms[Monomial(9, 0, 0)] = 1  # .terms is a copy
    assert p == q_integer(2, 3)


# -- the denominator expansion ---------------------------------------------------

# Oracle for n=1: the coefficient of t^k in 1/((1-t)(1-qt)) is [k+1]_q, by
# collecting t^k = t^a * (qt)^b over a+b=k, contributing q^b for b=0..k.


def test_expand_denominator_n1_frozen():
    expected = poly_of(
        2,
        {
            (0, 0, 0): 1,
            (0, 1, 0): 1,
            (1, 1, 0): 1,
            (0, 2, 0): 1,
            (1, 2, 0): 1,
            (2, 2, 0): 1,
        },
    )
    assert expand_denominator(1, 2) == expected


def test_expand_denominator_n1_slices_are_q_integers():
    series = expand_denominator(1, 6)
    for k in range(7):
        assert series.t_slice(k) == q_integer(k + 1, 6) * TruncatedPoly.term(6, 1, t=k)


def test_expand_denominator_constant_slice_is_one():
    for n in (1, 2, 5):
        assert expand_denominator(n, 0) == TruncatedPoly.one(0)


def test_expand_denominator_t1_slice():
    # First-order expansion of each factor contributes q^j for j = 0, 1, 2.
    series = expand_denominator(2, 1)
    expected = poly_of(1, {(0, 1, 0): 1, (1, 1, 0): 1, (2, 1, 0): 1})
    assert series.t_slice(1) == expected


def denominator_by_products(n, cap):
    """prod_{j=0}^n 1/(1 - q^j t) as the product of n+1 geometric series: the oracle."""
    result = TruncatedPoly.one(cap)
    for j in range(n + 1):
        result = result * TruncatedPoly(cap, {Monomial(j * m, m, 0): 1 for m in range(cap + 1)})
    return result


@pytest.mark.parametrize("n", range(1, 8))
def test_expand_denominator_matches_geometric_products(n):
    for cap in range(31):
        assert expand_denominator(n, cap) == denominator_by_products(n, cap), cap


@pytest.mark.parametrize("largest", [5, 400, 20_000])
def test_expand_denominator_refuses_where_the_products_do(monkeypatch, largest):
    # Each partial product of the oracle has coefficients no larger than the
    # result's, so both refuse exactly where a result coefficient leaves the
    # range.  __wrapped__ bypasses the cache of full-range results.
    monkeypatch.setattr(poly, "INT64_MAX", largest)
    refusals = 0
    for n in range(1, 8):
        for cap in range(0, 31, 3):
            try:
                expected = denominator_by_products(n, cap)
            except CoefficientOverflowError:
                refusals += 1
                with pytest.raises(CoefficientOverflowError):
                    expand_denominator.__wrapped__(n, cap)
            else:
                assert max(expected.terms.values()) <= largest
                assert expand_denominator.__wrapped__(n, cap) == expected
    assert 0 < refusals < 7 * 11


@pytest.mark.parametrize("n,cap", [(1, 4), (2, 4), (3, 5), (4, 6)])
def test_expand_denominator_inverts_the_product(n, cap):
    series = expand_denominator(n, cap)
    product = TruncatedPoly.one(cap)
    for j in range(n + 1):
        product = product * (TruncatedPoly.one(cap) - TruncatedPoly.term(cap, 1, q=j, t=1))
    assert series * product == TruncatedPoly.one(cap)


# -- the left-side summand -------------------------------------------------------


def test_lhs_term_height_zero_is_one():
    for r, n in [(1, 1), (2, 3), (4, 2)]:
        assert lhs_term(r, n, 0, 5) == TruncatedPoly.one(5)


def test_lhs_term_r2_n2_k1_frozen():
    # (1 + q + u)^2 * t, the sum of the nine point weights at height 1.
    expected = poly_of(
        4,
        {
            (0, 1, 0): 1,
            (1, 1, 0): 2,
            (0, 1, 1): 2,
            (2, 1, 0): 1,
            (1, 1, 1): 2,
            (0, 1, 2): 1,
        },
    )
    assert lhs_term(2, 2, 1, 4) == expected


def test_lhs_term_r1_has_no_u():
    for n, k in [(1, 2), (3, 1), (2, 3)]:
        expected = q_integer(k + 1, 5) ** n * TruncatedPoly.term(5, 1, t=k)
        assert lhs_term(1, n, k, 5) == expected


def test_lhs_term_k_above_cap_raises():
    with pytest.raises(ValueError):
        lhs_term(2, 2, 3, 2)


@pytest.mark.parametrize("r,n", [(1, 1), (2, 2), (3, 2), (2, 4)])
def test_lhs_term_at_q_u_one_counts_points(r, n):
    for k in range(4):
        term = lhs_term(r, n, k, 4)
        assert term.t_slice(k).evaluate(q=1, t=1, u=1) == (k * r + 1) ** n


# -- ring laws and truncation coherence (property tests) -------------------------


def small_polys(cap):
    monomials = st.tuples(
        st.integers(0, 3), st.integers(0, cap), st.integers(0, 3)
    ).map(lambda e: Monomial(*e))
    return st.dictionaries(monomials, st.integers(-40, 40), max_size=6).map(
        lambda terms: TruncatedPoly(cap, terms)
    )


@given(small_polys(3), small_polys(3), small_polys(3))
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(small_polys(4), small_polys(4), st.integers(0, 4))
def test_truncation_coherence(a, b, new_cap):
    assert (a * b).truncate(new_cap) == a.truncate(new_cap) * b.truncate(new_cap)
    assert (a + b).truncate(new_cap) == a.truncate(new_cap) + b.truncate(new_cap)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_expand_denominator_truncation_coherence(n):
    full = expand_denominator(n, 6)
    for cap in range(7):
        assert full.truncate(cap) == expand_denominator(n, cap)


def test_truncate_cannot_raise_the_cap():
    with pytest.raises(ValueError):
        q_integer(2, 3).truncate(4)


# -- the Kronecker kernel against the term-pair oracle ----------------------------


def polys(cap, coeffs):
    monomials = st.tuples(
        st.integers(0, 12), st.integers(0, cap), st.integers(0, 12)
    ).map(lambda e: Monomial(*e))
    return st.dictionaries(monomials, coeffs, max_size=8).map(
        lambda terms: TruncatedPoly(cap, terms)
    )


def poly_pairs(left, right):
    return st.integers(0, 6).flatmap(
        lambda cap: st.tuples(polys(cap, left), polys(cap, right))
    )


SMALL = st.integers(-40, 40)
NEAR_2_62 = st.builds(
    lambda sign, offset: sign * (2**62 + offset),
    st.sampled_from([1, -1]),
    st.integers(-(2**20), 2**20),
)


def unchecked_product(a, b):
    """The exact product's nonzero coefficients, with no range check."""
    out = {}
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            if m1.t + m2.t <= a.t_cap:
                mon = Monomial(m1.q + m2.q, m1.t + m2.t, m1.u + m2.u)
                out[mon] = out.get(mon, 0) + c1 * c2
    return {mon: c for mon, c in out.items() if c}


@given(poly_pairs(SMALL, SMALL))
def test_product_matches_the_oracle(pair):
    a, b = pair
    assert a * b == mul_by_terms(a, b)
    assert b * a == mul_by_terms(b, a)


@given(poly_pairs(SMALL, SMALL), SMALL)
def test_int_operands_match_the_oracle(pair, k):
    a, _ = pair
    constant = TruncatedPoly.term(a.t_cap, k)
    assert k * a == mul_by_terms(constant, a)
    assert a * k == mul_by_terms(a, constant)


def test_zero_operands_give_zero():
    p = poly_of(3, {(1, 1, 0): 5, (0, 2, 4): -2})
    zero = TruncatedPoly.zero(3)
    for product in (p * zero, zero * p, zero * zero, p * 0, 0 * p):
        assert product == zero == mul_by_terms(p, zero)


@given(poly_pairs(NEAR_2_62, st.integers(-3, 3)))
def test_product_near_the_int64_bounds_is_exact_or_refused(pair):
    big, small = pair
    exact = unchecked_product(big, small)
    if all(INT64_MIN <= c <= INT64_MAX for c in exact.values()):
        assert (big * small).terms == exact
        assert (small * big).terms == exact
        try:
            assert mul_by_terms(big, small) == big * small
        except CoefficientOverflowError:
            pass  # the oracle also refuses a partial sum outside int64
    else:
        with pytest.raises(CoefficientOverflowError):
            big * small
        with pytest.raises(CoefficientOverflowError):
            mul_by_terms(big, small)


def test_product_reaches_both_int64_bounds_exactly():
    one_plus_q = poly_of(0, {(0, 0, 0): 1, (1, 0, 0): 1})
    half = 2**62

    def q_coefficient(c0, c1):
        return (poly_of(0, {(0, 0, 0): c0, (1, 0, 0): c1}) * one_plus_q).coefficient(q=1)

    assert q_coefficient(half, half - 1) == INT64_MAX
    assert q_coefficient(-half, -half) == INT64_MIN
    with pytest.raises(CoefficientOverflowError):
        q_coefficient(half, half)
    with pytest.raises(CoefficientOverflowError):
        q_coefficient(-half, -half - 1)


@pytest.mark.parametrize("bits", [7, 8, 15, 16, 23, 24, 31, 32, 62])
@pytest.mark.parametrize("delta", [-1, 0, 1])
@pytest.mark.parametrize("signs", [(1, 1, 1, 1), (1, -1, -1, 1), (-1, 1, 1, -1)])
def test_products_at_a_slot_width_boundary_unpack_exactly(bits, delta, signs):
    # Every coefficient of the product equals the bound ||a||_1 * ||b||_inf,
    # so neighbouring slots are all full; a carry or borrow between slots
    # would change one of them.
    c = 2**bits + delta
    a = TruncatedPoly.term(2, c, t=1)
    shape = [(0, 0, 0), (1, 0, 0), (0, 0, 1), (1, 0, 1)]
    b = poly_of(2, dict(zip(shape, signs)))
    expected = poly_of(2, {(q, t + 1, u): sign * c for (q, t, u), sign in zip(shape, signs)})
    assert a * b == expected == mul_by_terms(a, b)
    # Here the bound is reached by a sum of three term products.
    a3 = TruncatedPoly.term(2, c // 3) * q_integer(3, 2)
    product = a3 * q_integer(3, 2)
    assert product == mul_by_terms(a3, q_integer(3, 2))
    assert product.coefficient(q=2) == 3 * (c // 3)


@settings(deadline=None)
@given(st.sampled_from([1, 2, 4, 8, 9]), st.integers(1, 4), st.data())
def test_decode_reads_back_every_packed_slice(width, span, data):
    # Slots hold |c| < bias = 2^(8*width-1), and the readback takes a
    # slice's slot count from its int alone.  Coefficients stay inside
    # int64, where the readback's range check passes, so 9-byte slots are
    # never full.
    layout = (span, *_slot_width(2 ** (8 * width - 1) - 1))
    assert layout[1] == width
    full = min(2 ** (8 * width - 1) - 1, INT64_MAX)
    coeffs = st.one_of(st.sampled_from([0, 1, -1, full, -full]), st.integers(-full, full))
    mons = st.builds(Monomial, st.integers(0, 3), st.integers(0, 2), st.integers(0, span - 1))
    terms = data.draw(st.dictionaries(mons, coeffs, max_size=8))
    # The tight case at t^3: +-1 in the top slot over full slots of the
    # other sign, so the int lies just past 2^(8*width*top - 1).
    top, sign = data.draw(st.integers(0, 3 * span)), data.draw(st.sampled_from([1, -1]))
    terms.update({Monomial(at // span, 3, at % span): -sign * full for at in range(top)})
    terms[Monomial(top // span, 3, top % span)] = sign
    packed = _pack(terms, layout)
    packed[4] = 0  # a product slice that cancelled
    assert _decode(packed, layout) == {m: c for m, c in terms.items() if c}


def single_terms(cap, coeffs):
    monomials = st.tuples(st.integers(0, 12), st.integers(0, cap), st.integers(0, 12))
    return st.builds(
        lambda mon, c: TruncatedPoly(cap, {Monomial(*mon): c}), monomials, coeffs
    )


@given(
    st.integers(0, 6).flatmap(
        lambda cap: st.tuples(polys(cap, SMALL), single_terms(cap, SMALL.filter(bool)))
    )
)
def test_single_term_operands_match_the_oracle(pair):
    # A t-shift past the cap and negative coefficients are drawn here.
    p, term = pair
    assert p * term == mul_by_terms(p, term)
    assert term * p == mul_by_terms(term, p)
    assert term * term == mul_by_terms(term, term)


def test_single_term_shift_drops_terms_past_the_cap():
    p = poly_of(3, {(0, 0, 0): 2, (1, 1, 2): -3, (0, 2, 1): 5, (4, 3, 0): 1})
    shift = TruncatedPoly.term(3, -7, q=1, t=2, u=3)
    expected = poly_of(3, {(1, 2, 3): -14, (2, 3, 5): 21})
    assert p * shift == shift * p == expected == mul_by_terms(p, shift)


def test_single_term_products_are_range_checked():
    one = TruncatedPoly.one(0)
    top = TruncatedPoly.term(0, INT64_MAX, q=2)
    assert top * one == one * top == top == mul_by_terms(top, one)
    two = TruncatedPoly.term(0, 2, u=1)
    bottom = TruncatedPoly.term(0, -(2**62))
    assert (bottom * two).terms == {Monomial(0, 0, 1): INT64_MIN}
    for half in (TruncatedPoly.term(0, 2**62), TruncatedPoly.term(0, 2**62, q=1)):
        for product in (lambda: half * two, lambda: two * half, lambda: mul_by_terms(half, two)):
            with pytest.raises(CoefficientOverflowError):
                product()


@pytest.mark.parametrize("bound_bits", [7, 8, 15, 16, 31, 32, 63, 64])
@pytest.mark.parametrize("top", [False, True])
@pytest.mark.parametrize("signs", [(1, 1, 1, 1), (1, -1, -1, 1), (-1, 1, 1, -1)])
def test_products_on_both_sides_of_each_rounded_slot_width(bound_bits, top, signs):
    # a = c*t + c*t^2 and b has four terms of size 1, so the bound is 2c,
    # and slots of 1, 2, 4 or 8 bytes hold bounds of at most 7, 15, 31
    # and 63 bits; 64 bits needs wider slots, and there every result still
    # fits in int64.  Every product slot is full (+-c), so a carry or borrow
    # between slots would change one of them.
    c = 2 ** (bound_bits - 1) - 1 if top else 2 ** (bound_bits - 2)
    assert (2 * c).bit_length() == bound_bits
    a = poly_of(3, {(0, 1, 0): c, (0, 2, 0): c})
    shape = [(0, 0, 0), (1, 0, 0), (0, 0, 1), (1, 0, 1)]
    b = poly_of(3, dict(zip(shape, signs)))
    expected = poly_of(
        3,
        {(q, t + dt, u): sign * c for (q, t, u), sign in zip(shape, signs) for dt in (1, 2)},
    )
    assert a * b == b * a == expected == mul_by_terms(a, b)


def test_mixed_sign_product_is_exact_where_partial_sums_overflow():
    # The q^2 coefficient is x + x - x: the result fits, but the running sum
    # in term-pair order reaches 2^63 first, so the oracle refuses it.
    x = 2**62
    a = poly_of(0, {(j, 0, 0): -x for j in range(4)})
    b = poly_of(0, {(0, 0, 0): 1, (1, 0, 0): -1, (2, 0, 0): -1, (3, 0, 0): 1})
    expected = poly_of(0, {(0, 0, 0): -x, (2, 0, 0): x, (4, 0, 0): x, (6, 0, 0): -x})
    assert a * b == expected
    with pytest.raises(CoefficientOverflowError):
        mul_by_terms(a, b)


# -- powers against the product chain ---------------------------------------------


def chain_power(p, e):
    """p ** e as the chain ((1 * p) * p) * ... through the term-pair oracle."""
    result = TruncatedPoly.one(p.t_cap)
    for _ in range(e):
        result = mul_by_terms(result, p)
    return result


def unchecked_power(p, e):
    """The exact nonzero coefficients of p ** e, with no range check."""
    result = {Monomial(0, 0, 0): 1}
    for _ in range(e):
        out = {}
        for m1, c1 in result.items():
            for m2, c2 in p.terms.items():
                if m1.t + m2.t <= p.t_cap:
                    mon = Monomial(m1.q + m2.q, m1.t + m2.t, m1.u + m2.u)
                    out[mon] = out.get(mon, 0) + c1 * c2
        result = {mon: c for mon, c in out.items() if c}
    return result


def fits(terms):
    return all(INT64_MIN <= c <= INT64_MAX for c in terms.values())


def slice_polys(cap, coeffs, t=None, top=12):
    """Polynomials whose terms all lie on one t-degree (t, or a drawn one)."""
    degree = st.just(t) if t is not None else st.integers(0, cap)
    exponents = st.tuples(st.integers(0, top), st.integers(0, top))
    return degree.flatmap(
        lambda t: st.dictionaries(exponents, coeffs, min_size=1, max_size=6).map(
            lambda qu: TruncatedPoly(cap, {Monomial(q, t, u): c for (q, u), c in qu.items()})
        )
    )


# The term-pair chain can take longer than the default deadline.
@settings(deadline=None)
@given(
    st.integers(0, 6).flatmap(
        lambda cap: st.one_of(slice_polys(cap, SMALL), polys(cap, SMALL))
    ),
    st.integers(0, 6),
)
def test_power_matches_the_product_chain(p, e):
    # Single-slice bases take one big-int power, the others the chain of
    # products; both are drawn signed, with results past the cap included.
    assert p**e == chain_power(p, e)


@given(
    st.integers(1, 6).flatmap(lambda cap: slice_polys(cap, SMALL, t=cap)), st.integers(2, 6)
)
def test_single_slice_power_past_the_cap_is_zero(p, e):
    assert p**e == TruncatedPoly.zero(p.t_cap) == chain_power(p, e)


def test_single_slice_power_past_the_cap_forms_no_intermediate():
    # (2^40 t)^3 at cap 2 is zero; the chain refuses its square 2^80 t^2.
    p = TruncatedPoly.term(2, 2**40, t=1)
    assert p**3 == TruncatedPoly.zero(2)
    with pytest.raises(CoefficientOverflowError):
        chain_power(p, 3)


def test_multi_slice_power_past_the_cap_decodes_no_intermediate():
    # (2^40 t + 2^40 t^2)^3 at cap 2 is zero; the chain refuses its square,
    # whose t^2 coefficient is 2^80.
    p = poly_of(2, {(0, 1, 0): 2**40, (0, 2, 0): 2**40})
    assert p**3 == TruncatedPoly.zero(2)
    with pytest.raises(CoefficientOverflowError):
        chain_power(p, 3)


def nonnegative_bases_near_int64(cap_e):
    """(base, e) with e * t-degree <= cap, coefficients near 2^(63/e)."""
    cap, e = cap_e
    size = st.integers(0, min(2 ** (64 // e + 1), 2**62 - 1))
    single = st.integers(0, cap // e).flatmap(lambda t: slice_polys(cap, size, t=t, top=3))
    # A multi-slice base with a term at t^0: its powers' largest
    # coefficients never shrink with the exponent, as on one slice.
    multi = st.tuples(
        slice_polys(cap, size.filter(bool), t=0, top=3), slice_polys(cap, size, top=3)
    ).map(lambda pair: pair[0] + pair[1])
    return st.tuples(st.one_of(single, multi), st.just(e))


# The term-pair chain can take longer than the default deadline.
@settings(deadline=None)
@given(
    st.tuples(st.integers(0, 6), st.integers(1, 6)).flatmap(nonnegative_bases_near_int64)
)
def test_nonnegative_power_refuses_exactly_where_the_chain_refuses(pair):
    p, e = pair
    exact = unchecked_power(p, e)
    if fits(exact):
        assert (p**e).terms == exact == chain_power(p, e).terms
    else:
        with pytest.raises(CoefficientOverflowError):
            p**e
        with pytest.raises(CoefficientOverflowError):
            chain_power(p, e)


# The term-pair chain can take longer than the default deadline.
@settings(deadline=None)
@given(
    st.integers(0, 4).flatmap(
        lambda cap: st.one_of(
            slice_polys(cap, NEAR_2_62 | st.integers(-(2**21), 2**21)),
            polys(cap, NEAR_2_62 | st.integers(-(2**21), 2**21)),
        )
    ),
    st.integers(1, 4),
)
def test_signed_power_is_exact_where_it_is_not_refused(p, e):
    # A signed chain may refuse a partial sum whose final coefficient fits;
    # the power, on one t-degree or several, is refused only when its exact
    # result leaves the range.
    exact = unchecked_power(p, e)
    if fits(exact):
        assert (p**e).terms == exact
        try:
            assert chain_power(p, e).terms == exact
        except CoefficientOverflowError:
            pass
    else:
        with pytest.raises(CoefficientOverflowError):
            p**e
        with pytest.raises(CoefficientOverflowError):
            chain_power(p, e)


@pytest.mark.parametrize("bound_bits", [7, 8, 15, 16, 31, 32, 63, 64])
@pytest.mark.parametrize("top", [False, True])
@pytest.mark.parametrize("sign", [1, -1])
def test_powers_on_both_sides_of_each_rounded_slot_width(bound_bits, top, sign):
    # (c + sign*c*u)^2 has coefficients c^2, 2*sign*c^2, c^2, and its bound
    # ||a||_1 * ||a||_inf is 2c^2, reached by the middle one.  At 64 bits
    # the bound passes 2^63 and the power takes 9-byte slots: 2c^2 then
    # leaves int64 unless it is exactly -2^63.
    if top:
        c = math.isqrt((2**bound_bits - 1) // 2)
    else:
        c = math.isqrt(2 ** (bound_bits - 2) - 1) + 1
    assert (2 * c * c).bit_length() == bound_bits
    p = poly_of(3, {(0, 1, 0): c, (0, 1, 1): sign * c})
    exact = {(0, 2, 0): c * c, (0, 2, 1): 2 * sign * c * c, (0, 2, 2): c * c}
    if fits(exact):
        assert (p**2).terms == exact == chain_power(p, 2).terms
    else:
        assert bound_bits == 64
        with pytest.raises(CoefficientOverflowError):
            p**2
        with pytest.raises(CoefficientOverflowError):
            chain_power(p, 2)


@pytest.mark.parametrize("sign", [1, -1])
def test_power_with_a_bound_past_2_63_takes_the_wide_path(sign):
    # c^3 (1 + s q + q^2 + s q^3)^3, s = sign, has largest |coefficient|
    # 12 c^3 against the bound 16 c^3: the bound passes 2^63, the result fits.
    c = int((2**59) ** (1 / 3)) - 1
    while 16 * c**3 < 2**63:
        c += 1
    assert 12 * c**3 <= INT64_MAX
    assert _slot_width(16 * c**3)[1] is None
    p = poly_of(1, {(j, 0, 0): sign**j * c for j in range(4)})
    assert p**3 == chain_power(p, 3)
    assert max(map(abs, (p**3).terms.values())) == 12 * c**3


def test_kernel_range_check_follows_int64_max(monkeypatch):
    # The range check reads the module's bounds at call time, once per
    # slice: a product, a power and a shift each refuse past a lowered bound.
    monkeypatch.setattr(poly, "INT64_MAX", 100)
    monkeypatch.setattr(poly, "INT64_MIN", -100)
    one_plus_q = q_integer(2, 1)
    assert (one_plus_q * poly_of(1, {(0, 0, 0): 50, (1, 0, 0): 50})).coefficient(q=1) == 100
    with pytest.raises(CoefficientOverflowError):
        one_plus_q * poly_of(1, {(0, 0, 0): 51, (1, 0, 1): 51, (1, 0, 0): 51})
    with pytest.raises(CoefficientOverflowError):
        one_plus_q * poly_of(1, {(0, 0, 0): -51, (1, 0, 0): -51})
    assert (one_plus_q**8).coefficient(q=4) == 70
    with pytest.raises(CoefficientOverflowError):
        one_plus_q**9
    with pytest.raises(CoefficientOverflowError):
        lhs_term(1, 9, 1, 1)
    # Scaled by 2 only the least coefficient leaves the range, by -2 only
    # the greatest.
    p = poly_of(1, {(0, 0, 0): 1, (2, 0, 0): -60})
    assert (p * TruncatedPoly.term(1, 1, t=1)).coefficient(q=2, t=1) == -60
    for scale in (2, -2):
        with pytest.raises(CoefficientOverflowError):
            p * TruncatedPoly.term(1, scale, t=1)
        with pytest.raises(CoefficientOverflowError):
            TruncatedPoly.term(1, scale, u=1) * p


# -- power products on t-degree 0 -----------------------------------------------------


def chain_product(factors, t, cap):
    """prod a ** e * t^t as the chain of term-pair products: the oracle."""
    result = TruncatedPoly.term(cap, 1, t=t)
    for a, e in factors:
        for _ in range(e):
            result = mul_by_terms(result, a)
    return result


def unchecked_slice_product(factors, t, cap):
    """The exact nonzero coefficients of prod a ** e * t^t, with no range check."""
    if t > cap:
        return {}
    result = {(0, 0): 1}
    for a, e in factors:
        for _ in range(e):
            out = {}
            for (q1, u1), c1 in result.items():
                for m, c2 in a.terms.items():
                    key = (q1 + m.q, u1 + m.u)
                    out[key] = out.get(key, 0) + c1 * c2
            result = {key: c for key, c in out.items() if c}
    return {Monomial(q, t, u): c for (q, u), c in result.items()}


def factor_lists(cap, coeffs, exponents, top=3):
    """Up to three (factor, exponent) pairs, each factor on t-degree 0 and possibly zero."""
    factor = st.one_of(st.just(TruncatedPoly.zero(cap)), slice_polys(cap, coeffs, t=0, top=top))
    return st.lists(st.tuples(factor, exponents), max_size=3)


def height_maps(cap, coeffs, exponents, top=3):
    """Maps {t: factor list} of up to three heights, each up to two past the cap."""
    return st.dictionaries(
        st.integers(0, cap + 2), factor_lists(cap, coeffs, exponents, top), max_size=3
    )


def chain_sum(heights, cap):
    """sum_t t^t prod a ** e over the heights, one chain product each: the oracle."""
    total = TruncatedPoly.zero(cap)
    for t, factors in heights.items():
        total = total + chain_product(factors, t, cap)
    return total


# The term-pair chain can take longer than the default deadline.
@settings(deadline=None)
@given(
    st.integers(0, 5).flatmap(
        lambda cap: st.tuples(height_maps(cap, st.integers(-3, 3), st.integers(0, 3)), st.just(cap))
    )
)
def test_slice_product_matches_the_product_chain(args):
    # Zero exponents, zero factors and heights past the cap are all drawn.
    heights, cap = args
    assert slice_product(heights, cap) == chain_sum(heights, cap)


def test_slice_product_edge_cases():
    cap = 3
    zero, p = TruncatedPoly.zero(cap), q_integer(3, cap)
    assert slice_product({}, cap) == zero
    assert slice_product({2: []}, cap) == TruncatedPoly.term(cap, 1, t=2)
    assert slice_product({1: [(zero, 0), (p, 0)]}, cap) == TruncatedPoly.term(cap, 1, t=1)
    assert slice_product({0: [(zero, 2), (p, 1)]}, cap) == zero
    # Past the cap nothing is multiplied: the chain refuses this product.
    big = TruncatedPoly.term(cap, 2**40)
    assert slice_product({cap + 1: [(big, 3)], 0: [(p, 1)]}, cap) == p
    with pytest.raises(CoefficientOverflowError):
        slice_product({cap: [(big, 3)]}, cap)


@pytest.mark.parametrize(
    "factors,error",
    [
        ([(TruncatedPoly.term(3, 1, t=1), 2)], "every factor must lie on t-degree 0"),
        ([(q_integer(2, 4), 2)], "t_cap mismatch: 4 vs 3"),
        ([(q_integer(2, 3), -1)], "exponent must be a nonnegative integer, got -1"),
    ],
)
def test_slice_product_rejects_bad_factors(factors, error):
    # A height past the cap adds nothing, but its factors are checked too.
    for t in (0, 4):
        with pytest.raises(ValueError, match=error):
            slice_product({t: factors}, 3)
    with pytest.raises(ValueError, match="t-exponent must be a nonnegative integer, got -1"):
        slice_product({-1: []}, 3)


@given(st.integers(0, 4).flatmap(lambda cap: slice_polys(cap, SMALL.filter(bool), t=0)), st.integers(1, 8))
def test_a_single_factor_gets_the_power_bound_slot_width(a, e):
    bounds = []

    def recorded(bound):
        bounds.append(bound)
        return _slot_width(bound)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(poly, "_slot_width", recorded)
        power = slice_product({0: [(a, e)]}, a.t_cap)
    # ||a||_1^(e-1) * ||a||_inf
    sizes = list(map(abs, a.terms.values()))
    power_bound = sum(sizes) ** (e - 1) * max(sizes)
    assert bounds == [power_bound]
    assert list(map(_slot_width, bounds)) == [_slot_width(power_bound)]
    assert power == chain_power(a, e)


@pytest.mark.parametrize(
    "constants,fits_int64",
    [
        ([(7, 2), (73 * 127, 1), (337 * 92737 * 649657, 1)], True),  # 2^63 - 1
        ([(2**21, 3)], False),  # 2^63
        ([(-(2**21), 3)], True),  # -2^63
        ([(-3, 3), (19 * 43 * 5419 * 77158673929, 1)], False),  # -2^63 - 1
    ],
)
def test_slice_product_refuses_exactly_past_int64(constants, fits_int64):
    # Times 1 + q, so the extreme coefficient fills two slots.
    cap = 2
    exact = math.prod(c**e for c, e in constants)
    assert (INT64_MIN <= exact <= INT64_MAX) == fits_int64
    factors = [(TruncatedPoly.term(cap, c), e) for c, e in constants] + [(q_integer(2, cap), 1)]
    if fits_int64:
        expected = poly_of(cap, {(0, 1, 0): exact, (1, 1, 0): exact})
        assert slice_product({1: factors}, cap) == expected == chain_product(factors, 1, cap)
    else:
        with pytest.raises(CoefficientOverflowError):
            slice_product({1: factors}, cap)


def near_int64_products(exponents):
    """Nonnegative (factors, t, cap) with these exponents, whose products reach about 2^63."""
    size = st.integers(0, min(2 ** (64 // sum(exponents) + 1), 2**62 - 1))
    return st.integers(0, 4).flatmap(
        lambda cap: st.tuples(
            st.tuples(*(st.tuples(slice_polys(cap, size, t=0, top=3), st.just(e)) for e in exponents)),
            st.integers(0, cap + 1),
            st.just(cap),
        )
    )


@given(st.lists(st.integers(1, 3), min_size=1, max_size=3).flatmap(near_int64_products))
def test_slice_product_refuses_exactly_where_a_coefficient_leaves_int64(args):
    factors, t, cap = args
    exact = unchecked_slice_product(factors, t, cap)
    if fits(exact):
        assert slice_product({t: factors}, cap).terms == exact
    else:
        with pytest.raises(CoefficientOverflowError):
            slice_product({t: factors}, cap)


@pytest.mark.parametrize("r", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_lhs_term_matches_the_product_chain(r, n):
    cap = 6
    for k in range(cap + 1):
        colored = mul_by_terms(TruncatedPoly.term(cap, 1, u=1), u_integer(r - 1, cap))
        base = q_integer(k + 1, cap) + mul_by_terms(colored, q_integer(k, cap))
        expected = mul_by_terms(chain_power(base, n), TruncatedPoly.term(cap, 1, t=k))
        assert lhs_term(r, n, k, cap) == expected


def test_lhs_term_with_a_bound_past_2_63_is_one_power(monkeypatch):
    # [19]_q^16: the bound 19^15 passes 2^63, every coefficient fits.  Both
    # powers lie on one t-degree, so each packs the base once and reads
    # the result back once, with no product chain.
    assert _slot_width(19**15)[1] is None
    base = q_integer(19, 18)
    power = chain_power(base, 16)
    shifted = mul_by_terms(power, TruncatedPoly.term(18, 1, t=18))
    calls = []

    def counted(name, function):
        def wrapper(terms, layout):
            calls.append((name, terms))
            return function(terms, layout)

        monkeypatch.setattr(poly, name, wrapper)

    counted("_pack", _pack)
    counted("_decode", _decode)
    for build, expected in ((lambda: lhs_term(1, 16, 18, 18), shifted), (lambda: base**16, power)):
        calls.clear()
        assert build() == expected
        assert [name for name, _ in calls] == ["_pack", "_decode"]
        assert calls[0][1] == base.terms


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_lhs_base_is_the_summands_base(r):
    cap = 5
    colored = mul_by_terms(TruncatedPoly.term(cap, 1, u=1), u_integer(r - 1, cap))
    for k in range(cap + 2):
        expected = q_integer(k + 1, cap) + mul_by_terms(colored, q_integer(k, cap))
        assert lhs_base(r, k, cap) == expected


# -- the packed comparison against first_difference ----------------------------


def t_free_heights(p):
    """The t-slices of p, each moved to t-degree 0, as heights: p = slice_product(heights, cap)."""
    terms = p.terms.items()
    return {
        k: [(TruncatedPoly(p.t_cap, {Monomial(m.q, 0, m.u): c for m, c in terms if m.t == k}), 1)]
        for k in range(p.t_cap + 1)
    }


def changed_terms(terms, at, cap, delta):
    """terms with delta added at the monomial at = (q, t, u), its t clipped to the cap."""
    q, t, u = at
    mon = Monomial(q, min(t, cap), u)
    out = dict(terms)
    out[mon] = out.get(mon, 0) + delta
    return out


def assert_agrees(sides, product, other):
    expected = first_difference(product, other)
    if expected is None:
        assert sides is None
    else:
        assert sides == (product, other)
        assert first_difference(*sides) == expected


# Coefficients near 2^31 need 8-byte slots.  Coefficients near 2^62 need
# 9-byte slots, converted one at a time, and a product with a denominator
# coefficient of 2 or more leaves int64.
NEAR_2_31 = st.builds(
    lambda sign, offset: sign * (2**31 - offset),
    st.sampled_from([1, -1]),
    st.integers(0, 2**20),
)
AT = st.tuples(st.integers(0, 12), st.integers(0, 6), st.integers(0, 12))


@pytest.mark.parametrize(
    "coeffs", [SMALL, NEAR_2_31, NEAR_2_62], ids=["small", "near_2_31", "near_2_62"]
)
@settings(deadline=None)
@given(data=st.data(), n=st.integers(1, 4), at=AT, delta=st.integers(-3, 3))
def test_compare_product_agrees_with_first_difference(coeffs, data, n, at, delta):
    # c is the exact a * D, with one coefficient changed unless delta is 0.
    a = data.draw(st.integers(0, 6).flatmap(lambda cap: polys(cap, coeffs)))
    denominator = expand_denominator(n, a.t_cap)
    exact = unchecked_product(a, denominator)
    if not fits(exact):
        with pytest.raises(CoefficientOverflowError):
            compare_product(a, n, {})
        return
    c_terms = changed_terms(exact, at, a.t_cap, delta)
    assume(fits(c_terms))
    c = TruncatedPoly(a.t_cap, c_terms)
    try:
        product = mul_by_terms(a, denominator)
    except CoefficientOverflowError:
        # The oracle also refuses a partial sum outside int64; a * D does not.
        product = TruncatedPoly(a.t_cap, exact)
    assert_agrees(compare_product(a, n, t_free_heights(c)), product, c)


def times_inverse_denominator(p, n):
    """p prod_(j=0)^n (1 - q^j t) by the term-pair oracle: a * D = p for this a."""
    for j in range(n + 1):
        p = mul_by_terms(p, poly_of(p.t_cap, {(0, 0, 0): 1, (j, 1, 0): -1}))
    return p


@settings(deadline=None)
@given(
    st.integers(0, 4).flatmap(
        lambda cap: st.tuples(
            height_maps(cap, st.integers(-3, 3), st.integers(0, 4), top=4), st.just(cap)
        )
    ),
    st.integers(1, 3),
    AT,
    st.integers(-3, 3),
)
def test_compare_product_with_powers_agrees_with_first_difference(args, n, at, delta):
    # a * D is the heights' sum, with one coefficient changed unless delta is
    # 0; zero exponents, zero factors and heights past the cap are drawn.
    # Each factor has ||.||_1 <= 18, so a height's sum stays below 18^12.
    heights, cap = args
    power_sum = chain_sum(heights, cap)
    changed = TruncatedPoly(cap, changed_terms(power_sum.terms, at, cap, delta))
    a = times_inverse_denominator(changed, n)
    product = mul_by_terms(a, expand_denominator(n, cap))
    assert product == changed
    assert_agrees(compare_product(a, n, heights), product, power_sum)


@pytest.mark.parametrize("delta", [0, 1, -1])
def test_compare_product_in_slots_wider_than_8_bytes(delta):
    # a * D = c (1 - u) / (1 - q t) has every coefficient +-2^62, but the
    # bound ||a||_1 ||D||_inf = 4c needs 9-byte slots, converted one at a time.
    c = 2**62
    a = poly_of(2, {(0, 0, 0): c, (0, 1, 0): -c, (0, 0, 1): -c, (0, 1, 1): c})
    assert _slot_width(4 * c) == (9, None)
    product = mul_by_terms(a, expand_denominator(1, 2))
    assert set(map(abs, product.terms.values())) == {c}
    other = TruncatedPoly(2, changed_terms(product.terms, (1, 1, 0), 2, delta))
    assert_agrees(compare_product(a, 1, t_free_heights(other)), product, other)


def test_compare_product_rejects_bad_arguments():
    one = TruncatedPoly.one(2)
    for e in (-1, 2.0, "2", True):
        with pytest.raises(ValueError, match=f"exponent must be a nonnegative integer, got {e}"):
            compare_product(one, 1, {0: [(one, e)]})
    for n in (0, True, 2.0):
        with pytest.raises(ValueError, match=f"need a positive number of variables, got n={n}"):
            compare_product(one, n, {0: [(one, 1)]})
    for t in (-1, 1.0):
        with pytest.raises(ValueError, match=f"t-exponent must be a nonnegative integer, got {t}"):
            compare_product(one, 1, {t: []})
    with pytest.raises(ValueError, match="t-degree 0"):
        compare_product(one, 1, {0: [(TruncatedPoly.term(2, 1, t=1), 1)]})
    with pytest.raises(ValueError, match="t_cap mismatch"):
        compare_product(one, 1, {0: [(TruncatedPoly.one(3), 1)]})
    # 1 / (1 - t)(1 - q t) up to t^2, from heights with zero exponents and
    # one past the cap, which adds nothing.
    heights = {k: [(q_integer(k + 1, 2), 1), (one, 0)] for k in range(3)}
    assert compare_product(one, 1, {**heights, 3: [(one, 1)]}) is None


def test_compare_product_packs_the_numerator_once_and_no_denominator(monkeypatch):
    from wreath_identity.wreath import numerator

    r, n, cap = 2, 3, 5
    a = numerator(r, n, cap)
    bases = [lhs_base(r, k, cap) for k in range(cap + 1)]
    heights = {k: [(base, n)] for k, base in enumerate(bases)}
    packed, denominators = [], []

    def counted_pack(terms, layout):
        packed.append(terms)
        return _pack(terms, layout)

    def counted_denominator(n, cap):
        denominators.append((n, cap))
        return expand_denominator(n, cap)

    monkeypatch.setattr(poly, "_pack", counted_pack)
    monkeypatch.setattr(poly, "expand_denominator", counted_denominator)
    assert compare_product(a, n, heights) is None
    assert packed == [a.terms, *(base.terms for base in bases)]
    assert denominators == [(n, cap)]


@settings(deadline=None)
@given(st.integers(0, 8).flatmap(lambda cap: polys(cap, SMALL)), st.integers(1, 4))
def test_running_sums_are_the_product_with_the_denominator(a, n):
    # With no heights the other side is zero, so the product comes back decoded.
    expected = mul_by_terms(a, expand_denominator(n, a.t_cap))
    zero = TruncatedPoly.zero(a.t_cap)
    assert compare_product(a, n, {}) == (None if a.is_zero() else (expected, zero))


def termwise_sum(a, b):
    out = dict(a.terms)
    for mon, c in b.terms.items():
        out[mon] = out.get(mon, 0) + c
    return {mon: c for mon, c in out.items() if c}


@given(small_polys(3), small_polys(3), st.data())
def test_sum_matches_the_termwise_sum(a, b, data):
    # Overlapping supports (small exponent ranges make overlaps likely),
    # including cancellation against a part of -a.
    part = data.draw(st.sets(st.sampled_from(sorted(a.terms) or [Monomial(0, 0, 0)])))
    minus = TruncatedPoly(3, {m: -c for m, c in a.terms.items() if m in part})
    for left, right in ((a, b), (b, a), (a, minus), (minus, b)):
        assert (left + right).terms == termwise_sum(left, right)


@given(polys(4, SMALL.filter(bool)), st.data())
def test_sum_of_disjoint_supports_is_the_union(p, data):
    keep = data.draw(st.sets(st.sampled_from(sorted(p.terms) or [Monomial(0, 0, 0)])))
    a = TruncatedPoly(4, {m: c for m, c in p.terms.items() if m in keep})
    b = TruncatedPoly(4, {m: c for m, c in p.terms.items() if m not in keep})
    assert a + b == b + a == p
    assert (a + b).terms == termwise_sum(a, b)


# -- inspection ------------------------------------------------------------------


def test_coefficient_and_evaluate():
    p = poly_of(3, {(1, 1, 0): 2, (0, 0, 2): -3, (0, 0, 0): 1})
    assert p.coefficient(q=1, t=1) == 2
    assert p.coefficient(q=5) == 0
    assert p.evaluate(q=2, t=3, u=1) == 2 * 2 * 3 - 3 + 1


def test_evaluate_checks_only_the_final_value():
    # 2^62 + 2^62 q - 2^62 q^2 at q = 1: the partial sum 2^63 leaves int64,
    # the value 2^62 does not.
    p = poly_of(0, {(0, 0, 0): 2**62, (1, 0, 0): 2**62, (2, 0, 0): -(2**62)})
    assert p.evaluate(q=1) == 2**62
    with pytest.raises(CoefficientOverflowError):
        poly_of(0, {(0, 0, 0): 2**62, (1, 0, 0): 2**62}).evaluate(q=1)
    assert poly_of(0, {(0, 0, 0): INT64_MAX - 1, (1, 0, 0): 1}).evaluate() == INT64_MAX
    with pytest.raises(CoefficientOverflowError):
        poly_of(0, {(0, 0, 0): INT64_MAX, (1, 0, 0): 1}).evaluate()
    assert poly_of(0, {(0, 0, 0): INT64_MIN + 1, (1, 0, 0): -1}).evaluate() == INT64_MIN
    with pytest.raises(CoefficientOverflowError):
        poly_of(0, {(0, 0, 0): INT64_MIN, (1, 0, 0): -1}).evaluate()


def test_sorted_terms_are_ordered_by_t_q_u():
    p = poly_of(2, {(2, 1, 0): 4, (0, 0, 1): 1, (1, 1, 0): -2, (0, 2, 2): 3})
    terms = p.sorted_terms()
    keys = [(mon.t, mon.q, mon.u) for mon, _ in terms]
    assert keys == sorted(keys)
    assert terms[0] == (Monomial(0, 0, 1), 1)
    assert dict(terms) == p.terms



def test_first_difference():
    a = poly_of(3, {(0, 0, 0): 1, (1, 2, 0): 5})
    b = poly_of(3, {(0, 0, 0): 1, (1, 2, 0): 4, (0, 3, 0): 2})
    assert first_difference(a, a) is None
    mon, ca, cb = first_difference(a, b)
    assert (mon, ca, cb) == (Monomial(1, 2, 0), 5, 4)
    # Equal term counts and equal monomials, different coefficients.
    c = poly_of(3, {(0, 0, 0): 1, (1, 2, 0): 5, (0, 3, 0): 2})
    assert first_difference(b, c) == (Monomial(1, 2, 0), 4, 5)
    assert first_difference(c, b) == (Monomial(1, 2, 0), 5, 4)
    with pytest.raises(ValueError):
        first_difference(a, poly_of(4, {}))


def test_str_rendering():
    assert str(TruncatedPoly.zero(2)) == "0"
    p = poly_of(2, {(0, 0, 0): 1, (1, 1, 0): 2, (2, 2, 0): 1})
    assert str(p) == "1 + 2*q*t + q^2*t^2"
