"""Exact sparse polynomials in the three commuting variables q, t, u.

Only the t-degree is capped: every operation silently discards terms whose
t-exponent exceeds the cap, while q- and u-exponents stay exact.  Both sides
of the identity this package verifies have finite q,u content at each
t-degree, so truncating in t alone is enough to make equality testing exact.

A polynomial is a map from Monomial to coefficient (``Monomial`` and the
cap check ``_check_cap`` are defined in :mod:`~wreath_identity.wreath`,
and re-exported here).  Every product is
one primitive, Kronecker substitution: the (q, u) terms of a t-slice
become the digits of one Python int, slot q*U + u with U wider than any
u-degree of the result.  ``_packed`` builds each t-slice t^t prod_i
a_i^e_i as one int: a factor on one t-degree is one big-int power, any
other factor is multiplied in e_i times, one big-int product per pair of
t-degrees whose sum is at most the cap, and nothing is decoded between
steps.  A result past the cap, or with a zero factor, is zero without any
arithmetic.  ``a * b``, ``a ** e`` and each height of a map {t: [(a_ti,
e_ti), ...]} of factors on t-degree 0, which ``slice_product`` and
``compare_product`` read as sum_t t^t prod_i a_ti^e_ti, go through it.

One bound sizes the slots: no coefficient of prod_i a_i^e_i exceeds
min_i ||a_i||_inf ||a_i||_1^(e_i-1) prod_(j != i) ||a_j||_1^e_j, which is
min(||a||_1 ||b||_inf, ||a||_inf ||b||_1) for a * b and ||a||_1^(e-1)
||a||_inf for a ** e.  Each slot has one bit to spare over it, rounded up
to 1, 2, 4 or 8 bytes, so no coefficient can spill into its neighbour.
The layout (U, w, array typecode) is one value, chosen once per
operation, and a packed t-slice is one int on it: bias + c, with bias =
2^(8w-1), is written into an array of w-byte words and one packed bias int
is subtracted, so signed coefficients need no second pass.  A slice is
read back the other way.  Every |c| is below the bias, so a nonzero top
slot T puts |x| above 2^(8wT-1), and x.bit_length() // 8w + 1 slots hold
it.  One bias int is added, the digits become one array of words, the
array is range-checked once through its least and greatest word, and only
the words that differ from the bias are decoded into monomials.  A sum of
polynomials with disjoint supports is the union of their term maps.
``mul_by_terms`` keeps the term-pair loop as the oracle.

The theorem and each cube's cone sum say a prod_(j=0)^n 1/(1 - q^j t)
= sum_t t^t prod_i a_ti^e_ti, and ``compare_product`` compares the two
sides without decoding either.  Both are packed on one slot layout, wide
enough for the bound of a * ``expand_denominator(n, cap)`` and of every
height.  The left side takes no product: packing is evaluation at
256^w, a ring homomorphism, so a is packed once and each factor 1/(1 -
q^j t) is a running sum over ascending t, x_t += x_(t-1) shifted by j*U
slots.  Equal slices are then equal ints.  The left slices are
range-checked through their least and greatest words, the heights' only
when a slice differs, and only then are both sides decoded into
monomials, for the counterexample.

Coefficients are integers kept inside the signed 64-bit range; an operation
whose result would leave that range raises CoefficientOverflowError instead
of wrapping or growing silently.  Results are exact before this check, so
every sum, product, power, power product and comparison is refused exactly
when one of its coefficients leaves the range.
"""

from __future__ import annotations

import array
import functools
import itertools
import math
from collections.abc import Iterable, Mapping, Sequence
from operator import add, itemgetter, sub

from .errors import CoefficientOverflowError
from .wreath import Monomial, _check_cap, _is_int

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1


def _checked(coeff: int) -> int:
    if coeff < INT64_MIN or coeff > INT64_MAX:
        raise CoefficientOverflowError(
            f"coefficient {coeff} outside signed 64-bit range"
        )
    return coeff


class TruncatedPoly:
    """A polynomial in q, t, u with integer coefficients, truncated in t.

    Values are immutable after construction and stored canonically (zero
    coefficients purged, every t-exponent <= t_cap), so ``==`` is structural
    equality.  Two polynomials can be combined only at equal t_cap.

    >>> q_integer(3, 5)
    <TruncatedPoly cap=5: 1 + q + q^2>
    >>> p = TruncatedPoly(2, {Monomial(1, 1, 0): 1}) + 1
    >>> p * p
    <TruncatedPoly cap=2: 1 + 2*q*t + q^2*t^2>
    >>> p ** 3                                  # t^3 falls past the cap
    <TruncatedPoly cap=2: 1 + 3*q*t + 3*q^2*t^2>
    >>> (1 - TruncatedPoly.term(2, 1, q=1, t=1)) * p
    <TruncatedPoly cap=2: 1 - q^2*t^2>
    """

    __slots__ = ("t_cap", "_terms")

    def __init__(
        self, t_cap: int, terms: Mapping[Monomial, int] | Iterable[tuple[Monomial, int]] = ()
    ):
        _check_cap(t_cap)
        items = terms.items() if isinstance(terms, Mapping) else terms
        canonical: dict[Monomial, int] = {}
        for mon, coeff in items:
            mon = Monomial(*mon)
            if not all(map(_is_int, (*mon, coeff))):
                raise TypeError(f"exponents and coefficient must be ints, got {mon}: {coeff!r}")
            if mon.q < 0 or mon.t < 0 or mon.u < 0:
                raise ValueError(f"negative exponent in {mon}")
            if mon.t > t_cap or coeff == 0:
                continue
            canonical[mon] = canonical.get(mon, 0) + coeff
        # As for products, only each merged coefficient is range-checked.
        canonical = {m: _checked(c) for m, c in canonical.items() if c != 0}
        object.__setattr__(self, "t_cap", t_cap)
        object.__setattr__(self, "_terms", canonical)

    @classmethod
    def _trusted(cls, t_cap: int, terms: dict[Monomial, int]) -> TruncatedPoly:
        """Wrap terms that are canonical by construction, without re-validating.

        The ring operations return through here.  The caller guarantees that
        every key is a Monomial with t <= t_cap, that no coefficient is zero
        and that every coefficient has passed ``_checked``.
        """
        self = object.__new__(cls)
        object.__setattr__(self, "t_cap", t_cap)
        object.__setattr__(self, "_terms", terms)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedPoly is immutable")

    # -- inspection ---------------------------------------------------------

    @property
    def terms(self) -> dict[Monomial, int]:
        """Copy of the term map (monomial -> nonzero coefficient)."""
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def coefficient(self, q: int = 0, t: int = 0, u: int = 0) -> int:
        return self._terms.get(Monomial(q, t, u), 0)

    def t_slice(self, k: int) -> TruncatedPoly:
        """The terms with t-exponent exactly k, as a polynomial."""
        return TruncatedPoly(self.t_cap, {m: c for m, c in self._terms.items() if m.t == k})

    def evaluate(self, q: int = 1, t: int = 1, u: int = 1) -> int:
        """Exact integer evaluation; as for products, only the final value is range-checked."""
        return _checked(
            sum(c * q**mon.q * t**mon.t * u**mon.u for mon, c in self._terms.items())
        )

    def truncate(self, new_cap: int) -> TruncatedPoly:
        """Re-truncate to a smaller (or equal) cap."""
        if new_cap > self.t_cap:
            raise ValueError(f"cannot raise t_cap from {self.t_cap} to {new_cap}")
        return TruncatedPoly(new_cap, self._terms)

    def sorted_terms(self) -> list[tuple[Monomial, int]]:
        return sorted(self._terms.items(), key=lambda item: item[0].key())

    # -- ring operations ----------------------------------------------------

    def _coerce(self, other) -> TruncatedPoly:
        if isinstance(other, TruncatedPoly):
            if other.t_cap != self.t_cap:
                raise ValueError(f"t_cap mismatch: {self.t_cap} vs {other.t_cap}")
            return other
        if isinstance(other, int):
            return TruncatedPoly(self.t_cap, {Monomial(0, 0, 0): other})
        return NotImplemented

    def __add__(self, other) -> TruncatedPoly:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self._terms.keys().isdisjoint(other._terms):
            return TruncatedPoly._trusted(self.t_cap, self._terms | other._terms)
        out = dict(self._terms)
        for mon, coeff in other._terms.items():
            total = _checked(out.get(mon, 0) + coeff)
            if total:
                out[mon] = total
            else:
                del out[mon]
        return TruncatedPoly._trusted(self.t_cap, out)

    __radd__ = __add__

    def __neg__(self) -> TruncatedPoly:
        return TruncatedPoly._trusted(
            self.t_cap, {m: _checked(-c) for m, c in self._terms.items()}
        )

    def __sub__(self, other) -> TruncatedPoly:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> TruncatedPoly:
        return (-self) + other

    def __mul__(self, other) -> TruncatedPoly:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return TruncatedPoly._trusted(
            self.t_cap, _product([(self._terms, 1), (other._terms, 1)], self.t_cap)
        )

    __rmul__ = __mul__

    def __pow__(self, e: int) -> TruncatedPoly:
        """One ``_product``, refused exactly when a result coefficient leaves int64."""
        if not _is_int(e) or e < 0:
            raise ValueError(f"exponent must be a nonnegative integer, got {e}")
        return TruncatedPoly._trusted(self.t_cap, _product([(self._terms, e)], self.t_cap))

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedPoly):
            return NotImplemented
        return self.t_cap == other.t_cap and self._terms == other._terms

    __hash__ = None  # mutable-dict-backed; equality is structural

    # -- construction helpers -----------------------------------------------

    @classmethod
    def zero(cls, t_cap: int) -> TruncatedPoly:
        return cls(t_cap)

    @classmethod
    def one(cls, t_cap: int) -> TruncatedPoly:
        return cls(t_cap, {Monomial(0, 0, 0): 1})

    @classmethod
    def term(cls, t_cap: int, coeff: int, q: int = 0, t: int = 0, u: int = 0) -> TruncatedPoly:
        return cls(t_cap, {Monomial(q, t, u): coeff})

    # -- display ------------------------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for mon, coeff in self.sorted_terms():
            factors = []
            for name, exp in (("q", mon.q), ("t", mon.t), ("u", mon.u)):
                if exp == 1:
                    factors.append(name)
                elif exp > 1:
                    factors.append(f"{name}^{exp}")
            body = "*".join(factors)
            mag = abs(coeff)
            if not body:
                text = str(mag)
            elif mag == 1:
                text = body
            else:
                text = f"{mag}*{body}"
            if not parts:
                parts.append(text if coeff > 0 else f"-{text}")
            else:
                parts.append(f"+ {text}" if coeff > 0 else f"- {text}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"<TruncatedPoly cap={self.t_cap}: {self}>"


# -- the multiplication kernel ---------------------------------------------------

# (item size in bytes, typecode) of the unsigned array types, narrowest first.
_WORDS = sorted((array.array(code).itemsize, code) for code in "BHIQ")
# Packed ints are read little end first; array items are in native order.
_BIG_ENDIAN = array.array("H", b"\x00\x01")[0] == 1
# The t- and u-exponents of a Monomial, read in C.
_T, _U = itemgetter(1), itemgetter(2)
# (span U, slot width in bytes, array typecode or None), chosen once per operation.
_Layout = tuple[int, int, str | None]
# Pairs (a_i, e_i) that stand for prod_i a_i ** e_i.
_Factors = Sequence[tuple[dict[Monomial, int], int]]
# {t: [(a_ti, e_ti), ...]}, every a_ti on t-degree 0: sum_t t^t prod_i a_ti ** e_ti.
_Heights = Mapping[int, Sequence[tuple[TruncatedPoly, int]]]


def _slot_width(bound: int) -> tuple[int, str | None]:
    """(width in bytes, array typecode) of slots that hold |c| <= bound with the top bit clear.

    The width is rounded up to an array item size (1, 2, 4 or 8 bytes); a
    bound of 2^63 or more gets the smallest whole number of bytes and no
    typecode, and its slots are converted one at a time.
    """
    need = bound.bit_length() // 8 + 1
    return next(((size, code) for size, code in _WORDS if size >= need), (need, None))


def _bias_int(width: int, slots: int) -> int:
    """The packed int with the bias 2^(8*width-1) in each of ``slots`` slots."""
    return int.from_bytes((1 << (8 * width - 1)).to_bytes(width, "little") * slots, "little")


def _pack(terms: dict[Monomial, int], layout: _Layout) -> dict[int, int]:
    """Each t-slice of terms as one packed int, on layout (span, width, typecode).

    The term q^a t^k u^b lands in slot a*span + b of the t^k int, each slot
    ``width`` bytes wide, little end first.  Every slot of a slice's words
    holds bias + c, with bias = 2^(8*width-1) and c = 0 in an empty slot,
    and one packed bias int per slice is subtracted, so the packed int is
    the exact signed sum c * 256^(width*slot).
    """
    span, width, code = layout
    by_t: dict[int, list[tuple[int, int]]] = {}
    for (q, t, u), coeff in terms.items():
        by_t.setdefault(t, []).append((q * span + u, coeff))
    bias = 1 << (8 * width - 1)
    packed = {}
    for t, entries in by_t.items():
        slots = max(entries)[0] + 1
        words = [bias] * slots if code is None else array.array(code, [bias]) * slots
        for at, coeff in entries:
            words[at] = bias + coeff
        if code is None:
            data = b"".join(word.to_bytes(width, "little") for word in words)
        else:
            if _BIG_ENDIAN:
                words.byteswap()
            data = words.tobytes()
        packed[t] = int.from_bytes(data, "little") - _bias_int(width, slots)
    return packed


def _words(value: int, layout: _Layout):
    """The words bias + c of a packed t-slice, range-checked once, through the least and greatest.

    The slot count follows from the int itself, as the module docstring
    shows.  Adding the bias int turns every signed slot into a plain digit.
    """
    _, width, code = layout
    slots = value.bit_length() // (8 * width) + 1
    digits = (value + _bias_int(width, slots)).to_bytes(slots * width, "little")
    if code is None:
        words = [
            int.from_bytes(digits[at : at + width], "little")
            for at in range(0, len(digits), width)
        ]
    else:
        words = array.array(code, digits)
        if _BIG_ENDIAN:
            words.byteswap()
    bias = 1 << (8 * width - 1)
    _checked(min(words) - bias)
    _checked(max(words) - bias)
    return words


def _decode(slices: dict[int, int], layout: _Layout) -> dict[Monomial, int]:
    """The canonical terms of packed t-slices, by t-degree.

    Each slice's words are range-checked by ``_words``, and only the words
    that differ from the bias are decoded.
    """
    span, width, _ = layout
    bias = 1 << (8 * width - 1)
    out: dict[Monomial, int] = {}
    for t, value in slices.items():
        words = _words(value, layout)
        live = list(map(bias.__ne__, words))
        at = list(itertools.compress(range(len(words)), live))
        keys = zip(map(span.__rfloordiv__, at), itertools.repeat(t), map(span.__rmod__, at))
        coeffs = map(bias.__rsub__, itertools.compress(words, live))
        out.update(zip(map(tuple.__new__, itertools.repeat(Monomial), keys), coeffs))
    return out


def _bound(factors: _Factors) -> tuple[int, int]:
    """(bound, span) of prod_i a_i ** e_i: no coefficient exceeds bound, no u-degree reaches span.

    bound = min_i ||a_i||_inf ||a_i||_1^(e_i-1) prod_(j != i) ||a_j||_1^e_j
    over the factors with e_i > 0, or 0 when one of them is zero, since
    ||a * b||_inf <= ||a||_inf ||b||_1 and ||a * b||_1 <= ||a||_1 ||b||_1;
    span = sum_i e_i max_u(a_i) + 1.
    """
    factors = [(a, e) for a, e in factors if e]
    # (||a||_1, ||a||_inf, e) per factor.
    norms = [
        (sum(map(abs, a.values())), max(map(abs, a.values()), default=0), e) for a, e in factors
    ]
    total = math.prod(l1**e for l1, _, e in norms)
    bound = min((total // l1 * top for l1, top, _ in norms), default=1) if total else 0
    return bound, sum(e * max(map(_U, a), default=0) for a, e in factors) + 1


def _packed(factors: _Factors, cap: int, layout: _Layout, t: int = 0) -> dict[int, int]:
    """Each t-slice t' <= cap of t^t prod_i a_i ** e_i as one packed int.

    A factor on one t-degree is packed into one int and raised to its
    power; any other factor is multiplied in e_i times, one big-int
    product per pair of t-slices, summed per t'.  Nothing is decoded
    between steps.  A result past the cap, or with a zero factor, is empty
    without any arithmetic, and so is every step once all slices pass the
    cap.  The slots must hold every coefficient of the result, and the
    span must exceed every u-degree of it (``_bound``).
    """
    if t > cap or not all(a for a, e in factors if e):
        return {}
    out = {t: 1}
    for a, e in factors:
        if not (out and e):
            continue
        slices = _pack(a, layout)
        if len(slices) == 1:
            ((t1, x),) = slices.items()
            if min(out) + e * t1 > cap:
                return {}
            slices, e = {e * t1: x**e}, 1
        for _ in range(e):
            step: dict[int, int] = {}
            for t1, x in out.items():
                for t2, y in slices.items():
                    if t1 + t2 <= cap:
                        step[t1 + t2] = step.get(t1 + t2, 0) + x * y
            out = step
    return out


def _product(factors: _Factors, cap: int, t: int = 0) -> dict[Monomial, int]:
    """The canonical terms of t^t prod_i a_i ** e_i truncated at t^cap, every coefficient checked.

    The layout comes from ``_bound``, the product from ``_packed``, and
    the result is read back once, so it is refused exactly when one of its
    coefficients leaves the signed 64-bit range.
    """
    bound, span = _bound(factors)
    layout = (span, *_slot_width(bound))
    return _decode(_packed(factors, cap, layout, t), layout)


def _height_factors(heights: _Heights, cap: int) -> dict[int, _Factors]:
    """The factors' term maps at each height up to the cap; every height and factor is checked.

    Heights past the cap add nothing, so they are dropped after the check.
    """
    _check_cap(cap)
    for t, factors in heights.items():
        if not _is_int(t) or t < 0:
            raise ValueError(f"t-exponent must be a nonnegative integer, got {t}")
        for a, e in factors:
            if a.t_cap != cap:
                raise ValueError(f"t_cap mismatch: {a.t_cap} vs {cap}")
            if not _is_int(e) or e < 0:
                raise ValueError(f"exponent must be a nonnegative integer, got {e}")
            if any(map(_T, a._terms)):
                raise ValueError("every factor must lie on t-degree 0")
    return {t: [(a._terms, e) for a, e in f] for t, f in heights.items() if t <= cap}


def slice_product(heights: _Heights, cap: int) -> TruncatedPoly:
    """sum_t t^t prod_i a_ti ** e_ti truncated at t^cap, for heights {t: [(a_ti, e_ti), ...]}.

    One ``_product`` per height, so each t-slice is refused exactly when
    one of its coefficients leaves int64; the slices are disjoint, so their
    sum is the union of their terms.

    >>> slice_product({1: [(q_integer(2, 3), 2), (u_integer(2, 3), 1)]}, 3)
    <TruncatedPoly cap=3: t + t*u + 2*q*t + 2*q*t*u + q^2*t + q^2*t*u>
    """
    terms: dict[Monomial, int] = {}
    for t, factors in _height_factors(heights, cap).items():
        terms.update(_product(factors, cap, t))
    return TruncatedPoly._trusted(cap, terms)


def compare_product(
    a: TruncatedPoly, n: int, heights: _Heights
) -> tuple[TruncatedPoly, TruncatedPoly] | None:
    """Compare a prod_(j=0)^n 1/(1 - q^j t) with ``slice_product(heights, cap)`` as packed slices.

    Both sides are packed on one slot layout, wide enough for the
    ``_bound`` of a * ``expand_denominator(n, cap)`` and of every height,
    so equal slices are equal ints.  a is packed once, then multiplied by
    each 1/(1 - q^j t) as a running sum over ascending t, x_t += x_(t-1)
    shifted by j*span slots: no slice of the denominator is packed and none
    is multiplied.  Every slice of the product is range-checked, in the
    order that ``a * expand_denominator(n, cap)`` reads them back, so an
    overflow is refused with that product's message; the heights, in
    order, only when a slice differs.  Returns None when every slice
    agrees, else both sides decoded: (the product, the heights' sum).

    >>> heights = {k: [(q_integer(k + 1, 2), 1)] for k in range(3)}   # 1/((1 - t)(1 - q t))
    >>> compare_product(TruncatedPoly.one(2), 1, heights) is None
    True
    >>> compare_product(TruncatedPoly.one(2), 1, {k: heights[k] for k in (0, 1)})[1]
    <TruncatedPoly cap=2: 1 + t + q*t>
    """
    cap = a.t_cap
    powers = _height_factors(heights, cap)
    # expand_denominator checks n, refuses an overflow of its own first,
    # and sizes the layout as the product's second factor.
    factors = [(a._terms, 1), (expand_denominator(n, cap)._terms, 1)]
    bound, span = map(max, zip(*map(_bound, [factors, *powers.values()])))
    layout = (span, *_slot_width(bound))
    packed = _pack(a._terms, layout)
    product = [packed.get(t, 0) for t in range(cap + 1)]
    for j in range(n + 1):
        shift = 8 * layout[1] * span * j
        for t in range(1, cap + 1):
            product[t] += product[t - 1] << shift
    # In the order a * expand_denominator(n, cap) reads its slices back, so an
    # overflow names the coefficient that product would name.
    for t in dict.fromkeys(t1 + t2 for t1 in packed for t2 in range(cap + 1 - t1)):
        _words(product[t], layout)
    power_sum: dict[int, int] = {}
    for t, power in powers.items():
        power_sum.update(_packed(power, cap, layout, t))
    if {t: value for t, value in enumerate(product) if value} == power_sum:
        return None
    return (
        TruncatedPoly._trusted(cap, _decode(dict(enumerate(product)), layout)),
        TruncatedPoly._trusted(cap, _decode(power_sum, layout)),
    )


def mul_by_terms(a: TruncatedPoly, b: TruncatedPoly) -> TruncatedPoly:
    """The product a * b by the schoolbook loop over term pairs: the oracle.

    Every term product and every partial sum is checked, so this raises
    CoefficientOverflowError on a partial sum that leaves the signed 64-bit
    range even where the finished coefficient would fit; ``a * b`` checks
    only the finished coefficients.
    """
    b = a._coerce(b)
    cap = a.t_cap
    out: dict[Monomial, int] = {}
    for m1, c1 in a._terms.items():
        for m2, c2 in b._terms.items():
            t = m1.t + m2.t
            if t > cap:
                continue
            mon = Monomial(m1.q + m2.q, t, m1.u + m2.u)
            out[mon] = _checked(out.get(mon, 0) + _checked(c1 * c2))
    return TruncatedPoly(cap, out)


# -- q/u-integers and the identity's building blocks -------------------------


def q_integer(n: int, cap: int) -> TruncatedPoly:
    """[n]_q = 1 + q + ... + q^(n-1), the zero polynomial when n = 0."""
    if n < 0:
        raise ValueError(f"q-integer index must be nonnegative, got {n}")
    return TruncatedPoly(cap, {Monomial(j, 0, 0): 1 for j in range(n)})


def u_integer(n: int, cap: int) -> TruncatedPoly:
    """[n]_u = 1 + u + ... + u^(n-1), the zero polynomial when n = 0."""
    if n < 0:
        raise ValueError(f"u-integer index must be nonnegative, got {n}")
    return TruncatedPoly(cap, {Monomial(0, 0, j): 1 for j in range(n)})


@functools.lru_cache(maxsize=None, typed=True)
def expand_denominator(n: int, cap: int) -> TruncatedPoly:
    """Power-series expansion of prod_{j=0}^{n} 1/(1 - q^j t) up to t^cap.

    The t^m slice is the Gaussian binomial [n+m choose m]_q.  It is built
    from the slice before it as c_m = c_(m-1) (1 - q^(n+m)) / (1 - q^m), on a
    plain list of q-coefficients: one shifted subtraction, then the exact
    division as a running sum with stride m.  The coefficients of a Gaussian
    binomial are positive, so each slice is range-checked once, through its
    greatest, and the expansion is refused exactly when a coefficient of
    the result leaves int64.  The result is immutable, so it is built once
    per (n, cap) and shared; the cache tells the types apart, so a refused
    ``True`` or ``2.0`` never finds the entry of 1 or 2.

    >>> expand_denominator(1, 2)
    <TruncatedPoly cap=2: 1 + t + q*t + t^2 + q*t^2 + q^2*t^2>
    """
    if not _is_int(n) or n < 1:
        raise ValueError(f"need a positive number of variables, got n={n!r}")
    _check_cap(cap)
    terms = {Monomial(0, 0, 0): 1}
    coeffs = [1]
    for m in range(1, cap + 1):
        shift = n + m
        coeffs = coeffs + [0] * shift
        coeffs[shift:] = map(sub, coeffs[shift:], coeffs)
        for at in range(m, len(coeffs), m):
            coeffs[at : at + m] = map(add, coeffs[at : at + m], coeffs[at - m : at])
        del coeffs[n * m + 1 :]
        _checked(max(coeffs))
        keys = zip(range(len(coeffs)), itertools.repeat(m), itertools.repeat(0))
        terms.update(zip(map(tuple.__new__, itertools.repeat(Monomial), keys), coeffs))
    return TruncatedPoly._trusted(cap, terms)


def lhs_base(r: int, k: int, cap: int) -> TruncatedPoly:
    """The base [k+1]_q + u [r-1]_u [k]_q of the height-k summand, on t-degree 0.

    It has the term q^j u^i, with coefficient 1, for i = 0 and j <= k and
    for 0 < i < r and j < k.

    >>> lhs_base(2, 1, 1)
    <TruncatedPoly cap=1: 1 + u + q>
    """
    if r < 1 or k < 0:
        raise ValueError(f"need r >= 1 and k >= 0, got r={r}, k={k}")
    _check_cap(cap)
    return TruncatedPoly._trusted(
        cap, {Monomial(j, 0, i): 1 for i in range(r) for j in range(k + (i == 0))}
    )


def lhs_term(r: int, n: int, k: int, cap: int) -> TruncatedPoly:
    """The height-k summand ([k+1]_q + u [r-1]_u [k]_q)^n * t^k.

    The base ``lhs_base`` lies on t-degree 0, so its n-th power is one
    ``slice_product``, read back directly at t^k with no shift.
    """
    if r < 1 or n < 1:
        raise ValueError(f"r and n must be positive, got r={r}, n={n}")
    if k < 0 or k > cap:
        raise ValueError(f"k must lie in [0, cap], got k={k}, cap={cap}")
    return slice_product({k: [(lhs_base(r, k, cap), n)]}, cap)


def first_difference(a: TruncatedPoly, b: TruncatedPoly) -> tuple[Monomial, int, int] | None:
    """The (t, q, u)-lexicographically first monomial where a and b differ.

    Returns (monomial, coeff_in_a, coeff_in_b), or None if the polynomials
    are equal.  Used to build deterministic counterexamples.
    """
    if a.t_cap != b.t_cap:
        raise ValueError(f"t_cap mismatch: {a.t_cap} vs {b.t_cap}")
    a_terms, b_terms = a._terms, b._terms
    if a_terms == b_terms:
        return None
    for mon in sorted(set(a_terms) | set(b_terms), key=Monomial.key):
        ca, cb = a_terms.get(mon, 0), b_terms.get(mon, 0)
        if ca != cb:
            return mon, ca, cb
    return None

