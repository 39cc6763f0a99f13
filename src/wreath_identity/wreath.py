"""Colored permutations, their window statistics, and group enumeration.

An element of Z_r wr S_n is a pair (epsilon, pi) displayed in window
notation [pi(1)^e1 ... pi(n)^en]: pi is a permutation of {1..n} written as
the tuple of its window values, and e_i is the color carried by window
position i.  Descents are taken with respect to the weak order on colored
letters v^c that :func:`bz_sort_key` alone defines, as one int per letter:
zero-colored letters increase with value (key v), positive-colored letters
sit strictly below the sentinel 0^0 (key 0) and decrease with value (key
-v), and two positive-colored copies of the same value are tied.  Position
0 of every window holds the sentinel, so a window can have a descent at
position 0.

Two color-indexing conventions coexist and must not be conflated:
:class:`ColoredPermutation` colors are indexed by window position, while
:class:`EpsilonVector` colors are indexed by letter.  The only crossing
point is :func:`colored_window` / :func:`g_epsilon`, which perform the
reindexing color_i = eps[pi(i)] explicitly; :func:`g_epsilon_gf` needs no
reindexing, because it permutes each letter's key together with its color.

Both are :class:`Frozen` values: immutable ``__slots__`` classes with
dataclass-style ``==``, ``hash`` and ``repr``.  The package's other value
types (``CubeSliceSpec``, ``Partition`` and ``VerificationReport``) derive
from it too, so importing the package loads neither ``dataclasses`` nor
the ``inspect`` it imports.  Only the four functions that build
polynomials (:func:`_window_tally`, :func:`g_epsilon_gf`,
:func:`few_colors_pieces` and :func:`numerator`) import
:mod:`~wreath_identity.poly`, so ``table`` never compiles it.  The
exponent triple :class:`Monomial` and the cap check :func:`_check_cap`
are defined here, and ``poly`` re-exports them, so ``geometry`` reads
point weights and checks caps without the kernel.

:func:`numerator` walks no window: its few-colors pieces come from
Carlitz's q-Eulerian recursion refined by the first letter (Garsia and
Gessel, 1979), :func:`few_colors_pieces`, which ``verify --all-steps``
compares with the walked :func:`g_epsilon_gf`.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import operator
import re
import sys
from collections.abc import Callable, Iterable, Iterator, Sequence

DEFAULT_BUDGET = 10_000_000


class BudgetExceededError(RuntimeError):
    """An enumeration would exceed the configured object budget."""


class Monomial(collections.namedtuple("Monomial", "q t u")):
    """Exponent triple q^q * t^t * u^u."""

    __slots__ = ()

    def key(self) -> tuple[int, int, int]:
        """Canonical sort key: lexicographic by (t, q, u)."""
        return (self.t, self.q, self.u)


def _is_int(value) -> bool:
    """True for an int that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def _check_cap(t_cap) -> None:
    """Refuse a t-cap that is not a nonnegative int, naming it."""
    if not _is_int(t_cap):
        raise ValueError(f"t_cap must be an integer, got {t_cap!r}")
    if t_cap < 0:
        raise ValueError(f"t_cap must be nonnegative, got {t_cap}")


class Frozen:
    """Base of the package's immutable value types; its fields are ``__slots__``.

    A subclass lists its fields in ``__slots__``, in constructor order, and
    sets them with ``object.__setattr__`` in ``__init__``, after validating.
    Equality holds only between instances of one class with equal fields,
    the hash is that of the field tuple, and the repr is the
    ``Class(field=value, ...)`` text of a dataclass.

    >>> EpsilonVector((1, 0)) == EpsilonVector([1, 0]), EpsilonVector((1, 0))
    (True, EpsilonVector(colors=(1, 0)))
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(map(self.__getattribute__, self.__slots__))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = map("{}={!r}".format, self.__slots__, self._values())
        return f"{type(self).__qualname__}({', '.join(fields)})"

    def __reduce__(self):
        # Copies and pickles go through the validating constructor.
        return type(self), self._values()


def bz_sort_key(value: int, color: int) -> int:
    """Int sort key realizing the colored-letter order.

    A positive-colored letter v^c has key -v and a zero-colored letter v^0
    has key v, so the sentinel 0^0 has key 0.  Letter values are at least
    1, so the positive-colored letters lie below the sentinel, ordered by
    decreasing value, and the zero-colored ones above it, ordered by
    increasing value.  Equal keys mean tied letters.

    >>> bz_sort_key(3, 1) < bz_sort_key(2, 1) < bz_sort_key(0, 0) < bz_sort_key(2, 0)
    True
    >>> bz_sort_key(2, 1) == bz_sort_key(2, 2) == -2
    True
    """
    return -value if color > 0 else value


_TOKEN = re.compile(r"^(\d+)\^(\d+)$")


class ColoredPermutation(Frozen):
    """Window [pi(1)^c1 ... pi(n)^cn]; colors indexed by window position."""

    __slots__ = ("pi", "colors")

    def __init__(self, pi: Iterable[int], colors: Iterable[int]):
        object.__setattr__(self, "pi", tuple(pi))
        object.__setattr__(self, "colors", tuple(colors))
        n = len(self.pi)
        if sorted(self.pi) != list(range(1, n + 1)):
            raise ValueError(f"window values {self.pi} are not a permutation of 1..{n}")
        if len(self.colors) != n:
            raise ValueError(f"{len(self.colors)} colors for {n} window positions")
        if any(c < 0 for c in self.colors):
            raise ValueError(f"negative color in {self.colors}")

    @classmethod
    def _trusted(cls, pi: tuple[int, ...], colors: tuple[int, ...]) -> ColoredPermutation:
        """Wrap a window that is valid by construction, without re-validating.

        The caller guarantees that pi is a tuple permuting 1..n and that
        colors is a tuple of n non-negative ints.
        """
        self = object.__new__(cls)
        object.__setattr__(self, "pi", pi)
        object.__setattr__(self, "colors", colors)
        return self

    @property
    def n(self) -> int:
        return len(self.pi)

    def window_str(self) -> str:
        """Window text form, e.g. ``[2^0 3^1 1^1]``.  Round-trips via parse."""
        return "[" + " ".join(map("{}^{}".format, self.pi, self.colors)) + "]"

    @classmethod
    def parse(cls, text: str) -> ColoredPermutation:
        body = text.strip()
        if not (body.startswith("[") and body.endswith("]")):
            raise ValueError(f"window text must be bracketed: {text!r}")
        values, colors = [], []
        for token in body[1:-1].split():
            match = _TOKEN.match(token)
            if not match:
                raise ValueError(f"bad window letter {token!r} in {text!r}")
            values.append(int(match.group(1)))
            colors.append(int(match.group(2)))
        return cls(tuple(values), tuple(colors))

    def __str__(self) -> str:
        return self.window_str()


def descent_set(w: ColoredPermutation) -> set[int]:
    """Positions i in [0, n-1] where letter i exceeds letter i+1.

    Position 0 holds the sentinel 0^0, so 0 is a descent exactly when the
    first window letter has positive color.

    >>> sorted(descent_set(ColoredPermutation.parse("[2^0 3^1 1^1]")))
    [1]
    """
    keys = [bz_sort_key(0, 0), *map(bz_sort_key, w.pi, w.colors)]
    return {i for i in range(len(keys) - 1) if keys[i] > keys[i + 1]}


def des(w: ColoredPermutation) -> int:
    return len(descent_set(w))


def maj(w: ColoredPermutation) -> int:
    return sum(descent_set(w))


def col(w: ColoredPermutation) -> int:
    return sum(w.colors)


def ordinary_descent_set(pi: Sequence[int]) -> set[int]:
    """Classical descent set of a plain permutation: {i in [1, n-1] : pi(i) > pi(i+1)}.

    Agrees with descent_set on the all-zero coloring (where position 0 can
    never descend).
    """
    return {i for i in range(1, len(pi)) if pi[i - 1] > pi[i]}


class EpsilonVector(Frozen):
    """A color vector indexed by letter: colors[i-1] is the color of letter i."""

    __slots__ = ("colors",)

    def __init__(self, colors: Iterable[int]):
        object.__setattr__(self, "colors", tuple(colors))
        if any(c < 0 for c in self.colors):
            raise ValueError(f"negative color in {self.colors}")

    @property
    def n(self) -> int:
        return len(self.colors)

    def color_of(self, letter: int) -> int:
        return self.colors[letter - 1]

    def support(self) -> frozenset[int]:
        """Letters carrying positive color."""
        return frozenset(i + 1 for i, c in enumerate(self.colors) if c > 0)

    def col(self) -> int:
        return sum(self.colors)


def colored_window(eps: EpsilonVector, pi: Sequence[int]) -> ColoredPermutation:
    """The element of G_eps with window values pi: letter pi(i) keeps its color."""
    return ColoredPermutation(tuple(pi), tuple(eps.color_of(v) for v in pi))


def g_epsilon(eps: EpsilonVector) -> Iterator[ColoredPermutation]:
    """The n! windows in which every letter permanently carries its eps color.

    Yields in lexicographic order of the window value sequence.
    """
    for pi in itertools.permutations(range(1, eps.n + 1)):
        yield ColoredPermutation._trusted(pi, tuple(map(eps.color_of, pi)))


def group_order(r: int, n: int) -> int:
    return r**n * math.factorial(n)


def _printable_digits() -> int:
    """The most digits ``str`` prints of an int now, at most 4300, CPython's default.

    ``sys.get_int_max_str_digits`` (0 for no limit) is missing before
    Python 3.10.7, which prints any int; both read as 4300.
    """
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    return min(limit or 4300, 4300)


def capped_product(factors: Iterable[int], cap: int) -> int:
    """The product of factors (ints >= 1), or its first partial product above cap."""
    total = 1
    for factor in factors:
        total *= factor
        if total > cap:
            break
    return total


def check_count(noun: str, factors: Iterable[int], formula: str, budget: int) -> int:
    """The product of factors (ints >= 1); BudgetExceededError if it exceeds budget.

    The message names the count through the one ``{}`` field of ``noun``:
    in digits when ``str`` prints them, at most 4300 and no more than
    ``sys.get_int_max_str_digits()`` at call time, else by ``formula``.  The
    product stops at the first factor that takes it past both budget and
    10^4300, so a count is never multiplied out, nor printed, past that.

    >>> check_count("group order {}", [2, 4, 6], "2^3 * 3!", 100)
    48
    >>> check_count("grid of {} points", itertools.repeat(10, 10**9), "10^(10^9)", 10)
    Traceback (most recent call last):
    ...
    wreath_identity.wreath.BudgetExceededError: grid of 10^(10^9) points exceeds budget 10
    """
    printable = 10 ** _printable_digits()
    total = capped_product(factors, max(budget, printable - 1))
    if total <= budget:
        return total
    count = str(total) if total < printable else formula
    raise BudgetExceededError(f"{noun.format(count)} exceeds budget {budget}")


def check_group_order(r: int, n: int, budget: int) -> None:
    """Raise BudgetExceededError when r^n * n! exceeds budget.

    Every command that walks or stands in for the whole group calls this
    first, so a refusal costs nothing.
    """
    if r < 1 or n < 1:
        raise ValueError(f"r and n must be positive, got r={r}, n={n}")
    check_count("group order {}", (r * i for i in range(1, n + 1)), f"{r}^{n} * {n}!", budget)


def enumerate_group(
    r: int, n: int, budget: int = DEFAULT_BUDGET
) -> Iterator[ColoredPermutation]:
    """All r^n * n! elements, lexicographic by pi then by window color vector."""
    check_group_order(r, n, budget)

    def generate() -> Iterator[ColoredPermutation]:
        for pi in itertools.permutations(range(1, n + 1)):
            for colors in itertools.product(range(r), repeat=n):
                yield ColoredPermutation._trusted(pi, colors)

    return generate()


def color_classes(r: int, n: int, key: Callable) -> Iterator[list[tuple[int, ...]]]:
    """The r^n color vectors grouped by key: classes in key order, each lexicographic.

    >>> list(color_classes(2, 2, lambda colors: tuple(sorted(colors))))
    [[(0, 0)], [(0, 1), (1, 0)], [(1, 1)]]
    """
    classes: dict = {}
    for colors in itertools.product(range(r), repeat=n):
        classes.setdefault(key(colors), []).append(colors)
    for label in sorted(classes):
        yield classes[label]


def few_colors_eps(l: int, n: int) -> EpsilonVector:
    """The few-colors vector (1^l, 0^(n-l)): letters 1..l carry color 1."""
    return EpsilonVector((1,) * l + (0,) * (n - l))


def few_colors_range(r: int, n: int) -> range:
    """The l of the few-colors pieces of Z_r wr S_n: 0..n, or only 0 when r = 1."""
    return range(n + 1 if r > 1 else 1)


def _window_tally(windows: Iterable[ColoredPermutation], cap: int) -> TruncatedPoly:
    """Sum of q^maj t^des u^col over the windows, truncated at t-degree cap."""
    from .poly import TruncatedPoly

    counts = collections.Counter()
    for w in windows:
        d = descent_set(w)
        counts[Monomial(sum(d), len(d), sum(w.colors))] += 1
    return TruncatedPoly(cap, counts)


def _descent_masks(words: Iterable[tuple[int, ...]]) -> Iterator[tuple[bool, ...]]:
    """The descent indicator vector of each window, given as its letter keys.

    A word is the tuple of :func:`bz_sort_key` values of a window's
    letters; entry i of its mask is True when position i descends, with
    the sentinel's key read before the word.  So the mask has the same
    positions as :func:`descent_set`, and Des is the set of its True
    entries.
    """
    sentinel = (bz_sort_key(0, 0),)
    return (tuple(map(operator.gt, sentinel + word, word)) for word in words)


def g_epsilon_gf(eps: EpsilonVector, cap: int) -> TruncatedPoly:
    """Sum of q^maj t^des u^col over G_eps (col is constant on the set).

    Builds no window: every letter of G_eps keeps its color, so a window is
    an ordering of the n letter keys from :func:`bz_sort_key`, read after
    the sentinel's key, and the (maj, des) tally is made once per key tuple
    (:func:`_key_tally`).  ``_window_tally`` over :func:`g_epsilon` is the
    oracle.
    """
    from .poly import TruncatedPoly

    keys, u = tuple(bz_sort_key(v, c) for v, c in enumerate(eps.colors, 1)), eps.col()
    return TruncatedPoly(cap, ((Monomial(q, d, u), count) for (q, d), count in _key_tally(keys)))


@functools.lru_cache(maxsize=None)
def _key_tally(keys: tuple[int, ...]) -> tuple[tuple[tuple[int, int], int], ...]:
    """The ((maj, des), count) pairs over all orderings of the letter keys."""
    # Tally the descent indicator vectors first: there are at most 2^n.
    masks = collections.Counter(_descent_masks(itertools.permutations(keys)))
    counts = collections.Counter()
    for mask, count in masks.items():
        counts[sum(itertools.compress(range(len(keys)), mask)), sum(mask)] += count
    return tuple(counts.items())


def _first_letter_split(
    gs: list[collections.Counter], dq: int, cap: int
) -> list[collections.Counter]:
    """q^dq t B_i + (T - B_i) for i = 0..len(gs), with B_i the sum of gs[:i] and T that of gs.

    Each is a {(maj, des): count} map.  The gs hold no term past t^cap, and
    the raised ones past it are dropped.  The counts are positive, so
    Counter addition and subtraction, which drop only what is not, are exact.
    """
    total = sum(gs, collections.Counter())
    return [
        total - b + collections.Counter({(q + dq, d + 1): c for (q, d), c in b.items() if d < cap})
        for b in itertools.accumulate(gs, operator.add, initial=collections.Counter())
    ]


@functools.lru_cache(maxsize=None)
def few_colors_pieces(n: int, cap: int) -> tuple:
    """GF(G_(1^l, 0^(n-l))) for l = 0..n, from the first-letter recursion, walking no window.

    G_n(j) sums q^maj t^des over the sigma in S_n with sigma(1) = j.  Write
    sigma = j tau, tau the rest standardised and b = tau(1): position 1
    descends exactly when b < j, and every descent of tau moves up one
    position, so

        G_n(j)(q, t) = sum_{b<j} q t G_(n-1)(b)(q, q t) + sum_{b>=j} G_(n-1)(b)(q, q t).

    Under the colored-letter order the letters of G_(1^l, 0^(n-l)) rank
    as the plain permutation rho o pi, whose descents are the window's at
    positions 1..n-1 (:func:`~wreath_identity.identity.descent_shift_check`);
    position 0 descends, adding to des but not to maj, exactly when the
    first rank is at most l.  So

        GF(G_(1^l, 0^(n-l))) = u^l (t sum_{j<=l} G_n(j) + sum_{j>l} G_n(j)).

    A level is one :func:`_first_letter_split` of the substituted level
    below (dq = 1), and the pieces are one of G_n(1), ..., G_n(n) (dq = 0).
    des never falls along the recursion, so terms past t^cap are dropped
    at every level.  :func:`g_epsilon_gf` is the oracle.  The pieces are
    immutable, so they are built once per (n, cap) and shared.
    """
    from .poly import TruncatedPoly

    level = [collections.Counter({(0, 0): 1})]  # G_1(1) = 1
    for _ in range(1, n):
        # G(q, q t): every descent also adds one to maj.
        substituted = [
            collections.Counter({(q + d, d): c for (q, d), c in g.items()}) for g in level
        ]
        level = _first_letter_split(substituted, 1, cap)
    return tuple(
        TruncatedPoly(cap, ((Monomial(q, d, l), c) for (q, d), c in piece.items()))
        for l, piece in enumerate(_first_letter_split(level, 0, cap))
    )


def numerator(
    r: int, n: int, cap: int | None = None, budget: int = DEFAULT_BUDGET
) -> TruncatedPoly:
    """The joint distribution sum q^maj t^des u^col over all of Z_r wr S_n.

    Assembled from the n+1 few-colors pieces instead of the r^n * n!
    elements.  A window's descent set depends only on which letters are
    colored (the same-support lemma), and the order-preserving relabeling
    carries every G_eps with l colored letters onto G_(1^l, 0^(n-l)) with
    the same descent sets.  The C(n, l) supports of size l, each letter
    colored 1..r-1, therefore contribute

        C(n, l) [r-1]_u^l GF(G_(1^l, 0^(n-l))),

    where GF carries u^l; with one color only l = 0 occurs.  The pieces
    come from :func:`few_colors_pieces`, the first-letter recursion, in
    O(n^2) polynomial additions; no window is walked.  The budget still
    caps r^n * n!, the size of the group this stands in for;
    :func:`numerator_by_enumeration` is the brute-force oracle.

    des never exceeds n, so any cap >= n (the default is n itself) captures
    the polynomial exactly.
    """
    from .poly import TruncatedPoly, u_integer

    check_group_order(r, n, budget)
    if cap is None:
        cap = n
    colors = u_integer(r - 1, cap)
    pieces = few_colors_pieces(n, cap)
    total = TruncatedPoly.zero(cap)
    for l in few_colors_range(r, n):
        total = total + math.comb(n, l) * colors**l * pieces[l]
    return total


def numerator_by_enumeration(
    r: int, n: int, cap: int | None = None, budget: int = DEFAULT_BUDGET
) -> TruncatedPoly:
    """:func:`numerator` by walking all r^n * n! elements: the test oracle."""
    if cap is None:
        cap = n
    return _window_tally(enumerate_group(r, n, budget), cap)
