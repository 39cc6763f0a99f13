"""End-to-end verifiers for every step of the geometric argument.

Each verifier runs an exhaustive desk-scale check of one claim and returns
a :class:`VerificationReport`; a failing report always carries the first
counterexample in a fixed deterministic order, so output is diffable.  The
pipeline, from inner constructions outward:

* the reversal ``rho`` transports colored descents to ordinary descents
  (:func:`descent_shift_check`),
* bounded compositions biject with (permutation, partition) pairs
  (:func:`find_pi_for_composition`, which reads the one simplex search
  through ``rho``, and :func:`composition_to_partition`),
* the order-preserving relabeling ``omega`` matches the statistics of two
  same-multiset color assignments (:func:`omega_map`),
* cone sums equal group generating functions over the denominator
  (:func:`verify_prop_few_colors`, :func:`verify_corollary`),
* and the full identity equates the height-slice sum with the joint
  (maj, des, col) distribution over the whole group
  (:func:`verify_theorem`).

:class:`Partition` and :class:`VerificationReport` are
:class:`~wreath_identity.wreath.Frozen` values; a report's ``to_dict``
returns fresh containers, so the caller may change them.  The step
verifiers that read the cube side import :mod:`~wreath_identity.geometry`
when they run, so ``verify`` without ``--all-steps`` never compiles it.
"""

from __future__ import annotations

import functools
import itertools
import operator
import time
from collections.abc import Sequence

from .poly import (
    Monomial,
    TruncatedPoly,
    compare_product,
    first_difference,
    lhs_base,
    q_integer,
    slice_product,
)
from .wreath import (
    DEFAULT_BUDGET,
    _descent_masks,
    _key_tally,
    ColoredPermutation,
    EpsilonVector,
    Frozen,
    bz_sort_key,
    color_classes,
    colored_window,
    descent_set,
    few_colors_eps,
    few_colors_pieces,
    g_epsilon,
    g_epsilon_gf,
    numerator,
    ordinary_descent_set,
)

Composition = tuple[int, ...]


class Partition(Frozen):
    """A weakly decreasing tuple of nonnegative parts (zeros allowed)."""

    __slots__ = ("parts",)

    def __init__(self, parts: Sequence[int]):
        object.__setattr__(self, "parts", tuple(parts))
        if any(a < b for a, b in zip(self.parts, self.parts[1:])):
            raise ValueError(f"parts {self.parts} are not weakly decreasing")
        if self.parts and self.parts[-1] < 0:
            raise ValueError(f"negative part in {self.parts}")

    def total(self) -> int:
        return sum(self.parts)


class VerificationReport(Frozen):
    """Outcome of one exhaustive check; failures carry a counterexample."""

    __slots__ = ("claim", "params", "status", "counterexample", "elapsed_ms")

    def __init__(
        self,
        claim: str,
        params: dict,
        status: str,
        counterexample: dict | None,
        elapsed_ms: float,
    ):
        if status not in ("pass", "fail"):
            raise ValueError(f"status must be pass or fail, got {status!r}")
        if status == "fail" and counterexample is None:
            raise ValueError("a failing report must carry a counterexample")
        object.__setattr__(self, "claim", claim)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "status", status)
        object.__setattr__(self, "counterexample", counterexample)
        object.__setattr__(self, "elapsed_ms", elapsed_ms)

    @property
    def ok(self) -> bool:
        return self.status == "pass"

    def to_dict(self) -> dict:
        """The fields in order, each dict, list and tuple in them copied."""
        return dict(zip(self.__slots__, map(_copied, self._values())))


def _copied(value):
    """value with every dict, list and tuple in it rebuilt."""
    if isinstance(value, dict):
        return {key: _copied(item) for key, item in value.items()}
    if type(value) in (list, tuple):
        return type(value)(map(_copied, value))
    return value


def report_from_comparison(
    claim: str,
    params: dict,
    lhs: TruncatedPoly,
    rhs: TruncatedPoly,
    started: float,
    context: dict | None = None,
) -> VerificationReport:
    """Build a report from an exact polynomial comparison.

    On inequality the counterexample names the (t, q, u)-first differing
    monomial together with both computed coefficients.
    """
    diff = first_difference(lhs, rhs)
    counterexample = None
    if diff is not None:
        mon, c_lhs, c_rhs = diff
        counterexample = dict(context or {})
        counterexample.update(
            monomial={"q": mon.q, "t": mon.t, "u": mon.u}, lhs=c_lhs, rhs=c_rhs
        )
    return _finish(claim, params, counterexample, started)


def _finish(
    claim: str, params: dict, counterexample: dict | None, started: float
) -> VerificationReport:
    elapsed = (time.perf_counter() - started) * 1000.0
    status = "pass" if counterexample is None else "fail"
    return VerificationReport(claim, params, status, counterexample, elapsed)


# -- the rho shift and the composition bijection ------------------------------


def rho(l: int, n: int) -> tuple[int, ...]:
    """The involution reversing 1..l and fixing l+1..n, in one-line notation.

    >>> rho(2, 3)
    (2, 1, 3)
    """
    if not 0 <= l <= n:
        raise ValueError(f"need 0 <= l <= n, got l={l}, n={n}")
    return tuple(range(l, 0, -1)) + tuple(range(l + 1, n + 1))


def compose(outer: Sequence[int], inner: Sequence[int]) -> tuple[int, ...]:
    """(outer o inner)(i) = outer(inner(i)), both in one-line notation."""
    return tuple(outer[x - 1] for x in inner)


def descent_shift_check(l: int, n: int) -> VerificationReport:
    """Check that rho converts colored descents to ordinary descents.

    For every pi, the window in G_eps with eps = (1^l, 0^(n-l)) must satisfy
    Des(window) minus {0} = Des(rho o pi), with 0 a descent exactly when
    pi(1) <= l.  The windows are read as permuted letter keys.
    """
    started = time.perf_counter()
    params = {"l": l, "n": n}
    eps = few_colors_eps(l, n)
    rho_perm = rho(l, n)
    masks = _descent_masks(itertools.permutations(map(bz_sort_key, range(1, n + 1), eps.colors)))
    counterexample = None
    for pi, mask in zip(itertools.permutations(range(1, n + 1)), masks):
        sigma = compose(rho_perm, pi)
        zero_expected = pi[0] <= l
        if mask[1:] != tuple(map(operator.gt, sigma, sigma[1:])) or mask[0] != zero_expected:
            w = colored_window(eps, pi)
            counterexample = {
                "window": w.window_str(),
                "descents": sorted(descent_set(w)),
                "shifted_perm": list(sigma),
                "ordinary_descents": sorted(ordinary_descent_set(sigma)),
            }
            break
    return _finish("descent_shift", params, counterexample, started)


def check_composition(alpha: Sequence[int], k: int, l: int, n: int) -> Composition:
    """Validate the (k, l) bound profile: first l parts <= k-1, rest <= k."""
    alpha = tuple(alpha)
    if not 0 <= l <= n:
        raise ValueError(f"need 0 <= l <= n, got l={l}, n={n}")
    if len(alpha) != n:
        raise ValueError(f"composition {alpha} does not have {n} parts")
    if any(a < 0 for a in alpha):
        raise ValueError(f"negative part in {alpha}")
    if any(a > k - 1 for a in alpha[:l]) or any(a > k for a in alpha[l:]):
        raise ValueError(f"composition {alpha} violates the (k={k}, l={l}) bounds")
    return alpha


def find_pi_for_composition(
    alpha: Sequence[int], k: int, l: int, n: int
) -> ColoredPermutation:
    """The unique window of G_(1^l, 0^(n-l)) whose shifted chain fits alpha.

    The chain reads alpha along sigma = rho o pi, weakly decreasing from k
    with strict drops at the ordinary descents of sigma: the dilated simplex
    test.  So sigma is ``find_simplex(alpha, k)``, and pi = rho o sigma as rho
    is an involution; the colored parts are bounded by k - 1
    (:func:`check_composition`).  Zero or several simplices raise RuntimeError.
    """
    from .geometry import find_simplex

    alpha = check_composition(alpha, k, l, n)
    sigma = find_simplex(alpha, k)
    return colored_window(few_colors_eps(l, n), compose(rho(l, n), sigma))


def composition_to_partition(
    alpha: Sequence[int], k: int, l: int, n: int
) -> tuple[Partition, ColoredPermutation]:
    """Map a bounded composition to its (partition, window) pair.

    Part i is the chain value at slot i lowered by the number of descents
    of the shifted permutation at or past slot i; the result is weakly
    decreasing with total sum(alpha) - maj(window).
    """
    w = find_pi_for_composition(alpha, k, l, n)
    sigma = compose(rho(l, n), w.pi)
    descents = ordinary_descent_set(sigma)
    parts = tuple(
        alpha[sigma[i - 1] - 1] - sum(1 for d in descents if d >= i)
        for i in range(1, n + 1)
    )
    return Partition(parts), w


# -- the order-preserving relabeling ------------------------------------------


def _letter_set(eps: EpsilonVector) -> list[tuple[int, int]]:
    """The letters i^eps(i), sorted ascending under the colored-letter order."""
    letters = [(i, eps.color_of(i)) for i in range(1, eps.n + 1)]
    return sorted(letters, key=lambda vc: bz_sort_key(*vc))


def _omega(eps: EpsilonVector, eps_prime: EpsilonVector) -> dict:
    """omega as a map from the letters (v, c) of eps to those of eps_prime."""
    if sorted(eps.colors) != sorted(eps_prime.colors):
        raise ValueError(f"{eps_prime.colors} is not a rearrangement of {eps.colors}")
    return dict(zip(_letter_set(eps), _letter_set(eps_prime)))


def omega_map(
    eps: EpsilonVector, eps_prime: EpsilonVector, w: ColoredPermutation
) -> ColoredPermutation:
    """Apply the unique order-preserving relabeling G_eps -> G_eps_prime.

    Both letter sets are totally ordered (values are distinct, so no ties
    arise), and omega matches them rank by rank; the window is mapped
    letterwise.
    """
    omega = _omega(eps, eps_prime)
    if w.colors != tuple(eps.color_of(v) for v in w.pi):
        raise ValueError(f"window {w.window_str()} does not belong to G_{eps.colors}")
    mapped = [omega[(v, c)] for v, c in zip(w.pi, w.colors)]
    return ColoredPermutation(
        tuple(v for v, _ in mapped), tuple(c for _, c in mapped)
    )


# -- step verifiers ------------------------------------------------------------


def _same_support_pairs(r: int, n: int):
    """Each color vector paired with the lexicographically first of its support.

    Both compared properties are equalities, hence transitive, so these
    r^n - 2^n pairs check the same claim as all pairs within a support, and
    the first failing pair is the one the all-pairs order would meet first.
    """
    for first, *rest in color_classes(r, n, lambda colors: tuple(c > 0 for c in colors)):
        for other in rest:
            yield first, other


def verify_lemma_same_support(
    r: int, n: int, cap: int = 5, budget: int = DEFAULT_BUDGET
) -> VerificationReport:
    """Same-support color vectors share descent sets and shifted cone sums.

    Descent part: for every window color vector, the first vector of equal
    support, and every pi, the two windows have identical descent sets.
    Cone part: the cone sums of the same pairs of cubes agree after
    shifting by u to a common color weight.  Every term of a cone sum sits
    at u^col, col the sum of the colors, and the sum depends on nothing but
    the sorted colors, so it is lowered by its col once per sorted colors,
    and shifted only for a failing pair's report.
    """
    from .geometry import cone_sum

    started = time.perf_counter()
    # Recorded command output (golden hashes, benchmark digests) has check_cone.
    params = {"r": r, "n": n, "t_cap": cap, "check_cone": True}

    perms = list(itertools.permutations(range(1, n + 1)))
    # rows[c][v] is the key of the letter v^c; colors are indexed by position.
    rows = [tuple(bz_sort_key(v, c) for v in range(n + 1)) for c in range(r)]

    @functools.cache
    def masks(word: tuple[tuple[int, ...], ...]) -> list[tuple[bool, ...]]:
        """The descent indicator vector of the window with keys word[i][pi(i)], for every pi."""
        return list(_descent_masks(tuple(map(tuple.__getitem__, word, pi)) for pi in perms))

    for e1, e2 in _same_support_pairs(r, n):
        lead_masks, other_masks = (masks(tuple(map(rows.__getitem__, e))) for e in (e1, e2))
        if other_masks != lead_masks:
            pi = next(p for p, x, y in zip(perms, lead_masks, other_masks) if x != y)
            counterexample = {
                "part": "descents",
                "pi": list(pi),
                "eps": list(e1),
                "eps_prime": list(e2),
                "lhs": sorted(descent_set(ColoredPermutation._trusted(pi, e1))),
                "rhs": sorted(descent_set(ColoredPermutation._trusted(pi, e2))),
            }
            return _finish("same_support", params, counterexample, started)

    @functools.cache
    def at_u0(colors: tuple[int, ...]) -> dict[tuple[int, int, int], int]:
        """The cone sum of the cube with these sorted colors as (q, t, u - col) keys."""
        total = cone_sum(EpsilonVector(colors), cap, budget)
        return {(q, t, u - sum(colors)): c for (q, t, u), c in total.terms.items()}

    for e1, e2 in _same_support_pairs(r, n):
        if at_u0(tuple(sorted(e1))) != at_u0(tuple(sorted(e2))):
            return report_from_comparison(
                "same_support",
                params,
                cone_sum(EpsilonVector(e1), cap, budget) * TruncatedPoly.term(cap, 1, u=sum(e2)),
                cone_sum(EpsilonVector(e2), cap, budget) * TruncatedPoly.term(cap, 1, u=sum(e1)),
                started,
                {"part": "cone_sums", "eps": list(e1), "eps_prime": list(e2)},
            )

    return _finish("same_support", params, None, started)


def verify_prop_few_colors(
    l: int, n: int, cap: int, budget: int = DEFAULT_BUDGET
) -> VerificationReport:
    """Cone sum of the (1^l, 0^(n-l)) cube, four ways, and the numerator's piece.

    The cone sum by lattice-point enumeration is the geometric side.  It
    must equal the closed form u^l sum_k [k]_q^l [k+1]_q^(n-l) t^k, one
    ``slice_product`` of its map of heights; the G_eps generating function
    over the denominator, compared with that map; and the factorised
    :func:`cone_sum` that every other step uses.  These n+1 cubes are the
    only ones whose lattice points a run enumerates.  Last, the piece u^l
    F_l that :func:`~wreath_identity.wreath.numerator` takes from the
    first-letter recursion (:func:`~wreath_identity.wreath.few_colors_pieces`)
    must equal the walked :func:`g_epsilon_gf`.
    """
    from .geometry import cone_sum, cone_sum_by_enumeration

    started = time.perf_counter()
    params = {"l": l, "n": n, "t_cap": cap}
    eps = few_colors_eps(l, n)
    geometric = cone_sum_by_enumeration(eps, cap, budget)
    group = g_epsilon_gf(eps, cap)

    u = TruncatedPoly.term(cap, 1, u=1)
    heights = {
        k: [(q_integer(k, cap), l), (q_integer(k + 1, cap), n - l), (u, l)]
        for k in range(cap + 1)
    }
    closed = slice_product(heights, cap)
    # Equal sides come back as None.  The part is reached only when closed
    # equals geometric, so either stands for the cone sum.
    quotient, cone = compare_product(group, n, heights) or (closed, closed)

    sides = (
        ("closed_form", geometric, closed),
        ("group_side", cone, quotient),
        ("factorised", cone_sum(eps, cap, budget), geometric),
        ("numerator_piece", group, few_colors_pieces(n, cap)[l]),
    )
    for part, lhs, rhs in sides:
        report = report_from_comparison(
            "few_colors", params, lhs, rhs, started, {"part": part}
        )
        if not report.ok:
            break
    return report


def verify_lemma_triple_preserving(
    eps: EpsilonVector, eps_prime: EpsilonVector
) -> VerificationReport:
    """omega induces a descent-set-preserving bijection G_eps -> G_eps_prime.

    Checks the setwise Des equality elementwise (which subsumes maj and
    des), the color weights, and bijectivity of the induced map.  Every image
    has the same col, and the images are G_eps_prime exactly when omega
    maps the letters of eps onto those of eps_prime.
    """
    started = time.perf_counter()
    params = {"eps": list(eps.colors), "eps_prime": list(eps_prime.colors)}
    omega = _omega(eps, eps_prime)
    letters = list(enumerate(eps.colors, 1))
    images = [omega[letter] for letter in letters]
    same_col = sum(c for _, c in images) == eps.col()
    # Permuting the letters walks the windows in the order of g_epsilon.
    masks = _descent_masks(itertools.permutations(itertools.starmap(bz_sort_key, letters)))
    image_masks = _descent_masks(itertools.permutations(itertools.starmap(bz_sort_key, images)))
    perms = itertools.permutations(range(1, eps.n + 1))
    counterexample = None
    for pi, mask, image_mask in zip(perms, masks, image_masks):
        if mask != image_mask or not same_col:
            w = colored_window(eps, pi)
            image = omega_map(eps, eps_prime, w)
            counterexample = {
                "window": w.window_str(),
                "image": image.window_str(),
                "descents": sorted(descent_set(w)),
                "image_descents": sorted(descent_set(image)),
            }
            break
    if counterexample is None and sorted(images) != list(enumerate(eps_prime.colors, 1)):
        counterexample = {
            "part": "bijection",
            "image_count": len({omega_map(eps, eps_prime, w) for w in g_epsilon(eps)}),
            "expected_count": len(list(g_epsilon(eps_prime))),
        }
    return _finish("triple_preserving", params, counterexample, started)


def verify_corollary(
    eps: EpsilonVector, cap: int, budget: int = DEFAULT_BUDGET
) -> VerificationReport:
    """Cone sum of any cube equals its G_eps generating function over the denominator.

    After the cone's budget check, both sides depend on eps only through
    the (maj, des) tally of its letter keys and its sorted colors, so they
    are compared once per such key (:func:`_cone_against_group`).
    """
    from .geometry import check_cone_budget

    started = time.perf_counter()
    params = {"eps": list(eps.colors), "t_cap": cap}
    check_cone_budget(eps.n, cap, budget)
    tally = _key_tally(tuple(map(bz_sort_key, range(1, eps.n + 1), eps.colors)))
    sides = _cone_against_group(frozenset(tally), tuple(sorted(eps.colors)), cap)
    if sides is None:
        return _finish("cone_generating_function", params, None, started)
    rhs, lhs = sides
    return report_from_comparison("cone_generating_function", params, lhs, rhs, started)


@functools.lru_cache(maxsize=None)
def _cone_against_group(tally: frozenset, colors: tuple[int, ...], cap: int):
    """:func:`compare_product` of GF(G_eps), the tally at u^col, and the cube's map of heights."""
    from .geometry import _cube_heights

    group = TruncatedPoly(cap, ((Monomial(q, d, sum(colors)), count) for (q, d), count in tally))
    return compare_product(group, len(colors), _cube_heights(colors, cap))


def verify_theorem(
    r: int, n: int, cap: int | None = None, budget: int = DEFAULT_BUDGET
) -> VerificationReport:
    """The full identity, compared exactly after clearing the denominator.

    Left side: the sum over heights k <= cap of ([k+1]_q + u[r-1]_u[k]_q)^n t^k.
    Right side: the joint (maj, des, col) distribution over the whole group,
    assembled by :func:`numerator` from the few-colors pieces
    G_(1^l, 0^(n-l)), times prod_(j=0)^n 1/(1 - q^j t), truncated at the
    same cap.  The numerator is built first, so parameters whose group
    order r^n * n! exceeds the budget raise BudgetExceededError before any
    left-side work.  :func:`compare_product` takes the numerator and n: it
    packs the numerator once, multiplies it by each 1/(1 - q^j t) as a
    running sum over the packed t-slices, compares those slices with one
    power of :func:`lhs_base` per height, and decodes both sides into
    polynomials only on a mismatch, for the counterexample.
    """
    if r < 1 or n < 1:
        raise ValueError(f"r and n must be positive, got r={r}, n={n}")
    if cap is None:
        cap = n + 3
    started = time.perf_counter()
    params = {"r": r, "n": n, "t_cap": cap}
    sides = compare_product(
        numerator(r, n, cap, budget), n, {k: [(lhs_base(r, k, cap), n)] for k in range(cap + 1)}
    )
    if sides is None:
        return _finish("theorem", params, None, started)
    rhs, lhs = sides
    return report_from_comparison("theorem", params, lhs, rhs, started)
