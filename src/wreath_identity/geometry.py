"""Lattice geometry over the cone of the box [0, r]^n.

The cone is the set of points (alpha*x, alpha) for x in [0, r]^n and
alpha >= 0; its lattice points are organized by the height-k slices
([0, kr]^n, k).  Each point gets an exact monomial weight via
:func:`m_prime` / :func:`m`, the box decomposes into half-open unit cubes
indexed by color vectors (:func:`slice_membership`), and [0, k]^n further
decomposes into dilated partially open simplices indexed by permutations
(:func:`delta_membership`), found by :func:`find_simplex`, the one search
the composition bijection reads through rho.  It compares integers only.

A cube's slice is a product of coordinate intervals and a point's weight
is t^k times a product of coordinate weights, so a cube's cone sum is
one map {k: [(interval sum, count), ...]} of per-coordinate interval
sums (:func:`_cube_heights`), which :func:`cone_sum` expands with one
``slice_product`` without visiting its lattice points.
:func:`cone_sum_by_enumeration` visits every point and is the oracle it is
checked against: per height it builds one table of the coordinate weights
m'(j, k), packed as the int q*span + u, and weighs each point of
:func:`enumerate_slice` by summing its coordinates' entries, so it does not
rely on distributivity.  :class:`CubeSliceSpec` is a
:class:`~wreath_identity.wreath.Frozen` value.

:func:`figure_rows` is the one source of the n = 2 figure: the command
fills a template with each of its rows, and :func:`figure_grid` makes
them into records.  Only the functions that build polynomials (the slice
and cone sums, and the oracles) import :mod:`~wreath_identity.poly`, so
``figure`` and ``decompose`` never compile it.
"""

from __future__ import annotations

import collections
import functools
import itertools
from collections.abc import Iterator, Sequence
from operator import itemgetter

from .wreath import (
    DEFAULT_BUDGET,
    EpsilonVector,
    Frozen,
    Monomial,
    _check_cap,
    capped_product,
    check_count,
    ordinary_descent_set,
)


class LatticePoint(collections.namedtuple("LatticePoint", "v k")):
    """A lattice point (v, k) on the height-k slice of the cone: v a tuple of ints, k an int."""

    __slots__ = ()


@functools.lru_cache(maxsize=None)
def m_prime(j: int, k: int) -> Monomial:
    """Weight of the single coordinate value j at height k (t-free).

    q^j on the initial run 0 <= j <= k; past it, the value wraps into
    q^((j-1) mod k) * u^((j-1) div k), with the mod-k representative taken
    from [0, k-1].

    >>> m_prime(2, 1), m_prime(3, 2), m_prime(4, 2)
    (Monomial(q=0, t=0, u=1), Monomial(q=0, t=0, u=1), Monomial(q=1, t=0, u=1))
    """
    if j < 0:
        raise ValueError(f"coordinate value must be nonnegative, got {j}")
    if k < 0:
        raise ValueError(f"height must be nonnegative, got {k}")
    if k == 0:
        if j != 0:
            raise ValueError(f"height 0 admits only the apex coordinate, got {j}")
        return Monomial(0, 0, 0)
    if j <= k:
        return Monomial(j, 0, 0)
    return Monomial((j - 1) % k, 0, (j - 1) // k)


def m(p: LatticePoint) -> Monomial:
    """Weight of a lattice point: the product of its coordinate weights times t^k."""
    q_exp = 0
    u_exp = 0
    for vi in p.v:
        mon = m_prime(vi, p.k)
        q_exp += mon.q
        u_exp += mon.u
    return Monomial(q_exp, p.k, u_exp)


class CubeSliceSpec(Frozen):
    """The height-k slice of the cone over the half-open cube of eps."""

    __slots__ = ("eps", "k")

    def __init__(self, eps: EpsilonVector, k: int):
        if k < 0:
            raise ValueError(f"height must be nonnegative, got {k}")
        object.__setattr__(self, "eps", eps)
        object.__setattr__(self, "k", k)


def slice_membership(p: LatticePoint, spec: CubeSliceSpec) -> bool:
    """Whether (v, k) lies in the dilated half-open cube of eps at height k.

    Coordinate i must satisfy k*eps_i <= v_i <= k*(eps_i + 1), strictly on
    the left when eps_i > 0 (the lower facet is removed there).  The apex
    (k = 0) belongs to the eps = 0 cone only.
    """
    if p.k != spec.k:
        raise ValueError(f"height mismatch: point at {p.k}, slice at {spec.k}")
    if len(p.v) != spec.eps.n:
        raise ValueError(f"dimension mismatch: point {p.v}, eps {spec.eps.colors}")
    if spec.k == 0:
        return all(vi == 0 for vi in p.v) and all(c == 0 for c in spec.eps.colors)
    for vi, ei in zip(p.v, spec.eps.colors):
        lo = spec.k * ei
        if vi > lo + spec.k or vi < lo or (ei > 0 and vi == lo):
            return False
    return True


def enumerate_slice(
    spec: CubeSliceSpec, budget: int = DEFAULT_BUDGET
) -> Iterator[LatticePoint]:
    """All lattice points of the slice, in lexicographic order of v.

    The count is k^s * (k+1)^(n-s) for k >= 1, where s is the size of the
    support of eps.
    """
    k, eps = spec.k, spec.eps
    check_cone_budget(eps.n, k, budget)
    ranges = [_cube_interval(c, k) for c in eps.colors]
    # LatticePoint(v, k) is tuple.__new__ behind a Python-level __new__;
    # calling it directly keeps the walk in C.
    point = functools.partial(tuple.__new__, LatticePoint)
    return map(point, zip(itertools.product(*ranges), itertools.repeat(k)))


def _cube_interval(color: int, k: int) -> range:
    """Coordinate values of the height-k slice of a cube along one axis.

    (k*c, k*(c+1)] for a color c > 0 (lower facet removed), [0, k] for c = 0;
    at k = 0 that leaves the apex coordinate 0 for c = 0 and nothing else.
    """
    return range(k * color + (1 if color > 0 else 0), k * (color + 1) + 1)


def slice_sum(
    spec: CubeSliceSpec, cap: int | None = None, budget: int = DEFAULT_BUDGET
) -> TruncatedPoly:
    """Pointwise sum of m over one cube slice (brute-force enumeration).

    Every point of :func:`enumerate_slice` is weighed on its own: its
    coordinates index one table of m'(j, k) packed as q*span + u, and
    their sum is the point's t-free weight packed the same way.
    """
    from .poly import TruncatedPoly

    if cap is None:
        cap = spec.k
    k, n, top_color = spec.k, spec.eps.n, max(spec.eps.colors, default=0)
    weights = [m_prime(j, k) for j in range(k * (top_color + 1) + 1)]
    # A coordinate of the color-c interval has u = c, so a point's u is at
    # most n * top_color and its packed weight unpacks exactly.
    span = n * top_color + 1
    assert n * max(w.u for w in weights) < span
    table = [w.q * span + w.u for w in weights]
    coordinates = map(itemgetter(0), enumerate_slice(spec, budget))  # each point's v
    packed = collections.Counter(
        map(sum, map(map, itertools.repeat(table.__getitem__), coordinates))
    )
    return TruncatedPoly(
        cap, ((Monomial(w // span, k, w % span), count) for w, count in packed.items())
    )


def cone_sum_by_enumeration(
    eps: EpsilonVector, cap: int, budget: int = DEFAULT_BUDGET
) -> TruncatedPoly:
    """Sum of m over the cone of the eps cube, up to t-degree cap, point by point.

    The oracle for :func:`cone_sum`: it visits every lattice point of every
    slice up to height cap.
    """
    from .poly import TruncatedPoly

    total = TruncatedPoly.zero(cap)
    for k in range(cap + 1):
        total = total + slice_sum(CubeSliceSpec(eps, k), cap, budget)
    return total


def check_cone_budget(n: int, cap: int, budget: int) -> None:
    """Raise BudgetExceededError when a cone slice up to height cap exceeds budget.

    A height-k cube slice has up to (k+1)^n points; the message names the
    lowest height that does not fit, the one enumeration would stop at.
    """
    _check_cap(cap)

    def fits(k: int) -> bool:
        return capped_product(itertools.repeat(k + 1, n), budget) <= budget

    if not fits(cap):
        # Bisect for that height: with b the bit length of budget, the
        # height 2^(b // n + 1) does not fit, since its n-th power has more bits.
        lo, hi = 0, min(cap, 2 << budget.bit_length() // max(n, 1))
        while lo < hi:
            mid = (lo + hi) // 2
            lo, hi = (mid + 1, hi) if fits(mid) else (lo, mid)
        sizes = itertools.repeat(lo + 1, n)
        check_count("slice of size up to {}", sizes, f"({lo} + 1)^{n}", budget)


def cone_sum(
    eps: EpsilonVector, cap: int, budget: int = DEFAULT_BUDGET
) -> TruncatedPoly:
    """Sum of m over the cone of the eps cube, up to t-degree cap.

    Each height-k slice is the product of its coordinate intervals I_i and
    m = t^k * prod_i m', so by distributivity the slice sums to
    t^k * prod_i sum_{j in I_i} m'(j, k).  Coordinates of one color share
    an interval, so a slice is the product of the distinct interval sums
    raised to their multiplicities (:func:`_cube_heights`), and the cone
    sum is one :func:`~wreath_identity.poly.slice_product` of them.  The
    budget bounds the lattice points this stands for, so it refuses exactly
    where :func:`cone_sum_by_enumeration` does.
    """
    check_cone_budget(eps.n, cap, budget)
    # The product over coordinates does not depend on their order.
    return _factorised_cone_sum(tuple(sorted(eps.colors)), cap)


@functools.lru_cache(maxsize=None)
def _factorised_cone_sum(colors: tuple[int, ...], cap: int) -> TruncatedPoly:
    from .poly import slice_product

    return slice_product(_cube_heights(colors, cap), cap)


@functools.lru_cache(maxsize=None)
def _cube_heights(colors: tuple[int, ...], cap: int) -> dict:
    """The cone sum of the cube with these sorted colors as {k: [(interval sum, count), ...]}.

    The map is shared by every caller, which must not change it.
    """
    counts = collections.Counter(colors).items()
    return {k: [(_interval_sum(c, k, cap), e) for c, e in counts] for k in range(cap + 1)}


def _interval_sum(color: int, k: int, cap: int) -> TruncatedPoly:
    """sum_{j in I} m'(j, k), I the color's height-k interval, on t-degree 0.

    m'(., k) is one-to-one on I, so the terms are canonical as built.
    """
    from .poly import TruncatedPoly

    weights = map(m_prime, _cube_interval(color, k), itertools.repeat(k))
    return TruncatedPoly._trusted(cap, dict.fromkeys(weights, 1))


def check_grid_budget(r: int, n: int, k: int, budget: int) -> int:
    """Point count (k*r + 1)^n of the slice ([0, kr]^n, k); refuses more than budget."""
    points = itertools.repeat(k * r + 1, n)
    return check_count("grid of {} points", points, f"({k}*{r} + 1)^{n}", budget)


def full_slice_sum(
    r: int, n: int, k: int, cap: int | None = None, budget: int = DEFAULT_BUDGET
) -> TruncatedPoly:
    """Pointwise sum of m over the whole slice ([0, kr]^n, k)."""
    from .poly import TruncatedPoly

    if r < 1 or n < 1:
        raise ValueError(f"r and n must be positive, got r={r}, n={n}")
    if k < 0:
        raise ValueError(f"height must be nonnegative, got {k}")
    if cap is None:
        cap = k
    check_grid_budget(r, n, k, budget)
    points = itertools.product(range(k * r + 1), repeat=n)
    return TruncatedPoly(cap, collections.Counter(m(LatticePoint(v, k)) for v in points))


def delta_membership(alpha: Sequence[int], k: int, pi: Sequence[int]) -> bool:
    """Whether alpha lies in the k-dilated partially open simplex of pi.

    Requires k >= alpha[pi(1)] >= ... >= alpha[pi(n)] >= 0, strictly at
    every classical descent of pi.
    """
    if any(not 0 <= a <= k for a in alpha):
        raise ValueError(f"alpha {tuple(alpha)} outside [0, {k}]^{len(alpha)}")
    if len(alpha) != len(pi):
        raise ValueError(f"dimension mismatch: alpha {tuple(alpha)}, pi {tuple(pi)}")
    descents = ordinary_descent_set(pi)
    prev = k
    for i, letter in enumerate(pi):
        cur = alpha[letter - 1]
        if cur > prev or (i in descents and cur == prev):
            return False
        prev = cur
    return True


def find_simplex(alpha: Sequence[int], k: int) -> tuple[int, ...]:
    """The unique permutation whose dilated simplex contains alpha.

    Exhaustive search over S_n; finding zero or several matches would mean
    the simplices fail to partition [0, k]^n and raises RuntimeError.
    """
    matches = [
        pi
        for pi in itertools.permutations(range(1, len(alpha) + 1))
        if delta_membership(alpha, k, pi)
    ]
    if len(matches) != 1:
        raise RuntimeError(
            f"simplex decomposition violated at alpha={tuple(alpha)}, k={k}: "
            f"{len(matches)} matching permutations"
        )
    return matches[0]


def figure_rows(r: int, k: int) -> Iterator[tuple[int, ...]]:
    """The (kr+1) x (kr+1) grid of t-free point weights for n = 2, row by row.

    Row v1 is one flat tuple: v1, v2, q, u for v2 = 0..kr in turn, where
    q^q u^u is m'(v1, k) m'(v2, k), summed from one table of m'(j, k).
    """
    if r < 1 or k < 0:
        raise ValueError(f"need r >= 1 and k >= 0, got r={r}, k={k}")
    weights = [m_prime(j, k) for j in range(k * r + 1)]
    side = range(len(weights))
    qs, us = [w.q for w in weights], [w.u for w in weights]
    for v1, (q, _, u) in enumerate(weights):
        cells = zip(itertools.repeat(v1), side, map(q.__add__, qs), map(u.__add__, us))
        yield tuple(itertools.chain.from_iterable(cells))


def figure_grid(r: int, k: int) -> list[dict]:
    """The cells of :func:`figure_rows`, in row-major order of v, as records.

    Each monomial record carries the q- and u-exponents with the t-factor
    divided out; :func:`m` is the oracle.
    """
    grid = []
    for row in figure_rows(r, k):
        fields = iter(row)  # zip reads four fields, a cell, at a time
        grid += (
            {"v": [v1, v2], "monomial": {"q": q, "u": u}}
            for v1, v2, q, u in zip(fields, fields, fields, fields)
        )
    return grid
