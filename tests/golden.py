"""Hand-checked golden values shared by the unit and acceptance tests.

Figure grids map a point (v1, v2) to its t-free weight (q_exp, u_exp);
descent tables map window text to the expected descent set.
:func:`tuple_order_descents` restates the descent rule without the
package's letter key, so that the key's fast paths have a reference that
a wrong key does not also change.  :func:`clear_caches` empties every
cache of computed polynomials and comparisons, for tests that lower
``poly.INT64_MAX`` or patch what a cached result is built from.
"""

from wreath_identity import geometry, identity, poly, wreath


def clear_caches():
    """Forget every cached result, so each is rebuilt under the current range check."""
    poly.expand_denominator.cache_clear()
    wreath._key_tally.cache_clear()
    wreath.few_colors_pieces.cache_clear()
    geometry._factorised_cone_sum.cache_clear()
    geometry._cube_heights.cache_clear()
    identity._cone_against_group.cache_clear()


def tuple_order_descents(w):
    """Descent set of a window under the tuple form of the colored-letter order.

    A positive-colored letter v^c is (0, -v), a zero-colored letter v^0 and
    the sentinel 0^0 at position 0 are (1, v).
    """
    keys = [(1, 0)] + [(0, -v) if c > 0 else (1, v) for v, c in zip(w.pi, w.colors)]
    return {i for i in range(len(w.pi)) if keys[i] > keys[i + 1]}


# 3x3 grid of t-free point weights for r=2, n=2, k=1.
FIGURE_R2_K1 = {
    (0, 0): (0, 0),
    (1, 0): (1, 0),
    (2, 0): (0, 1),
    (0, 1): (1, 0),
    (1, 1): (2, 0),
    (2, 1): (1, 1),
    (0, 2): (0, 1),
    (1, 2): (1, 1),
    (2, 2): (0, 2),
}

# 5x5 grid of t-free point weights for r=2, n=2, k=2.
FIGURE_R2_K2 = {
    (0, 0): (0, 0),
    (1, 0): (1, 0),
    (2, 0): (2, 0),
    (3, 0): (0, 1),
    (4, 0): (1, 1),
    (0, 1): (1, 0),
    (1, 1): (2, 0),
    (2, 1): (3, 0),
    (3, 1): (1, 1),
    (4, 1): (2, 1),
    (0, 2): (2, 0),
    (1, 2): (3, 0),
    (2, 2): (4, 0),
    (3, 2): (2, 1),
    (4, 2): (3, 1),
    (0, 3): (0, 1),
    (1, 3): (1, 1),
    (2, 3): (2, 1),
    (3, 3): (0, 2),
    (4, 3): (1, 2),
    (0, 4): (1, 1),
    (1, 4): (2, 1),
    (2, 4): (3, 1),
    (3, 4): (1, 2),
    (4, 4): (2, 2),
}

# The six windows fixing letter colors (1, 0, 1), with their descent sets.
DES_101 = {
    "[1^1 2^0 3^1]": {0, 2},
    "[1^1 3^1 2^0]": {0, 1},
    "[2^0 1^1 3^1]": {1, 2},
    "[2^0 3^1 1^1]": {1},
    "[3^1 1^1 2^0]": {0},
    "[3^1 2^0 1^1]": {0, 2},
}

# The six windows fixing letter colors (1, 1, 0), with their descent sets.
DES_110 = {
    "[1^1 2^1 3^0]": {0, 1},
    "[1^1 3^0 2^1]": {0, 2},
    "[2^1 1^1 3^0]": {0},
    "[2^1 3^0 1^1]": {0, 2},
    "[3^0 1^1 2^1]": {1, 2},
    "[3^0 2^1 1^1]": {1},
}

# The order-preserving relabeling between the two letter sets above.
OMEGA_LETTERS = {(3, 1): (2, 1), (1, 1): (1, 1), (2, 0): (3, 0)}

# Its letterwise extension on whole windows.
OMEGA_IMAGES = {
    "[1^1 2^0 3^1]": "[1^1 3^0 2^1]",
    "[1^1 3^1 2^0]": "[1^1 2^1 3^0]",
    "[2^0 1^1 3^1]": "[3^0 1^1 2^1]",
    "[2^0 3^1 1^1]": "[3^0 2^1 1^1]",
    "[3^1 1^1 2^0]": "[2^1 1^1 3^0]",
    "[3^1 2^0 1^1]": "[2^1 3^0 1^1]",
}

# Reversal-shift correspondence for letter colors (1, 1, 0), l=2:
# window text -> (rho o pi in one-line notation, expected descent set).
DESCENT_SHIFT_110 = {
    "[1^1 2^1 3^0]": ((2, 1, 3), {0, 1}),
    "[1^1 3^0 2^1]": ((2, 3, 1), {0, 2}),
    "[2^1 1^1 3^0]": ((1, 2, 3), {0}),
    "[2^1 3^0 1^1]": ((1, 3, 2), {0, 2}),
    "[3^0 1^1 2^1]": ((3, 2, 1), {1, 2}),
    "[3^0 2^1 1^1]": ((3, 1, 2), {1}),
}
