"""Exact desk-scale verification of a colored-permutation descent identity.

The identity equates, for positive integers r and n, the height-generating
sum of ([k+1]_q + u[r-1]_u[k]_q)^n t^k with the joint (maj, des, col)
distribution over all r-colored permutations of n letters divided by
prod_{j=0}^n (1 - q^j t).  Every construction used in its geometric proof
is implemented and checked exhaustively; where a step is computed from a
factorisation instead (the group side in :func:`numerator`, the cube side
in :func:`cone_sum`), the brute-force enumeration is kept as its oracle,
and the term-pair product :func:`mul_by_terms` is the oracle of the
packed polynomial multiply and of the theorem's packed comparison
:func:`compare_product`.
"""

# Every exported name, by the module that defines it.  Importing the package
# loads none of these modules: the first use of a name (``from
# wreath_identity import cone_sum`` or ``wreath_identity.cone_sum``) loads its
# module through ``__getattr__`` (PEP 562), so a ``wreath-id`` process compiles
# only the modules its command runs.  ``Monomial`` is defined in ``wreath``,
# which every command compiles, so ``figure`` and ``decompose`` need no ``poly``
# (which re-exports it).
_EXPORTS = {
    "errors": ("CoefficientOverflowError",),
    "poly": (
        "TruncatedPoly", "compare_product", "expand_denominator", "first_difference",
        "lhs_base", "lhs_term", "mul_by_terms", "q_integer", "u_integer",
    ),
    "wreath": (
        "BudgetExceededError", "ColoredPermutation", "DEFAULT_BUDGET", "EpsilonVector",
        "Monomial", "col", "colored_window", "des", "descent_set", "enumerate_group",
        "g_epsilon", "g_epsilon_gf", "group_order", "maj", "numerator",
        "ordinary_descent_set",
    ),
    "geometry": (
        "CubeSliceSpec", "LatticePoint", "cone_sum", "cone_sum_by_enumeration",
        "delta_membership", "enumerate_slice", "figure_grid", "find_simplex",
        "full_slice_sum", "m", "m_prime", "slice_membership", "slice_sum",
    ),
    "identity": (
        "Partition", "VerificationReport", "composition_to_partition",
        "descent_shift_check", "find_pi_for_composition", "omega_map", "rho",
        "verify_corollary", "verify_lemma_same_support",
        "verify_lemma_triple_preserving", "verify_prop_few_colors", "verify_theorem",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # What ``from .<module> import <name>`` does; later lookups find the global.
    value = getattr(__import__(module, globals(), None, (name,), 1), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
