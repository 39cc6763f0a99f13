"""The coefficient overflow error, apart from the polynomial kernel that raises it.

The command line maps it to exit code 3, and a command that multiplies no
polynomial (``table``, or a ``verify`` refused by its group-order check)
must not compile :mod:`~wreath_identity.poly` only to name it.  ``poly``
re-exports it, so ``wreath_identity.poly.CoefficientOverflowError`` is the
same class.
"""


class CoefficientOverflowError(OverflowError):
    """A coefficient left the signed 64-bit range."""
