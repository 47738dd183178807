"""The error hierarchy: every error dxdy raises on purpose is a DxdyError.

Its branch decides the command-line exit status:

* ``UsageError`` (exit 2): an expression outside the grammar or the model,
  or an argument outside its domain.  It is a ``ValueError``.
* ``ComputationError`` (exit 1): a valid input whose computation fails, for
  example a pole on the contour or a root iteration that overflows.  Each
  subclass also keeps a builtin base (``ValueError``, ``RuntimeError`` or
  ``OverflowError``), so ``except`` clauses on that base still catch it.

Any other exception is a bug, and the command line lets its traceback show.
"""


class DxdyError(Exception):
    """Base of every error dxdy raises on purpose."""


class UsageError(DxdyError, ValueError):
    """The input or an argument is outside what dxdy accepts."""


class ComputationError(DxdyError):
    """A valid input whose computation cannot give a trustworthy result."""


class RangeError(ComputationError, OverflowError):
    """A value lies beyond the double range."""
