"""Exception and warning types shared by all modules.

Every argument check in the library raises :class:`InvalidParameterError`
naming the argument; the command line reports it as an error in the field of
that name.  Every count, length and site passes one integer rule,
:func:`_integer`: Python and numpy integers in the caller's range, no bools
or floats.  Every coupling passes :func:`_real` and every basis name
:func:`_basis`.  The other errors are numerical failures of valid arguments.
"""
import math
import numbers
import operator


class KitaevDEError(Exception):
    """Base class for every error raised by this library."""


class InvalidParameterError(KitaevDEError, ValueError):
    """An argument is outside what the function accepts; ``param`` is the
    argument's name.  A ``ValueError``, so callers catching that keep
    working."""

    def __init__(self, param: str, message: str):
        super().__init__(message)
        self.param = param


def _integer(value, name: str, low=-math.inf, high=math.inf) -> int:
    """``value`` as an ``int`` if ``operator.index`` takes it (a tenth of the
    cost of an ``Integral`` test; grid sizes pass here several times per sweep
    point), it is not a bool and ``low <= value <= high``, else
    :class:`InvalidParameterError` ``name``."""
    try:
        index = operator.index(value)
    except TypeError:
        index = None
    if index is None or isinstance(value, bool) or not low <= index <= high:
        raise InvalidParameterError(
            name, f"{name} = {value!r} is not an integer in {low} .. {high}")
    return index


def _real(value, name: str) -> float:
    """``value`` as a float if it is a real number, not a bool, within the
    float range, else :class:`InvalidParameterError` ``name``."""
    if not isinstance(value, bool) and isinstance(value, numbers.Real):
        try:
            return float(value)
        except OverflowError:  # an integer or fraction beyond the float range
            pass
    raise InvalidParameterError(
        name, f"{name} = {value!r} is not a real number within the float range")


def _basis(value) -> str:
    """``value`` in lower case if it is a string naming the ``z`` or ``x``
    basis, else :class:`InvalidParameterError` ``basis``."""
    if isinstance(value, str) and value.lower() in ("z", "x"):
        return value.lower()
    raise InvalidParameterError("basis", f"unknown basis {value!r}")


class GaplessSpecError(KitaevDEError):
    """The operation needs a gapped spectrum, but the smallest grid energy, or
    the energy at the one requested momentum, is at or below GAP_TOL or NaN."""


class SpectrumOverflowError(KitaevDEError):
    """The couplings are so large that the closed chain's numerators and
    energies, or the open chain's coupling matrix, could overflow."""


class TolAmbiguousError(KitaevDEError):
    """A singular value sits within a factor of ten of the null-space cutoff,
    so the zero-mode count is unreliable at this tolerance."""


class NormalizationFailureError(KitaevDEError):
    """A diagonal distribution failed to normalise: a joint probability of
    the chain rule fell below -1e-12 or a level's total left 1 by more than
    1e-6 (NaN fails both).  Signals a bad contraction matrix."""


class DegenerateGroundStateError(KitaevDEError):
    """The two lowest eigenvalues (or the smallest quasiparticle energy) are
    closer than the degeneracy tolerance; correlators are ill-defined."""


class NonUniformGridError(KitaevDEError):
    """Susceptibility requires a uniformly spaced parameter grid."""


class InsufficientPointsError(KitaevDEError):
    """Not enough data points for the requested fit."""


class IllConditionedError(KitaevDEError):
    """Design matrix condition number exceeds the stability threshold."""


class OddDimensionError(KitaevDEError):
    """Pfaffians are defined for even-dimensional matrices only."""


class NumericalWindingWarning(UserWarning):
    """Never raised since the winding number became an exact count; kept so
    that code filtering or counting this category keeps working."""
