"""Exception types shared across the package."""


def _spelled(v) -> str:
    # linalg imports this module, so the spelling is looked up on first use
    from .linalg import format_vector

    return format_vector(v)


class GrrsError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(GrrsError):
    """Vector or matrix size does not match the ambient space."""


class NotRational(GrrsError):
    """A coordinate that no rational holds: an infinite float."""


class IsotropicBase(GrrsError):
    """A linear reflection was requested at an isotropic vector."""


class _IsotropicImage(GrrsError):
    """The images of beta under the reflection at the isotropic root alpha
    are not one root; each subclass's `_text` spells how, from beta and alpha."""

    def __init__(self, alpha, beta, message=None):
        self.alpha = alpha
        self.beta = beta
        super().__init__(message or self._text.format(_spelled(beta), _spelled(alpha)))


class AmbiguousReflection(_IsotropicImage):
    """Both candidate images of an isotropic reflection are roots (GR3 fails)."""

    _text = "both images of {} under r_{} are roots"


class MissingImage(_IsotropicImage):
    """Neither candidate image of an isotropic reflection is a root (WGR3 fails)."""

    _text = "no image of {} under r_{} is a root"


class OrthogonalSeed(GrrsError):
    """A generating set contains an element orthogonal to the whole set."""


class IsotropicPresent(GrrsError):
    """Operation defined only for systems without isotropic roots."""


class UnknownRoot(GrrsError):
    """The requested vector is not a root of the system."""


class KernelTooLarge(GrrsError):
    """Operation requires a one-dimensional radical."""


class NotInKernel(GrrsError):
    """Quotient directions must lie in the radical of the form."""


class NotBijective(GrrsError):
    """A quotient map required to be injective on roots is not."""


class BadParameters(GrrsError):
    """Invalid parameters for a catalog constructor."""


class BadMatrix(GrrsError):
    """Input matrix violates the preconditions of the construction."""


class KTooLarge(GrrsError):
    """Kernel dimension exceeds the supported classification bound."""


class NotClassified(GrrsError):
    """No complete classification is implemented for this case."""


class UnrecognizedCl(GrrsError):
    """The minimal quotient does not match any supported catalog type."""


class NoName(GrrsError):
    """No Kac-Moody style name is attached to this descriptor."""
