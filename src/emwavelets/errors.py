"""Exception types shared across the package, and the one way points are refused."""

import numpy as np


class EmwaveletsError(Exception):
    """Base class for all package-specific errors."""


class OnCutError(EmwaveletsError):
    """Field point lies on a branch cut, where the branched distance is ambiguous."""


class OnBranchCircleError(EmwaveletsError):
    """Field point lies on (or too close to) the branch circle, where sigma = 0."""


class TooCloseToCutError(EmwaveletsError):
    """Finite-difference stencil would straddle a branch cut."""


class NearRimError(EmwaveletsError):
    """Surface point lies inside the rim exclusion band of the spheroid."""


class LightConePoleError(EmwaveletsError):
    """Impulse-response evaluation at tau = +-sigma, a genuine singularity."""


class PoleOnPathError(EmwaveletsError):
    """Signal evaluation requested at a pole of the kernel."""


class QuadratureDivergenceError(EmwaveletsError):
    """Sampled signal does not decay at the ends of its grid."""


class UnderResolvedSignalError(EmwaveletsError):
    """Sampled signal evaluated closer to the real axis than its sample grid resolves."""


class NoSolutionError(EmwaveletsError):
    """Requested beam-design equation has no solution for these parameters."""


class SubRadiatingError(EmwaveletsError):
    """Frequency too low for an effective aperture (ka <= 1)."""


class RimSingularityError(EmwaveletsError):
    """Disk source density evaluated at the rim, where it diverges."""


class ConfigError(EmwaveletsError):
    """Invalid run configuration."""


def _refuse(error, reason, bad, r):
    """Raise error(reason) if any point of r is bad, naming how many and the first of them."""
    if np.any(bad):
        first = np.reshape(r, (-1, 3))[np.flatnonzero(bad)[0]]
        where = ", ".join(f"{v:g}" for v in first)
        count = f"{np.count_nonzero(bad)} of {np.size(bad)} points refused"
        raise error(f"{reason}: {count}, first at ({where})")
