"""Complex-source pulsed beams and their spheroidal antenna sources.

A point source displaced to imaginary coordinates i*a turns the Euclidean
distance into the complex distance sigma = p - i*q, whose branch cuts are
oblate spheroidal membranes spanning the circle sigma = 0.  Driving such a
source with the analytic signal of a pulse produces tightly collimated,
causally radiated beams; this package evaluates them (scalar and
electromagnetic), the induced surface charge/current densities on the
spheroid, and a battery of numerical identity checks.
"""

from .errors import (
    ConfigError,
    EmwaveletsError,
    LightConePoleError,
    NearRimError,
    NoSolutionError,
    NonFiniteFieldError,
    NonFiniteSourceError,
    OnBranchCircleError,
    OnCutError,
    PoleOnPathError,
    QuadratureDivergenceError,
    RimSingularityError,
    SubRadiatingError,
    TooCloseToCutError,
    UnderResolvedSignalError,
)
from .geometry import (
    BranchCut,
    ComplexDistanceSample,
    FlatDisk,
    LowerSpheroid,
    OblateCoords,
    SmoothSpheroid,
    SourceConfig,
    UpperSpheroid,
    branch,
    complex_distance_principal,
    frame,
    spheroid_point,
    to_oblate,
)
from .signals import (
    CauchySignal,
    SampledSignal,
    SpectralProfile,
    diffraction_angle,
    eval_derivs,
    mixed_signals,
    peak_strength,
    pulse_duration,
    spectral_profile,
    spectrum_cauchy,
)
from .scalar_wavelet import ScalarWavelet, interior_psi, psi, psi_of_sigma
from .em_fields import (
    LMNTriplet,
    far_field,
    field,
    four_potential,
    helicity_residual,
    interior_field,
    joint_field,
    lmn,
    poynting_energy_far,
)
from .surface_sources import (
    SurfaceSourceSample,
    coulomb_disk_sources,
    coulomb_spheroid_sources,
    effective_aperture,
    impulse_surface_sources,
    impulse_tilde_lmn,
    surface_sources_approx,
    surface_sources_exact,
    tilde_lmn,
)

__version__ = "0.1.0"


def __getattr__(name):
    """field_curl_oracle, loaded from harness.fd on first use.

    `import emwavelets` loads no finite-difference oracle; the oracles live in
    emwavelets.harness.fd.  The benchmark's reference check (perfbench/checks.py)
    still imports this one from the package, so it resolves here until that
    import moves.
    """
    if name == "field_curl_oracle":
        from .harness.fd import field_curl_oracle

        return field_curl_oracle
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
