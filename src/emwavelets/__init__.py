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
    CustomCut,
    FlatDisk,
    LowerSpheroid,
    OblateCoords,
    SmoothSpheroid,
    SourceConfig,
    UpperSpheroid,
    branch,
    complex_distance_principal,
    frame,
    from_oblate,
    smooth_cut_function,
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
    EMFieldSample,
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
    disk_angular_velocity,
    effective_aperture,
    field_jump,
    impulse_surface_sources,
    impulse_tilde_lmn,
    surface_sources_approx,
    surface_sources_exact,
    tilde_lmn,
)
from .harness.fd import field_curl_oracle, lorenz_residual, wave_residual

__version__ = "0.1.0"
