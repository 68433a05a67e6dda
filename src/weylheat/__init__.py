"""weylheat: spherical functions and Weyl-chamber heat kernels of A_n type.

Numerically stable evaluation of the positive spherical kernel psi_lambda(X)
and the associated chamber heat kernels (flat and curved), their sharp
two-sided envelopes, and a verification layer of independent oracles,
property suites, and ratio sweeps.
"""

__version__ = "0.1.0"

from .errors import (
    CalibrationError,
    DegenerateInput,
    DominanceError,
    PreconditionViolated,
    QuadratureNonconvergence,
    RankTooLarge,
    ToleranceUnachievable,
    WeylHeatError,
)
from .factorization import (
    FactorInput,
    FactorizationReport,
    factor_integral,
    factorization_ratio,
    master_integral,
    recursive_estimate,
    reverse_input,
)
from .heat import (
    VolumeComparison,
    HeatContext,
    volume_compare,
    ball_volume,
    calibrate_constant,
    heat_curved,
    heat_curved_envelope,
    heat_envelope,
    heat_flat,
    heat_time_slope,
    images_oracle,
    inverse_fourier_oracle,
    make_heat_context,
    mms_constant,
    pde_residual,
    semigroup_check,
)
from .rootsystem import (
    ChamberPoint,
    min_weyl_pairing,
    positive_roots,
    rho,
)
from .spherical import (
    EvalResult,
    RegimeLabel,
    phi_curved,
    phi_envelope,
    psi_alt_sum,
    psi_envelope,
    psi_iter_quadrature,
    psi_mc_orbit,
    psi_stable,
    regime_classify,
)
from .verify import (
    AxisSpec,
    RatioReport,
    SweepConfig,
    cancellation_stress,
    prop_checks,
    run_suite,
    sweep_heat_ratio,
    sweep_psi_ratio,
)
