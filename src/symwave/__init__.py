"""symwave: spherical analysis and wave-kernel estimates on symmetric
spaces of complex-group type."""

__version__ = "0.1.0"

from .root_system import (RootSystem, WeylGroup, build_root_system,
                          fold_into_chamber, pi, root_system_from_tag,
                          weyl_group)
from .geometry import (RadialFunction, RadialGrid, density_delta,
                       integrate_biinvariant, phi0, phi0_envelope,
                       read_radial_csv, write_radial_csv)
from .spherical import (SpectralFunction, SpectralGrid, forward_transform,
                        inverse_transform, phi_lambda, phi_lambda_many,
                        plancherel_constant, plancherel_density,
                        radial_laplacian_apply)
from .wave_kernel import (KernelParams, bessel_j, chi_pair, kernel_piece,
                          shell_integral)
from .estimates import (DecayReport, DispersiveReport, critical_point,
                        decay_sweep, dispersive_report, fit_decay,
                        kernel_on_grid, kunze_stein_bound, kunze_stein_sweep,
                        sup_weighted)
from .evolution import (KleinGordonPropagator, WaveState, admissible,
                        gaussian_state, gwp_curves, gwp_powers, gwp_sigma,
                        semilinear_solve, sigma_pq, sobolev_norm_2)
