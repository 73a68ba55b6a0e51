"""dyson-lab: a numerical laboratory for determinantal random point fields.

Exact spectral sampling, determinant/series correlation machinery, log-gas
and gradient-diffusion dynamics with collision probes, and Monte Carlo
cutoff-energy estimates, all behind reproducible counter-based random
streams.
"""

__version__ = "0.1.0"

from .errors import (ConfigError, DegenerateProjectionError, DysonLabError,
                     IntegrationFailureError, KernelParameterError,
                     KernelValidityError, SamplingError,
                     SingularConfigurationError)
from .kernels import (Kernel, ValidationReport, construct_kernel, kernel_from_json,
                      validate_kernel)
from .rng import RngStream, map_streams, stream_generators
from .sampler import (Box, Configuration, DppSampler, lambda_n,
                      log_gas_window_counts, sample_dpp_batch, sample_log_gas,
                      sample_log_gas_batch, sample_poisson, sample_poisson_batch)
from .spectral import (SpectralDecomposition, eigenfunction_values, fredholm_det,
                       l_matrix, nystrom_decompose)
from .statistics import (CorrelationEstimate, DensityValue, SeriesEvaluator,
                         crosscheck_density, estimate_correlation, rho_det,
                         sigma_fredholm)
from .dynamics import (EnsembleRun, HittingStats, PairDriftTable, Trajectory,
                       conditioned_pair_initials, distorted_pair_collision_probe,
                       dyson_collision_probe, dyson_drift, integrate_ensemble,
                       wilson_interval)
from .capacity import (CapacityEstimate, DecayFit, decay_fit,
                       estimate_I_eps_from_samples, h_eps, h_lin, pair_energy,
                       poisson_pair_count_oracle)
