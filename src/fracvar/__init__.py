"""fracvar: fractional (s,p) energies, capacities, rearrangements, and
weighted nonlocal eigenproblems on truncated uniform grids."""

from .capacity import (BallScalingFit, CapacityOptions, CapacityResult,
                       CellSet, CompactnessVerdict, ConcentrationProfile,
                       HardyNormResult, capacity, capacity_ball_scaling,
                       compactness_diagnostic, concentration_at,
                       concentration_at_infinity, hardy_norm_estimate)
from .eigen import (EigenOptions, EigenResult, PiconeResult, SimplicityReport,
                    eigen_sequence, first_eigenpair, linear_oracle,
                    oracle_levels, picone_gap, residual_check,
                    sign_structure, simplicity_probe)
from .energy import (SeminormValue, energy_and_nonlocal_gradient, gateaux,
                     gateaux_vector, nonlocal_gradient, seminorm_p,
                     stiffness_matrix, weighted_mass)
from .errors import ConfigError, ConvergenceError, DomainError
from .grid import (Ball, Difference, FracParams, FromFile, GaussianBump, Grid,
                   GridFunction, HalfSpace, Indicator, KernelTable, PowerLaw,
                   WeightSpec, build_grid, build_kernel_table, sample,
                   tail_mass)
from .rearrange import (StepFunction, decreasing_rearrangement,
                        distribution_function, lorentz_norm,
                        lorentz_quasi_norm, maximal_function,
                        schwarz_symmetrization)

__version__ = "0.1.0"
