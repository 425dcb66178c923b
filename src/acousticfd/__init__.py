"""Semi-discrete finite difference schemes for the linear acoustic system.

Kernel analysis of evolution matrices (numeric, and exact over stencils read
as Laurent polynomials), stationarity and vorticity preservation
certificates, and vortex benchmarks.
"""

from .grid import (AcousticParams, FieldSet, GridSpec, as_fraction,
                   l1_norm_central_diff, write_field_csv)
from .stencils import (MatrixStencil, ScalarStencil, VecStencilRow,
                       averaged_div, central_bracket, central_div,
                       consistent_diffusion, diff_half, dimsplit_div,
                       rational_string, second_bracket, smooth_bracket,
                       sum_half, tx, ty)
from .laurent import (consistency_nullspace, has_rank_two, moore_family,
                      moore_symmetry_scan, operator_identity_check, rref, rref_nullspace,
                      spans_match, symmetric_divergence_row)
from .fourier import (KernelDimensionError, det_scan, eigenvalue_scaling_check,
                      generic_phases, kernel_dim, left_kernel, right_kernel,
                      structured_phases)
from .schemes import (CATALOG_NAMES, SchemeSpec, catalog, diffusion_scale,
                      dimsplit_symbol, make_scheme, multid_symbol, rhs)
from .timestep import (CFL_NORMALIZATION, InstabilityError, RunResult,
                       StepControl, cfl_dt, cfl_sweep, forward_euler_step,
                       run)
from .experiments import (checked_divergence_row, decay_window,
                          extract_conserved_operator, fit_decay,
                          gresho_vortex, kernel_adapted_state,
                          stationarity_residual, stream_velocity,
                          vortex_benchmark, write_timeseries_csv)

__version__ = "0.1.0"
