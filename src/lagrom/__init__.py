"""Structure-preserving model reduction for parameterized mechanical systems."""

from .pod import PODBasis, compute_pod_basis, pod_dimension
from .sampling import SampleIndexSet, greedy_sample_indices, validate_sample_set
from .spd_approx import (MatrixGappyBasis, RBSMap, TrainingBlocks,
                         build_matrix_gappy_basis, eigen_constrained_solve,
                         gappy_matrix_assemble, gappy_matrix_coeffs,
                         generalized_interlacing_check, matrix_pod_modes,
                         rbs_apply, rbs_fit, training_blocks)
from .potential_map import (SparsePotentialMap, approx_reduced_gradient,
                            approx_reduced_hessian, build_potential_map)
from .gappy import (apply_force_reconstructor, build_force_reconstructor,
                    gappy_error_bound)
from .truss import (ForcingConfig, TrussModel, build_truss, damping_band,
                    fundamental_frequency, rayleigh_coefficients,
                    validate_parameters)
from .midpoint import (NewtonSettings, NewtonResult, SecondOrderSystem, State,
                       Trajectory, implicit_midpoint_solve, midpoint_step,
                       newton, richardson_estimate)
from .roms import (ReducedSystem, build_collocation, build_galerkin,
                   build_gappy_rom, build_structure_preserving,
                   integrate_full_model, integrate_rom,
                   reduced_total_energy, total_energy)
from .bench import (ComparisonReport, ExperimentConfig, OfflineProducts,
                    ReducedProducts, error_metric, lhs_points, run_comparison,
                    run_offline, run_online, reduce_products, verify_timestep)
from .archive import load_archive, save_archive

__version__ = "0.1.0"
