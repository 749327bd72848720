"""Relative-motion modal decomposition toolkit.

Closed-form periodic-to-constant reductions of linearized satellite
relative motion about a closed two-body orbit (element differences,
LVLH Cartesian, local spherical), the modal machinery built on them,
and a generic numeric pipeline for near-periodic plants.
"""

from .errors import (InclinationSingularityError, IntegrationError,
                     KeplerConvergenceError, MatrixLogError,
                     NearSingularMatrixError, OrbitDefinitionError,
                     PeriodicityError, RelMotionError)
from .floquet import (CwModalDecomp, LtiSystem, ModalConstants,
                      cw_modal_decomp, cw_planar_eigvecs, delta_theta_solution,
                      drift_constant, eigvecs_closed, lf_defining_residual,
                      lf_qns, lf_transform, lti_closed, lti_qns, map_lti,
                      modal_constants, qns_r21, state_transition)
from .geometry import (SphState, cart_sph_linear, cart_sph_linear_at,
                       cart_to_sph, g_cartesian, g_inverse, g_spherical,
                       geo_map, sph_to_cart)
from .modal import (FamilyMember, StationaryPlane,
                    constants_dynamics, extract_constants,
                    integrate_constants, mode_trajectory, modal_state_matrix,
                    no_drift_maneuver_line, psi_time_factory, rebase_chief,
                    reconstruct, remap_epoch, stationary_plane,
                    sweep_bounded_family)
from .numeric import (Eigenstructure, NumericFloquetResult,
                      delta_p_correction, detect_eigenstructure, find_period,
                      fourier_periodic_fit, integrate_stm,
                      lf_from_monodromy, liouville_determinant_check,
                      numeric_modal_decomp, real_matrix_log)
from .orbit import (MU_EARTH, ChiefOrbit, OrbitStateAtTheta, Shorthands,
                    eval_at_theta, make_chief, shorthand_abc, theta_to_time,
                    time_to_theta)
from .plants import (cartesian_plant_keplerian, cw_planar_plant,
                     cw_plant_full, cw_stm_planar, gauss_rates,
                     propagate_linear, qns_plant_theta, qns_plant_time)
from .twobody import (chief_inertial_state, deputy_from_relative,
                      lvlh_triad, nonlinear_relative_trajectory,
                      propagate_twobody, qns_elements_from_rv,
                      relative_state_lvlh)

__version__ = "0.1.0"
