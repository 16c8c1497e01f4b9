"""Hamilton-Jacobi and pilot-wave numerics on relativistic and
Newton-Cartan backgrounds: residual evaluation of the classical and quantum
field equations, guidance trajectories through fixed wave fields, particle
Lagrangians with Legendre cross-checks, and action extremization with
endpoint-derivative verification."""

from .errors import (BadParameter, ConfigError, DegenerateFrame,
                     DegenerateVelocity, FormMismatch, ImaginaryMass, MassSingular,
                     NoConvergence, NodeEncountered, NonFiniteResult,
                     PilotwaveError, SignatureViolation, SingularMetric, StepFailure,
                     TachyonicInput, UnknownScenario)
from .fields import EPS_NODE, ComplexField, PolarField, complex_view, polar_view
from .geometry import BackgroundRel, MetricData, check_point, metric_data, metric_inverse
from .nc_geometry import (NCBackground, NCDerived, NullLift, derive_nc, null_lift,
                          null_lift_residuals)
from .report import GridSpec, ResidualReport
from .dynamics import (GuidanceField, Trajectory, guidance_velocity_nc,
                       guidance_velocity_rel, integrate_trajectory, lagrangian_nc,
                       lagrangian_quantum_rel)
from .action_principles import (BoundaryValueProblem, DiscretizedPath,
                                LagrangianSystem, action_value, extremize,
                                verify_hj_relations)
from .scenarios import Scenario, build

__version__ = "0.1.0"
