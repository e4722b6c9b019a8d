"""Chart-based numerical differential geometry for maps into almost
Hermitian manifolds: second-order jet autodiff, tension fields, induced
f-structures, and verification of biconformal metric-change identities."""

from .jets import Jet2, JetDomainError, seed_coordinates
from .exprs import EvalError, ParseError, eval_jet, parse, to_text
from .manifold import (ChartedRiemannianManifold, DomainError, FDMetric,
                       GeometryError, JetMetric, MetricError, TangentVector,
                       euclidean_space)
from .maps import (LocalGeometry, OrthoSplit, RankError, FrameError,
                   SmoothMap, differential, mean_curvature_vertical,
                   ortho_split, tension_field)
from .hermitian import (AlmostComplexStructureField, AdaptedFrame,
                        adapted_frame, f_divergence_horizontal, f_structure,
                        phh_defect, phwc_defect, phwc_metric_defect,
                        tension_via_f_structure)
from .biconformal import (BiconformalChange, BiconformalContext,
                          ChangedMetric, IdentityResidualReport,
                          PositivityError, special_change,
                          verify_f_divergence, verify_koszul_h,
                          verify_koszul_v, verify_mean_curvature,
                          verify_phh_covariant_formula,
                          verify_phwc_equivalence,
                          verify_pullback_characterization,
                          verify_tension_equivalence, verify_tension_transform)
from .scenarios import Scenario, get_scenario, list_scenarios, sample_points
from .runner import ALL_IDENTITIES, RunConfig, confirm_flags, run_verification

__version__ = "0.1.0"
