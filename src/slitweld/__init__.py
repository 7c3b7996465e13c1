"""Conformal weldings of slit disks from Loewner driving terms.

Pipeline: a driving term steers the radial Loewner flow; boundary points
absorbed at equal times are welded; the welding's regularity functionals
(half-order seminorms, BMO/VMO, quasisymmetry, chordal imbalance, cross
energy) and the explicit maps that extend it (endpoint normalizer, circle
extension, interior shear, slit parametrization) are all evaluable.
"""

from .arcfun import ArcFunction, ArcHomeomorphism
from .circle import CirclePoint, MobiusCircleMap, OrientedArc, arc, canonical_angle
from .constructions import (BeltramiField, CirclePiece, DiskMapEvaluator,
                            PiecewiseCircleMap, build_psi, lemma_q_map,
                            psi_j_decomposition, slit_map_h, welding_construction)
from .errors import (AccuracyError, DiagnosticsError, ExtractionError,
                     HitSingularityError, IntegrationError, SlitWeldError,
                     TraceError, ValidationError)
from .loewner import (DEFAULT_FLOW_PARAMS, PRECISE_FLOW_PARAMS, DrivingTerm,
                      FlowParams, TraceSample, boundary_flow, downward_flow,
                      slit_preimage_endpoints, trace_curve, upward_flow)
from .regularity import (h_half_seminorm, h_half_seminorm_detail,
                         lip_half_norm, loewner_energy, mr_constant, qs_constant,
                         vmo_curve, wp_cross_condition)
from .welding import (Welding, build_tau, extract_welding, pair_residuals,
                      welding_as_homeomorphism, welding_log_derivative)

__version__ = "0.1.0"
