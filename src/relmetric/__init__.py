"""Boundary-relative intrinsic metrics on planar slit domains.

The package computes distances measured along paths through a domain's
interior (with boundary points reached in the limit), provides the exact
shortest-path oracle behind them, and ships generators and verdicts for a
set of counterexample constructions plus boundary-rigidity diagnostics.
"""
from .errors import (
    DomainInvalid,
    GeometryError,
    MissingHint,
    MultipleBoundaryComponents,
    NotAligned,
    NotReachedWithinBound,
    OffsetFailed,
    OutsideCone,
    PathNotConfined,
    ProfileUnconverged,
    SceneInvalid,
    SizeMismatch,
    SpecInvalid,
    TerminalInsideFloor,
    UnreachableError,
)
from .geom import (
    PlanarDomain,
    Point2,
    Point3,
    Polyline,
    Region,
    Segment2,
    Strip3,
    contains,
    inward_offset,
)
from .visibility import (
    ObstacleScene,
    PathResult,
    PreparedScene,
    shortest_path_confined,
)
from .metric import (
    DistanceEstimate,
    GeodesicCheck,
    MetricAxiomReport,
    MetricConfig,
    check_metric_axioms,
    check_property_circ,
    check_rho_equals_ambient,
    check_strict_convexity,
    closure_distance,
    distance_matrix,
    extract_geodesic,
    matrix_values,
    rho,
)
from .constructions import (
    CombSpec,
    SegmentFamilySpec,
    SpiralSpec,
    StripsReport,
    TriangleDefectReport,
    build_strips,
    comb_divergence,
    comb_domain,
    confined_route,
    labyrinth_min_coils,
    max_corner_detour_ratio,
    meridian_projection,
    random_slit_domain,
    spiral_labyrinth,
    triangle_defect_report,
    verify_length_bound,
    verify_pigeonhole,
)
from .rigidity import (
    AlignmentResult,
    BoundaryProfile,
    CongruenceResult,
    TransferReport,
    boundary_arc_points,
    boundary_profile,
    compare_profiles,
    euclidean_congruence,
    transfer_from_profiles,
)
from .sceneio import Scene, load_scene, parse_scene, save_scene, scene_to_json

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
