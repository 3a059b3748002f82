"""Geometrical optics on the four-manifold of oriented lines.

The package models light rays as oriented straight lines in Euclidean
3-space, reflection and refraction as maps of that line manifold (checked
numerically to be symplectomorphisms, exact or scaled by the index ratio),
two-parameter ray families with their rectangularity defect, wavefront
reconstruction for rectangular families, level-set design of focusing
mirrors, and the two-point characteristic function obtained from Fermat
stationarity.
"""

from .errors import (
    BadMediaChainError,
    ChartDomainError,
    DegenerateGradientError,
    DomainBoundaryError,
    FamilyTraceError,
    GrazingError,
    IllConditionedFitError,
    ImmersionError,
    NoConvergenceError,
    NoIntersectionError,
    NonRegularError,
    NoRootError,
    NotRectangularError,
    OffSurfaceError,
    RaySpaceError,
    SceneSyntaxError,
    TangentialError,
    TotalInternalReflectionError,
    TraceError,
    UnknownSurfaceError,
    ZeroDirectionError,
)
from .lines import (
    NORTH,
    SOUTH,
    OrientedLine,
    chart_coords,
    chart_for,
    chart_jacobian,
    chart_symplectic_matrix,
    line_from_coords,
    line_through,
    reverse,
    symplectic_residual,
)
from .surfaces import (
    SURFACE_KINDS,
    Intersection,
    Plane,
    Quadric,
    Sinusoid,
    Sphere,
    SurfaceChart,
    intersect,
    normal_at,
)
from .optics import (
    REFLECT,
    REFRACT,
    Interface,
    OpticalSystem,
    TraceResult,
    propagate_system,
    reflect_direction,
    reflect_line,
    refract_direction,
    refract_line,
)
from .families import (
    DefectGrid,
    RayFamily,
    TracedLine,
    Wavefront,
    collimated,
    defect,
    defect_grid,
    is_rectangular,
    is_regular_point,
    normal_congruence,
    one_form_integral,
    orthogonality_residual,
    point_source,
    reconstruct_wavefront,
    transform_family,
    two_skew_lines,
)
from .variational import (
    MirrorDesign,
    PathConfiguration,
    characteristic_function,
    design_focusing_mirror,
    initial_path,
    law_residual,
    optical_length,
    path_through,
    stationarity_residual,
    verify_focus,
)
from .scene import Scene, load_scene, parse_scene

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
