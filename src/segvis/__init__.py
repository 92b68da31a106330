"""Exact toolkit for disjointness graphs of planar segments.

Build the graph of pairwise-disjoint segments over an integer point set in
general position, compute exact distances and diameters, verify
mutual-visibility sets, construct verified blocker-set certificates, and
determine mutual-visibility numbers by exhaustive refutation.
"""

from .constructions import (
    Certificate,
    ConstructionError,
    build_certificate,
    certificate_from_blockers,
    certificate_json,
    double_chain_blocker,
)
from .geometry import (
    MAX_COORD,
    CoordinateError,
    GeneralPositionError,
    GenerationError,
    HullData,
    Point,
    PointSet,
    SegmentId,
    all_segments,
    cacerola_points,
    convex_hull,
    gen_convex,
    gen_double_chain,
    gen_random_general_position,
    load_pointset,
    save_pointset,
    segment,
)
from .graph import (
    INFINITY,
    DisjointnessGraph,
    build_disjointness_graph,
    diameter,
    is_connected,
    to_dot,
    to_json_dict,
)
from .solver import (
    MuResult,
    check_bounds_report,
    default_upper_bound,
    mu_exact,
    mu_report_json,
    refutation_count,
    refute_size,
)
from .visibility import (
    PairVerdict,
    VertexSet,
    first_failing_pair,
    is_mutual_visibility_set,
    is_mutually_visible,
)

__version__ = "0.1.0"
