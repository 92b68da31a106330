"""Exact toolkit for disjointness graphs of planar segments.

Build the graph of pairwise-disjoint segments over an integer point set in
general position, compute exact distances and diameters, verify
mutual-visibility sets, construct verified blocker-set certificates, and
determine mutual-visibility numbers by exhaustive refutation.
"""

from .constructions import (
    Certificate,
    ConstructionError,
    RegionDecomposition,
    build_certificate,
    certificate_from_blockers,
    certificate_json,
    decompose_regions,
    double_chain_blocker,
    find_five_disjoint_clean,
    find_good_2set,
    find_good_triangle,
    s_from_good_2set,
    s_from_good_triangle,
)
from .geometry import (
    MAX_COORD,
    CoordinateError,
    GeneralPositionError,
    GenerationError,
    HullData,
    Orientation,
    Point,
    PointSet,
    SegmentId,
    all_segments,
    cacerola_points,
    convex_hull,
    crosses,
    gen_convex,
    gen_double_chain,
    gen_random_general_position,
    is_clean,
    is_general_position,
    load_pointset,
    orientation,
    rotation_neighbors,
    save_pointset,
    segment,
    segments_intersect,
)
from .graph import (
    INFINITY,
    DisjointnessGraph,
    build_disjointness_graph,
    diameter,
    distances_from,
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
    ADJACENT,
    DIST2,
    DIST3,
    DIST4,
    PairVerdict,
    VertexSet,
    classify_pair,
    first_failing_pair,
    is_mutual_visibility_set,
    is_mutually_visible,
    verdict_json,
)

__version__ = "0.1.0"
