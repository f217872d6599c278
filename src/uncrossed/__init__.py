"""Uncrossed numbers and maximum uncrossed subgraphs: closed-form
bounds, a density-targeted tight construction with verifiable drawing
certificates, and exact search on small graphs."""

from .bounds import (
    BoundReport,
    FaceCounts,
    alpha_bound,
    alpha_bound_report,
    best_combined_bound,
    combined_bound,
    complex_bound,
    evaluate_bounds,
    exact_h_complete,
    exact_h_complete_bipartite,
    exact_unc_complete,
    h_upper,
    h_upper_triangle_free,
    simple_bound,
    unc_from_h,
    unc_lower,
    unc_lower_quadratic,
    unc_lower_triangle_free,
)
from .construction import (
    ConstructionRecord,
    build_construction,
    check_tightness,
    choose_x,
    construct,
    layout_coordinates,
)
from .embedding import (
    RotationSystem,
    cofacial,
    enumerate_rotation_systems,
    face_profile,
    genus,
    trace_faces,
)
from .graphs import (
    Graph,
    is_triangle_free,
    make_complete,
    make_complete_bipartite,
    make_random_gnm,
    make_wheel,
    parse_edge_list,
    serialize_edge_list,
)
from .oracle import (
    SearchLimits,
    SubdrawingCertificate,
    exact_h,
    exact_unc,
    feasible,
    maximal_feasible_sets,
    verify_certificate,
)

__all__ = [name for name in dir() if not name.startswith("_")]
