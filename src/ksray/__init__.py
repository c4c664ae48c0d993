"""Ray catalogs, orthogonality graphs, KS colorability, contextuality bounds,
and cap-and-belt coloring measures."""

from .rays import (
    RaySet, canonicalize, build_rayset, CATALOGS,
    cube13, peres24, three_cubes, kcbs5, ceg18, cube_members,
    load_rayset, rayset_to_json,
    InvalidInput, REAL, COMPLEX,
)
from .ortho import (
    OrthoGraph, ortho_graph, from_edges, cycle_graph, maximal_cliques,
    complete_bases, realize, graph_to_json,
)
from .kscolor import (
    Color, KSVerdict, ParityCertificate, ExhaustionProof,
    ks_solve, verify_coloring, count_colorings,
)
from .bounds import (
    BoundsReport, ThetaCertificate, independence_number,
    theta_certificate, fractional_packing, bounds_report, NumericalFailure,
)
from .operators import (
    projector_sum, eigen_max, equal_weight_povm_check, platter_simulate,
    ClassicalStrategy, ConspiratorialStrategy, QuantumStrategy,
    PlatterOutcome,
)
from .measure import (
    Region, RegionColoring, MCEstimate, classify,
    colored_fraction_complex, colored_fraction_real,
    sample_rays,
    mc_colored_fraction, region_validity_mc, basis_colored_fraction_mc,
    Quadrant, SeparableState, separable_quadrant, separable_to_ray,
    separable_validity_mc, pole_counterexample,
)
from .rng import stream_rng

__version__ = "0.1.0"
