"""Branched one-sided minimal surfaces from Weierstrass data.

Construction and verification of the generalized one-sided branched minimal
surfaces indexed by complexity, their period problems, explicit families,
Björling solutions for hypocycloids, isometry groups, and mesh export.
"""

from .algebra import (
    BranchConfiguration,
    LaurentPoly,
    cis_pi,
    expand_product,
    invert_radial_gap,
    radial_gap,
)
from .errors import (
    ConvergenceError,
    DomainError,
    HennebergError,
    PeriodError,
    StructureError,
)
from .geometry import (
    AnalyticPlanarCurve,
    BjorlingPatch,
    IsometryCertificate,
    ParameterMap,
    RigidMotion,
    TrigTerm,
    astroid_curve,
    bjorling_solve,
    circle_curve,
    cusp_count,
    enumerate_isometries,
    equator_curve,
    flux_exactness,
)
from .meshing import Mesh, SamplingSpec, build_mesh, read_obj, read_ply, write_obj, write_ply
from .period import (
    FamilyPoint,
    ModuliPoint,
    PeriodResiduals,
    SearchHit,
    brute_search_m1,
    continue_from,
    family_theta2,
    h2_point,
    horizontal_residual_m2,
    m1_residual,
    period_jacobian_m2,
    period_residuals,
    symmetric_example,
    vertical_residual_m2,
)
from .reports import verification_report
from .surfaces import (
    SurfaceMap,
    eval_hm_even,
    limit_m2_data,
    surface_h1,
    surface_hm,
    surface_integrated,
    surface_limit_m2,
    symmetric_phase,
)
from .weierstrass import (
    Immersion,
    IntegratedForms,
    StabilityReport,
    WeierstrassData,
    default_base,
    form_residues,
    integrate_forms,
    one_sided_residual,
    phi_forms,
    stability_report,
    unit_normal,
)

__version__ = "0.1.0"
