"""Exact Kauffman bracket skein calculator for the annulus, the marked
annulus, and marked disks: full crossing resolution over Z[q, q^-1],
Chebyshev/power basis conversion, and positivity constraint extraction."""

from .laurent import LaurentPoly, ONE, Q, ZERO, q_power
from .sequences import (
    CHEBYSHEV,
    POWER,
    ChebyshevSequence,
    CustomSequence,
    PowerSequence,
    SequenceSpec,
    UniPoly,
    chebyshev,
    from_basis,
    power,
    product_in_basis,
    to_basis,
)
from .diagram import (
    Annulus,
    Crossing,
    Diagram,
    Disk,
    Edge,
    MarkedAnnulus,
    build_core_stack,
    build_d1_xy,
    build_kink,
    build_theta_over_cores,
    build_xk_yn,
    build_zkn,
    disk_surface,
    resolve_crossing,
)
from .skein import (
    AioArc,
    AnnulusPower,
    CrossingCapExceeded,
    DiskMatching,
    IdealSpec,
    LOOP_VALUE,
    SkeinVector,
    StructureError,
    full_boundary_ideal,
    grid_ideal,
    normal_form,
    resolve_all,
    resolve_all_mod,
    theta_bullet,
    theta_transport_target,
)
from .positivity import (
    Constraint,
    ConstraintReport,
    loop_product_expansion,
    minimality_constraints,
    q_constraints,
    structure_constant_audit,
)

__version__ = "0.1.0"
