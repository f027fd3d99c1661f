"""Exact Kauffman bracket skein calculator for the annulus, the marked
annulus, and marked disks: full crossing resolution over Z[q, q^-1],
Chebyshev/power basis conversion, and positivity constraint extraction.

The public names load on first use (PEP 562), so importing the package,
or one submodule of it, compiles no other module."""

_EXPORTS = {
    "laurent": ("LaurentPoly", "ONE", "ZERO", "q_power"),
    "sequences": (
        "CHEBYSHEV",
        "POWER",
        "Sequence",
        "UniPoly",
        "chebyshev",
        "from_basis",
        "product_in_basis",
        "to_basis",
    ),
    "diagram": (
        "Annulus",
        "Crossing",
        "Diagram",
        "Disk",
        "Edge",
        "MarkedAnnulus",
        "build_core_stack",
        "build_d1_xy",
        "build_kink",
        "build_theta_over_cores",
        "build_xk_yn",
        "build_zkn",
        "disk_surface",
    ),
    "_cap": ("CrossingCapExceeded", "FrontierBudgetExceeded"),
    "skein": (
        "AioArc",
        "AnnulusPower",
        "CaseResult",
        "DiskMatching",
        "IdealSpec",
        "LOOP_VALUE",
        "SkeinVector",
        "StructureError",
        "full_boundary_ideal",
        "grid_ideal",
        "normal_form",
        "resolve_all",
        "resolve_all_mod",
        "theta_bullet",
        "theta_transport_target",
    ),
    "positivity": (
        "Constraint",
        "ConstraintReport",
        "loop_product_expansion",
        "minimality_constraints",
        "q_constraints",
        "structure_constant_audit",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_OWNER)

__version__ = "0.1.0"


def __getattr__(name: str):
    module = _OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_OWNER})
